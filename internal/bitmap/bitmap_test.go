package bitmap

import (
	"testing"
	"testing/quick"

	"energysssp/internal/parallel"
)

func TestTrySetBasic(t *testing.T) {
	b := New(130)
	if b.Len() != 130 {
		t.Fatalf("Len = %d, want 130", b.Len())
	}
	for i := 0; i < 130; i++ {
		if b.Get(i) {
			t.Fatalf("bit %d set in fresh bitmap", i)
		}
		if !b.TrySet(i) {
			t.Fatalf("first TrySet(%d) lost", i)
		}
		if b.TrySet(i) {
			t.Fatalf("second TrySet(%d) won", i)
		}
		if !b.Get(i) {
			t.Fatalf("bit %d not set after TrySet", i)
		}
	}
	if b.Count() != 130 {
		t.Fatalf("Count = %d, want 130", b.Count())
	}
	b.Reset()
	if b.Count() != 0 {
		t.Fatalf("Count after Reset = %d", b.Count())
	}
}

// TestSetPlainMatchesTrySet: on one goroutine, SetPlain reports and sets
// exactly what TrySet would, so the sequential advance dedups the same set.
func TestSetPlainMatchesTrySet(t *testing.T) {
	plain, atomicB := New(200), New(200)
	for _, i := range []int{5, 63, 64, 5, 199, 64, 0, 128, 199} {
		if got, want := plain.SetPlain(i), atomicB.TrySet(i); got != want {
			t.Fatalf("SetPlain(%d) = %v, TrySet = %v", i, got, want)
		}
	}
	if plain.Count() != 6 {
		t.Fatalf("Count = %d, want 6", plain.Count())
	}
	for i := 0; i < 200; i++ {
		if plain.Get(i) != atomicB.Get(i) {
			t.Fatalf("bit %d: SetPlain bitmap %v, TrySet bitmap %v", i, plain.Get(i), atomicB.Get(i))
		}
	}
}

// TestSetPlainBitMatchesSetPlain: SetPlainBit sets and reports exactly
// what SetPlain would, as 1 for true and 0 for false.
func TestSetPlainBitMatchesSetPlain(t *testing.T) {
	num, plain := New(200), New(200)
	for _, i := range []int{5, 63, 64, 5, 199, 64, 0, 128, 199, 1, 127, 1} {
		got := num.SetPlainBit(i)
		var want uint64
		if plain.SetPlain(i) {
			want = 1
		}
		if got != want {
			t.Fatalf("SetPlainBit(%d) = %d, want %d", i, got, want)
		}
	}
	for i := 0; i < 200; i++ {
		if num.Get(i) != plain.Get(i) {
			t.Fatalf("bit %d: SetPlainBit bitmap %v, SetPlain bitmap %v", i, num.Get(i), plain.Get(i))
		}
	}
}

func TestClearAndClearAll(t *testing.T) {
	b := New(200)
	idx := []int32{0, 63, 64, 127, 128, 199}
	for _, i := range idx {
		b.TrySet(int(i))
	}
	b.Clear(63)
	if b.Get(63) {
		t.Fatal("bit 63 still set after Clear")
	}
	if b.Get(64) == false || b.Get(0) == false {
		t.Fatal("Clear disturbed neighboring bits")
	}
	b.ClearAll(idx)
	if b.Count() != 0 {
		t.Fatalf("Count after ClearAll = %d", b.Count())
	}
}

func TestNewNegative(t *testing.T) {
	b := New(-5)
	if b.Len() != 0 || b.Count() != 0 {
		t.Fatal("negative-size bitmap should be empty")
	}
}

// Exactly one concurrent TrySet per bit must win.
func TestTrySetConcurrentUniqueWinner(t *testing.T) {
	const n = 1 << 14
	b := New(n)
	p := parallel.NewPool(8)
	defer p.Close()
	wins := make([]int32, n)
	// Each bit is attempted by 4 different logical workers.
	p.Dynamic(4*n, 128, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			bit := i % n
			if b.TrySet(bit) {
				wins[bit]++ // winner is unique, so no race on wins[bit]
			}
		}
	})
	for i, w := range wins {
		if w != 1 {
			t.Fatalf("bit %d had %d winners", i, w)
		}
	}
}

// Property: after setting an arbitrary set of bits, Count equals the number
// of distinct indices and Get agrees with membership.
func TestSetGetCountProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		b := New(1 << 16)
		seen := map[int]bool{}
		for _, r := range raw {
			i := int(r)
			won := b.TrySet(i)
			if won == seen[i] {
				return false // must win iff not previously set
			}
			seen[i] = true
		}
		if b.Count() != len(seen) {
			return false
		}
		for i := range seen {
			if !b.Get(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTrySet(b *testing.B) {
	bm := New(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bm.TrySet(i & (1<<20 - 1))
	}
}
