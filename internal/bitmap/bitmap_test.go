package bitmap

import (
	"testing"
	"testing/quick"
)

// TestSetPlainBitReportsFirstSet: SetPlainBit returns 1 exactly on the
// first set of each bit, including bits at word boundaries, and sets no
// other bit.
func TestSetPlainBitReportsFirstSet(t *testing.T) {
	b := New(200)
	ref := make([]bool, 200)
	for _, i := range []int{5, 63, 64, 5, 199, 64, 0, 128, 199, 1, 127, 1} {
		var want uint64
		if !ref[i] {
			want = 1
		}
		ref[i] = true
		if got := b.SetPlainBit(i); got != want {
			t.Fatalf("SetPlainBit(%d) = %d, want %d", i, got, want)
		}
	}
	for i := 0; i < 200; i++ {
		if got := b.SetPlainBit(i) == 0; got != ref[i] {
			t.Fatalf("bit %d: set %v, want %v", i, got, ref[i])
		}
	}
}

func TestClear(t *testing.T) {
	b := New(200)
	idx := []int{0, 63, 64, 127, 128, 199}
	for _, i := range idx {
		b.SetPlainBit(i)
	}
	b.Clear(63)
	if b.SetPlainBit(63) != 1 {
		t.Fatal("bit 63 still set after Clear")
	}
	if b.SetPlainBit(64) != 0 || b.SetPlainBit(0) != 0 {
		t.Fatal("Clear disturbed neighboring bits")
	}
	for _, i := range idx {
		b.Clear(i)
	}
	for i := 0; i < 200; i++ {
		if b.SetPlainBit(i) != 1 {
			t.Fatalf("bit %d set after clearing every set bit", i)
		}
	}
}

func TestNewNegative(t *testing.T) {
	b := New(-5)
	if b.Len() != 0 || len(b.words) != 0 {
		t.Fatal("negative-size bitmap should be empty")
	}
}

// Property: over an arbitrary index sequence, SetPlainBit returns 1 iff the
// index was not set before, so the returns sum to the number of distinct
// indices; clearing exactly those indices empties the bitmap again.
func TestSetPlainBitProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		b := New(1 << 16)
		seen := map[int]bool{}
		var sum uint64
		for _, r := range raw {
			i := int(r)
			won := b.SetPlainBit(i)
			if (won == 1) == seen[i] {
				return false // must win iff not previously set
			}
			seen[i] = true
			sum += won
		}
		if sum != uint64(len(seen)) {
			return false
		}
		for i := range seen {
			b.Clear(i)
		}
		for _, w := range b.words {
			if w != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
