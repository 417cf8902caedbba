package parallel

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestPoolSizes(t *testing.T) {
	if NewPool(0).Size() != MaxWorkers() {
		t.Fatalf("NewPool(0).Size() = %d, want %d", NewPool(0).Size(), MaxWorkers())
	}
	if NewPool(-3).Size() != MaxWorkers() {
		t.Fatal("negative size should select MaxWorkers")
	}
	if NewPool(7).Size() != 7 {
		t.Fatal("explicit size not honored")
	}
}

func TestForCoversRangeExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		p := NewPool(workers)
		for _, n := range []int{0, 1, 2, 7, 64, 1000, 1001} {
			hits := make([]int32, n)
			p.For(n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, h)
				}
			}
		}
		p.Close()
	}
}

// TestBlockTilesRangeInOrder checks that Block's blocks are contiguous,
// in order, and cover [0, n) exactly, for counts on both sides of parts.
func TestBlockTilesRangeInOrder(t *testing.T) {
	for _, parts := range []int{1, 2, 3, 4, 7} {
		for _, n := range []int{0, 1, 2, 3, 6, 7, 64, 1001} {
			next := 0
			for i := 0; i < parts; i++ {
				lo, hi := Block(n, parts, i)
				if lo != next || hi < lo || hi > n {
					t.Fatalf("parts=%d n=%d: block %d = [%d, %d), want it to start at %d", parts, n, i, lo, hi, next)
				}
				next = hi
			}
			if next != n {
				t.Fatalf("parts=%d n=%d: blocks end at %d", parts, n, next)
			}
		}
	}
}

func TestDynamicCoversRangeExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := NewPool(workers)
		for _, n := range []int{0, 1, 100, 4097} {
			for _, grain := range []int{-1, 1, 3, 512, 10000} {
				hits := make([]int32, n)
				p.Dynamic(n, grain, func(lo, hi int) {
					if lo < 0 || hi > n || lo > hi {
						t.Fatalf("bad chunk [%d,%d) for n=%d", lo, hi, n)
					}
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&hits[i], 1)
					}
				})
				for i, h := range hits {
					if h != 1 {
						t.Fatalf("workers=%d n=%d grain=%d: index %d visited %d times", workers, n, grain, i, h)
					}
				}
			}
		}
		p.Close()
	}
}

func TestRunInvokesEachWorkerOnce(t *testing.T) {
	p := NewPool(5)
	defer p.Close()
	var mask atomic.Int64
	p.Run(func(w int) { mask.Add(1 << uint(w)) })
	if mask.Load() != 0b11111 {
		t.Fatalf("worker mask = %b, want 11111", mask.Load())
	}
}

func TestSumInt64(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	// Sum of 0..n-1 for a few n.
	for _, n := range []int{0, 1, 5, 1024, 99999} {
		got := p.SumInt64(n, func(i int) int64 { return int64(i) })
		want := int64(n) * int64(n-1) / 2
		if n == 0 {
			want = 0
		}
		if got != want {
			t.Fatalf("SumInt64(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestMinInt64Lowers(t *testing.T) {
	v := int64(100)
	if !MinInt64(&v, 50) || v != 50 {
		t.Fatalf("MinInt64 failed to lower: v=%d", v)
	}
	if MinInt64(&v, 50) {
		t.Fatal("MinInt64 reported lowering for equal value")
	}
	if MinInt64(&v, 60) || v != 50 {
		t.Fatalf("MinInt64 raised the value: v=%d", v)
	}
}

func TestMinInt64Concurrent(t *testing.T) {
	p := NewPool(8)
	defer p.Close()
	v := int64(1 << 40)
	const n = 100000
	p.Dynamic(n, 64, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			MinInt64(&v, int64(n-i))
		}
	})
	if v != 1 {
		t.Fatalf("concurrent MinInt64 result = %d, want 1", v)
	}
}

// Property: For and a sequential loop compute identical sums for arbitrary
// inputs.
func TestForMatchesSequentialProperty(t *testing.T) {
	p := NewPool(0)
	defer p.Close()
	f := func(xs []int32) bool {
		var seq int64
		for _, x := range xs {
			seq += int64(x)
		}
		var par atomic.Int64
		p.For(len(xs), func(lo, hi int) {
			var s int64
			for i := lo; i < hi; i++ {
				s += int64(xs[i])
			}
			par.Add(s)
		})
		return par.Load() == seq
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: MinInt64 applied in any order yields the minimum.
func TestMinInt64Property(t *testing.T) {
	f := func(xs []int64, start int64) bool {
		if start < 0 {
			start = -start
		}
		v := start
		want := start
		for _, x := range xs {
			if x < want {
				want = x
			}
			MinInt64(&v, x)
		}
		return v == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDynamicWorkerCoversRangeWithWorkerIDs(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		p := NewPool(workers)
		for _, n := range []int{0, 1, 100, 5000} {
			hits := make([]int32, n)
			p.DynamicWorker(n, 64, func(w, lo, hi int) {
				if w < 0 || w >= workers {
					t.Errorf("worker id %d out of range", w)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, h)
				}
			}
		}
		p.Close()
	}
}

func TestCloseIdempotentAndSequentialPool(t *testing.T) {
	p := NewPool(3)
	p.Run(func(int) {})
	p.Close()
	p.Close() // second close must not panic
	// A size-1 pool never spawns goroutines; all paths run inline.
	q := NewPool(1)
	ran := false
	q.Run(func(w int) { ran = w == 0 })
	if !ran {
		t.Fatal("sequential Run did not execute inline")
	}
	q.For(10, func(lo, hi int) {
		if lo != 0 || hi != 10 {
			t.Fatalf("sequential For chunk [%d,%d)", lo, hi)
		}
	})
	q.Close() // no goroutines to close
}

func TestStoreLoadInt64(t *testing.T) {
	var v int64
	StoreInt64(&v, 42)
	if LoadInt64(&v) != 42 {
		t.Fatal("atomic store/load")
	}
}

func BenchmarkDynamicFor(b *testing.B) {
	p := NewPool(0)
	defer p.Close()
	data := make([]int64, 1<<16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Dynamic(len(data), 0, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				data[j]++
			}
		})
	}
}

// TestUnobserveDetachesOnlyItsOwnStats checks that Unobserve stops the
// timing of later launches, and that it leaves in place an accumulator
// attached after the one it names.
func TestUnobserveDetachesOnlyItsOwnStats(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	var a, b PoolStats
	p.Observe(&a)
	p.Run(func(int) {})
	p.Unobserve(&a)
	p.Run(func(int) {})
	if got := a.Launches(); got != 1 {
		t.Fatalf("detached stats count %d launches, want 1", got)
	}
	p.Observe(&a)
	p.Observe(&b)
	p.Unobserve(&a)
	p.Run(func(int) {})
	if a.Launches() != 1 || b.Launches() != 1 {
		t.Fatalf("launches a=%d b=%d, want 1 each: the newer stats must stay attached", a.Launches(), b.Launches())
	}
}
