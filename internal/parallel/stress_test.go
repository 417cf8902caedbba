package parallel

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestPoolHammer drives many pools through repeated For/Dynamic/
// DynamicWorker/SumInt64 rounds concurrently, with every kernel body
// funneling into shared atomic counters. Its purpose is to give the race
// detector surface area over the pool's job channels, WaitGroup handoffs,
// and the dynamic chunk counter; run it via `go test -race` (scripts/
// check.sh does). Skipped under -short.
func TestPoolHammer(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test; skipped under -short")
	}
	const (
		goroutines = 4
		rounds     = 60
		n          = 10_000
	)
	var total atomic.Int64
	var rowSum atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := NewPool(3 + g%3)
			defer p.Close()
			for r := 0; r < rounds; r++ {
				switch r % 4 {
				case 0:
					p.For(n, func(lo, hi int) {
						total.Add(int64(hi - lo))
					})
				case 1:
					p.Dynamic(n, 64, func(lo, hi int) {
						total.Add(int64(hi - lo))
					})
				case 2:
					p.DynamicWorker(n, 128, func(w, lo, hi int) {
						total.Add(int64(hi - lo))
					})
				case 3:
					rowSum.Add(p.SumInt64(n, func(i int) int64 { return 1 }))
				}
			}
		}(g)
	}
	wg.Wait()

	perRound := int64(n)
	wantTotal := int64(goroutines) * int64(rounds) * perRound * 3 / 4
	if got := total.Load(); got != wantTotal {
		t.Fatalf("items processed = %d, want %d (lost or duplicated chunks)", got, wantTotal)
	}
	wantSum := int64(goroutines) * int64(rounds) / 4 * perRound
	if got := rowSum.Load(); got != wantSum {
		t.Fatalf("SumInt64 total = %d, want %d", got, wantSum)
	}
}

// TestMinInt64Hammer races many goroutines lowering a shared set of slots
// through the CAS loop MinInt64 uses for relaxation, then checks every slot
// holds the global minimum each goroutine computed locally.
func TestMinInt64Hammer(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test; skipped under -short")
	}
	const (
		goroutines = 8
		slots      = 64
		writes     = 20_000
	)
	shared := make([]int64, slots)
	for i := range shared {
		shared[i] = 1 << 60
	}
	mins := make([][]int64, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			local := make([]int64, slots)
			for i := range local {
				local[i] = 1 << 60
			}
			// Deterministic per-goroutine pseudo-random stream.
			x := uint64(g)*2654435761 + 12345
			for w := 0; w < writes; w++ {
				x = x*6364136223846793005 + 1442695040888963407
				slot := int(x>>33) % slots
				v := int64(x % 1_000_000)
				MinInt64(&shared[slot], v)
				if v < local[slot] {
					local[slot] = v
				}
			}
			mins[g] = local
		}(g)
	}
	wg.Wait()
	for s := 0; s < slots; s++ {
		want := int64(1) << 60
		for g := 0; g < goroutines; g++ {
			if mins[g][s] < want {
				want = mins[g][s]
			}
		}
		if got := atomic.LoadInt64(&shared[s]); got != want {
			t.Fatalf("slot %d = %d, want %d", s, got, want)
		}
	}
}
