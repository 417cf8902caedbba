package frontier

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"energysssp/internal/graph"
)

func TestFlatBasic(t *testing.T) {
	var q Flat
	dist := []graph.Dist{10, 20, 30, 40}
	q.Push(0, 10)
	q.Push(1, 20)
	q.Push(2, 30)
	if q.Len() != 3 {
		t.Fatalf("Len = %d", q.Len())
	}
	out, scanned := q.ExtractBelow(20, dist, nil)
	if scanned != 3 {
		t.Fatalf("scanned = %d", scanned)
	}
	if len(out) != 2 || out[0] != 0 || out[1] != 1 {
		t.Fatalf("out = %v", out)
	}
	if q.Len() != 1 {
		t.Fatalf("retained = %d, want 1", q.Len())
	}
	// Remaining entry (2, 30) extracted later.
	out, _ = q.ExtractBelow(100, dist, nil)
	if len(out) != 1 || out[0] != 2 {
		t.Fatalf("second extract = %v", out)
	}
}

func TestFlatDropsStale(t *testing.T) {
	var q Flat
	dist := []graph.Dist{10}
	q.Push(0, 15) // inserted at 15, but current dist is 10 -> stale
	out, _ := q.ExtractBelow(100, dist, nil)
	if len(out) != 0 || q.Len() != 0 {
		t.Fatalf("stale entry survived: out=%v len=%d", out, q.Len())
	}
}

func TestFlatMinDist(t *testing.T) {
	var q Flat
	dist := []graph.Dist{5, 7, 2}
	q.Push(0, 5)
	q.Push(1, 9) // stale
	q.Push(2, 2)
	if got := q.MinDist(dist); got != 2 {
		t.Fatalf("MinDist = %d", got)
	}
	var empty Flat
	if empty.MinDist(dist) != graph.Inf {
		t.Fatal("empty MinDist should be Inf")
	}
}

// MinDist is the O(1) running minimum over recorded distances: when the
// minimum-achieving entry has gone stale it undershoots the true fresh
// minimum (lower-bound semantics), and the following extraction purges the
// stale entry and re-tightens the bound over the retained entries.
func TestFlatMinDistLowerBound(t *testing.T) {
	var q Flat
	dist := []graph.Dist{1, 40}
	q.Push(0, 3) // stale: vertex 0 improved to 1
	q.Push(1, 40)
	if got := q.MinDist(dist); got != 3 {
		t.Fatalf("MinDist = %d, want the recorded lower bound 3", got)
	}
	// Extraction at the bound yields nothing but compacts the stale entry...
	out, scanned := q.ExtractBelow(3, dist, nil)
	if len(out) != 0 || scanned != 2 || q.Len() != 1 {
		t.Fatalf("purge pass: out=%v scanned=%d len=%d", out, scanned, q.Len())
	}
	// ...after which the bound is exact again.
	if got := q.MinDist(dist); got != 40 {
		t.Fatalf("MinDist after purge = %d, want 40", got)
	}
}

func TestPartitionedInit(t *testing.T) {
	q := GetPartitioned(50)
	if q.NumPartitions() != 2 || q.Bound(0) != 50 || q.Bound(1) != graph.Inf {
		t.Fatalf("init: parts=%d bounds=%d,%d", q.NumPartitions(), q.Bound(0), q.Bound(1))
	}
	if GetPartitioned(0).Bound(0) != 1 {
		t.Fatal("zero first bound should clamp to 1")
	}
	if GetPartitioned(graph.Inf).Bound(0) != graph.Inf-1 {
		t.Fatal("Inf first bound should clamp below Inf")
	}
}

func TestPartitionedPushPlacement(t *testing.T) {
	q := GetPartitioned(50)
	q.Push([]Entry{
		{0, 50}, // boundary value goes to partition 0 (d <= B0)
		{1, 51},
		{2, 1},
	})
	if q.PartSize(0) != 2 || q.PartSize(1) != 1 {
		t.Fatalf("placement: %d/%d", q.PartSize(0), q.PartSize(1))
	}
	if q.Len() != 3 {
		t.Fatalf("Len = %d", q.Len())
	}
}

func TestSetBoundMonotonic(t *testing.T) {
	q := GetPartitioned(100)
	if err := q.SetBound(0, 120); err == nil {
		t.Fatal("raising a bound accepted")
	}
	if err := q.SetBound(0, 80); err != nil {
		t.Fatal(err)
	}
	if err := q.SetBound(5, 10); err == nil {
		t.Fatal("out-of-range partition accepted")
	}
	// Crossing the lower neighbor must fail.
	if err := q.SetBound(1, 80); err == nil {
		t.Fatal("bound crossing lower accepted")
	} else if err := q.SetBound(1, 200); err != nil {
		t.Fatal(err)
	}
	// Lowering the last partition's bound appends a fresh Inf partition.
	if q.Bound(q.NumPartitions()-1) != graph.Inf {
		t.Fatal("tail partition must stay unbounded")
	}
}

func TestSetBoundLastAppendsPartition(t *testing.T) {
	q := GetPartitioned(100)
	before := q.NumPartitions()
	if err := q.SetBound(1, 500); err != nil {
		t.Fatal(err)
	}
	if q.NumPartitions() != before+1 {
		t.Fatalf("partitions = %d, want %d", q.NumPartitions(), before+1)
	}
	if q.Bound(1) != 500 || q.Bound(2) != graph.Inf {
		t.Fatalf("bounds: %d, %d", q.Bound(1), q.Bound(2))
	}
}

func TestPopBelowScansOnlyLeadingPartitions(t *testing.T) {
	q := GetPartitioned(10)
	if err := q.SetBound(1, 20); err != nil { // partitions: (0,10], (10,20], (20,Inf]
		t.Fatal(err)
	}
	dist := make([]graph.Dist, 10)
	dist[0], dist[1], dist[2] = 5, 15, 25
	q.Push([]Entry{{0, 5}, {1, 15}, {2, 25}})
	out := q.PopBelow(10, dist, nil)
	if len(out) != 1 || out[0] != 0 {
		t.Fatalf("out = %v", out)
	}
	// Only partition 0 should have been scanned (lower(1)=10 >= thr).
	if got := q.ScannedAndReset(); got != 1 {
		t.Fatalf("scanned = %d, want 1", got)
	}
	if q.Len() != 2 {
		t.Fatalf("Len = %d", q.Len())
	}
}

func TestPopBelowDropsStaleAndCompacts(t *testing.T) {
	q := GetPartitioned(10)
	dist := make([]graph.Dist, 4)
	dist[0], dist[1], dist[2], dist[3] = 3, 100, 7, 9
	q.Push([]Entry{
		{0, 3},
		{1, 8}, // stale: current dist is 100
		{2, 7},
		{3, 9},
	})
	out := q.PopBelow(10, dist, nil)
	if len(out) != 3 {
		t.Fatalf("out = %v", out)
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after draining", q.Len())
	}
	// Leading empty partition is compacted away; tail remains.
	if q.NumPartitions() < 1 || q.Bound(q.NumPartitions()-1) != graph.Inf {
		t.Fatal("compaction removed the unbounded tail")
	}
}

func TestPartitionedMinDistAndFreshLen(t *testing.T) {
	q := GetPartitioned(10)
	dist := make([]graph.Dist, 4)
	dist[0], dist[1], dist[2] = 4, 2, 50
	q.Push([]Entry{
		{0, 4},
		{1, 3}, // stale (current 2)
		{2, 50},
	})
	if got := q.MinDist(dist); got != 4 {
		t.Fatalf("MinDist = %d", got)
	}
	if got := q.FreshLen(dist); got != 2 {
		t.Fatalf("FreshLen = %d", got)
	}
	empty := GetPartitioned(10)
	if empty.MinDist(dist) != graph.Inf {
		t.Fatal("empty MinDist should be Inf")
	}
}

// Property: for any sequence of pushes with current distances equal to
// insertion distances, PopBelow(thr) returns exactly the vertices with
// distance <= thr, regardless of boundary layout.
func TestPartitionedPopCompleteness(t *testing.T) {
	f := func(seed uint64, nBoundsRaw uint8) bool {
		rng := rand.New(rand.NewPCG(seed, seed^77))
		q := GetPartitioned(graph.Dist(rng.Int64N(100) + 1))
		// Apply a few random monotone boundary updates.
		for i := 0; i < int(nBoundsRaw)%6; i++ {
			pi := rng.IntN(q.NumPartitions())
			lower := graph.Dist(0)
			if pi > 0 {
				lower = q.Bound(pi - 1)
			}
			upper := q.Bound(pi)
			if upper == graph.Inf {
				upper = lower + 1000
			}
			if upper-lower > 1 {
				_ = q.SetBound(pi, lower+1+rng.Int64N(int64(upper-lower-1)))
			}
		}
		n := 200
		dist := make([]graph.Dist, n)
		want := map[graph.VID]bool{}
		thr := graph.Dist(rng.Int64N(2000))
		es := make([]Entry, n)
		for v := 0; v < n; v++ {
			d := graph.Dist(rng.Int64N(3000) + 1)
			dist[v] = d
			es[v] = Entry{graph.VID(v), d}
			if d <= thr {
				want[graph.VID(v)] = true
			}
		}
		q.Push(es)
		out := q.PopBelow(thr, dist, nil)
		if len(out) != len(want) {
			return false
		}
		for _, v := range out {
			if !want[v] {
				return false
			}
		}
		return q.Len() == n-len(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: flat and partitioned queues agree on extraction results.
func TestFlatPartitionedEquivalence(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, seed*3+1))
		var fq Flat
		pq := GetPartitioned(graph.Dist(rng.Int64N(50) + 1))
		n := 100
		dist := make([]graph.Dist, n)
		for v := 0; v < n; v++ {
			d := graph.Dist(rng.Int64N(500) + 1)
			dist[v] = d
			fq.Push(graph.VID(v), d)
			pq.Push([]Entry{{graph.VID(v), d}})
		}
		thr := graph.Dist(rng.Int64N(600))
		fOut, _ := fq.ExtractBelow(thr, dist, nil)
		pOut := pq.PopBelow(thr, dist, nil)
		if len(fOut) != len(pOut) {
			return false
		}
		set := map[graph.VID]bool{}
		for _, v := range fOut {
			set[v] = true
		}
		for _, v := range pOut {
			if !set[v] {
				return false
			}
		}
		return fq.Len() == pq.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
