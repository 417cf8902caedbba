package sssp

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"energysssp/internal/gen"
	"energysssp/internal/graph"
)

// fanOutNearFar solves NearFar at delta from every source on width
// goroutines that claim sources from a shared cursor, each solve
// single-threaded: the shape of concurrent clients calling the solver
// back to back. Results come back in source order with every error joined.
func fanOutNearFar(g *graph.Graph, sources []graph.VID, delta graph.Dist, width int) ([]Result, error) {
	out := make([]Result, len(sources))
	errs := make([]error, len(sources))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < width; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(len(sources)); i = next.Add(1) - 1 {
				out[i], errs[i] = NearFar(g, sources[i], delta, nil)
			}
		}()
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

func TestBatchNearFarMatchesOracle(t *testing.T) {
	g := gen.Road(12, 12, 0.25, 1, 200, 4)
	for _, src := range []graph.VID{0, 50, 100, 143} {
		nf, err := NearFar(g, src, 77, nil)
		if err != nil {
			t.Fatal(err)
		}
		dj, err := Dijkstra(g, src, nil)
		if err != nil {
			t.Fatal(err)
		}
		for v := range nf.Dist {
			if nf.Dist[v] != dj.Dist[v] {
				t.Fatalf("source %d vertex %d mismatch", src, v)
			}
		}
	}
}

// TestBatchConcurrentStress hammers concurrent solves under the race
// detector: two fan-outs execute concurrently over the same shared graph
// (reads must be race-free), each spreading dozens of sources across
// solver goroutines, and every per-source result is checked against the
// sequential Dijkstra oracle. Run via `go test -race` (scripts/check.sh
// does). Skipped under -short.
func TestBatchConcurrentStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test; skipped under -short")
	}
	g := gen.RMAT(11, 8, 0.57, 0.19, 0.19, 1, 99, 21)
	n := g.NumVertices()
	sources := make([]graph.VID, 0, 48)
	for i := 0; i < 48; i++ {
		sources = append(sources, graph.VID(i*(n-1)/47))
	}

	oracle := make(map[graph.VID][]graph.Dist, len(sources))
	for _, src := range sources {
		res, err := Dijkstra(g, src, &Options{})
		if err != nil {
			t.Fatal(err)
		}
		oracle[src] = res.Dist
	}

	check := func(t *testing.T, delta graph.Dist) {
		t.Helper()
		results, err := fanOutNearFar(g, sources, delta, 8)
		if err != nil {
			t.Error(err)
			return
		}
		for i, res := range results {
			want := oracle[sources[i]]
			for v, d := range res.Dist {
				if d != want[v] {
					t.Errorf("delta %d source %d vertex %d: dist %d, want %d", delta, sources[i], v, d, want[v])
					return
				}
			}
		}
	}

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		check(t, 8)
	}()
	go func() {
		defer wg.Done()
		check(t, 64)
	}()
	wg.Wait()
}
