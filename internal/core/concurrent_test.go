package core

import (
	"fmt"
	"sync"
	"testing"

	"energysssp/internal/gen"
	"energysssp/internal/graph"
	"energysssp/internal/obs"
	"energysssp/internal/parallel"
	"energysssp/internal/sssp"
)

// TestConcurrentSelfTuningSharedGraph runs eight self-tuning solvers at
// once on one shared scale-free graph, each on its own two-worker pool,
// each solving two sources from the giant component back to back, and checks every result against
// Dijkstra. Concurrent solves share the graph (and its cached mean
// weight) and draw far queues, frontier buffers and kernel scratch from
// the same pools, so under -race (scripts/check.sh) this covers the
// handoffs between them. The large set-points let frontiers outgrow the
// sequential cutoff, so the parallel advance path runs too.
func TestConcurrentSelfTuningSharedGraph(t *testing.T) {
	g := gen.WikiLike(0.01, 42)
	const goroutines = 8
	// Sources inside the giant component, so every solve does real work.
	var sources []graph.VID
	var want [][]graph.Dist
	for v := 0; len(sources) < 2*goroutines; v += 997 {
		src := graph.VID(v % g.NumVertices())
		res, err := sssp.Dijkstra(g, src, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Reached >= g.NumVertices()/4 {
			sources = append(sources, src)
			want = append(want, res.Dist)
		}
	}
	errs := make([]error, goroutines)
	parallelAdv := make([]int64, goroutines)
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pool := parallel.NewPool(2)
			defer pool.Close()
			sc := obs.New(0).NewScope("selftuning")
			defer sc.Close()
			defer func() { parallelAdv[w] = parallelAdvances(sc) }()
			p := []float64{500, 20000}[w%2]
			for _, i := range []int{2 * w, 2*w + 1} {
				res, err := Solve(g, sources[i], Config{P: p}, &sssp.Options{Pool: pool, Scope: sc})
				if err != nil {
					errs[w] = err
					return
				}
				for v, d := range want[i] {
					if res.Dist[v] != d {
						errs[w] = fmt.Errorf("source %d P=%g: dist[%d] = %d, want %d", sources[i], p, v, res.Dist[v], d)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	var total int64
	for w, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", w, err)
		}
		total += parallelAdv[w]
	}
	if total == 0 {
		t.Error("no solve ran a parallel advance")
	}
}

// parallelAdvances counts the advances of a scope's solves that ran on the
// pool rather than inline on the sequential kernel.
func parallelAdvances(sc *obs.Scope) int64 {
	adv, _ := sc.Registry().Value("sssp_advances_total")
	seq, _ := sc.Registry().Value("sssp_sequential_advances_total")
	return int64(adv - seq)
}
