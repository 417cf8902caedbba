package sssp

import (
	"fmt"
	"sync"

	"energysssp/internal/graph"
	"energysssp/internal/parallel"
)

// BatchResult is one source's outcome within a batch solve.
type BatchResult struct {
	Source graph.VID
	Result Result
	Err    error
}

// Batch runs one solver function over many sources concurrently (one solve
// per source, sources processed `width` at a time). Each solve receives its
// own single-threaded options — batch-level parallelism replaces
// kernel-level parallelism, which is the right shape when many queries
// amortize better than one wide query (e.g. building distance oracles).
// The machine and profile fields of opt are not propagated (they are not
// safe to share); pass nil opt or a pool-less Options.
func Batch(g *graph.Graph, sources []graph.VID, width int,
	solve func(g *graph.Graph, src graph.VID, opt *Options) (Result, error)) []BatchResult {
	if width <= 0 {
		width = parallel.MaxWorkers()
	}
	out := make([]BatchResult, len(sources))
	var wg sync.WaitGroup
	sem := make(chan struct{}, width)
	for i, src := range sources {
		// Acquire the width slot before spawning so at most `width`
		// goroutines exist at a time; launching first and blocking inside
		// would spawn one goroutine per source up front (a 100k-source
		// batch would create 100k goroutines before any finished).
		sem <- struct{}{}
		wg.Add(1)
		go func(i int, src graph.VID) {
			defer wg.Done()
			defer func() { <-sem }()
			res, err := solve(g, src, &Options{})
			out[i] = BatchResult{Source: src, Result: res, Err: err}
		}(i, src)
	}
	wg.Wait()
	return out
}

// BatchDijkstra is Batch specialized to the Dijkstra oracle.
func BatchDijkstra(g *graph.Graph, sources []graph.VID, width int) []BatchResult {
	return Batch(g, sources, width, Dijkstra)
}

// BatchNearFar is Batch specialized to the near-far baseline at one delta.
func BatchNearFar(g *graph.Graph, sources []graph.VID, delta graph.Dist, width int) []BatchResult {
	return Batch(g, sources, width, func(g *graph.Graph, src graph.VID, opt *Options) (Result, error) {
		return NearFar(g, src, delta, opt)
	})
}

// FirstError returns the first error in a batch, annotated with its source.
func FirstError(batch []BatchResult) error {
	for _, b := range batch {
		if b.Err != nil {
			return fmt.Errorf("sssp: source %d: %w", b.Source, b.Err)
		}
	}
	return nil
}
