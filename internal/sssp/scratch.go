package sssp

import (
	"sync"
	"sync/atomic"

	"energysssp/internal/bitmap"
	"energysssp/internal/graph"
	"energysssp/internal/obs"
)

// counters is one worker's advance reduction slot, padded to a cache line.
type counters struct {
	x2    int64
	edges int64
	_     [6]int64
}

// scratch is the distance-array-sized working memory of one Kernels value:
// the filter bitmap, the per-worker update buffers, the filter output, the
// bisect far-candidate buffer, the solver's frontier buffer, and the
// per-worker counter blocks. Scratch is pooled so batch solves (one Kernels per source,
// internal/sssp.Batch) stop re-allocating vertex-sized temporaries on
// every solve.
//
// Invariant: a released scratch has an all-clear bitmap. AdvanceRange
// clears every bit it sets before returning, so the invariant holds along
// every solver path, including early livelock-guard exits (those happen
// between Advance calls).
type scratch struct {
	seen   *bitmap.Bitmap
	bufs   [][]graph.VID
	out    []graph.VID // the filter's deduplicated output (AdvanceResult.Out)
	far    []graph.VID // Bisect's far-candidate buffer
	front  []graph.VID // the solver's frontier (FrontierBuf/PutFrontierBuf)
	counts []counters
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// scratchBitmapAllocs counts fresh bitmap allocations, i.e. scratch cache
// misses for the largest component. Tests use it to prove batch solves
// reuse scratch across sources.
var scratchBitmapAllocs atomic.Int64

// scratchGets counts getScratch calls; with scratchBitmapAllocs it yields
// the pool hit rate exposed by registerScratchMetrics.
var scratchGets atomic.Int64

// registerScratchMetrics exposes the scratch pool's process-wide hit rate.
// Idempotent per registry (GaugeFunc replaces the function).
func registerScratchMetrics(r *obs.Registry) {
	r.GaugeFunc("sssp_scratch_gets_total",
		"scratch acquisitions (one per solve)",
		func() float64 { return float64(scratchGets.Load()) })
	r.GaugeFunc("sssp_scratch_misses_total",
		"scratch acquisitions that had to allocate a fresh bitmap",
		func() float64 { return float64(scratchBitmapAllocs.Load()) })
	r.GaugeFunc("sssp_scratch_hit_rate",
		"fraction of scratch acquisitions served fully from the pool",
		func() float64 {
			gets := scratchGets.Load()
			if gets == 0 {
				return 0
			}
			return 1 - float64(scratchBitmapAllocs.Load())/float64(gets)
		})
}

// getScratch returns a pooled scratch sized for n vertices and the given
// worker count, growing components as needed.
func getScratch(n, workers int) *scratch {
	scratchGets.Add(1)
	s := scratchPool.Get().(*scratch)
	if s.seen == nil || s.seen.Len() < n {
		s.seen = bitmap.New(n)
		scratchBitmapAllocs.Add(1)
	}
	if len(s.bufs) < workers {
		bufs := make([][]graph.VID, workers)
		copy(bufs, s.bufs)
		s.bufs = bufs
	}
	if len(s.counts) < workers {
		s.counts = make([]counters, workers)
	}
	return s
}

// putScratch returns s to the pool.
func putScratch(s *scratch) {
	scratchPool.Put(s)
}
