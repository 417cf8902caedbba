package sssp

import (
	"sync"
	"sync/atomic"

	"energysssp/internal/graph"
)

// counters is one worker's advance reduction slot, padded to a cache line.
type counters struct {
	x2    int64
	edges int64
	_     [6]int64
}

// scratch is the distance-array-sized working memory of one Kernels value:
// the filter's epoch-stamped mark, the per-worker update buffers, the
// filter output, the bisect far-candidate buffer, the solver's frontier
// buffer, and the per-worker counter blocks. Scratch is pooled so batch
// solves (one Kernels per source, internal/sssp.Batch) stop re-allocating
// vertex-sized temporaries on every solve.
//
// Invariant: every mark byte is at most epoch (see Kernels.filter), so a
// scratch needs no cleanup on any exit path and serves graphs of any size.
type scratch struct {
	mark   []uint8
	epoch  uint8
	bufs   [][]graph.VID
	out    []graph.VID // the filter's deduplicated output (AdvanceResult.Out)
	far    []graph.VID // Bisect's far-candidate buffer
	front  []graph.VID // the solver's frontier (frontierBuf/putFrontierBuf)
	counts []counters
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// scratchMarkAllocs counts fresh mark allocations, i.e. scratch cache
// misses for the largest component. Tests use it to prove batch solves
// reuse scratch across sources.
var scratchMarkAllocs atomic.Int64

// getScratch returns a pooled scratch sized for n vertices and the given
// worker count, growing components as needed.
func getScratch(n, workers int) *scratch {
	s := scratchPool.Get().(*scratch)
	if len(s.mark) < n {
		s.mark = make([]uint8, n)
		scratchMarkAllocs.Add(1)
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
