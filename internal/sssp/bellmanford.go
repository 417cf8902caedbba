package sssp

import (
	"time"

	"energysssp/internal/graph"
)

// BellmanFord computes SSSP by frontier-parallel label correcting with no
// prioritization at all: every updated vertex is re-expanded in the next
// round. It is the delta→∞ limiting case of the near-far family and the
// maximum-parallelism / maximum-redundant-work baseline.
func BellmanFord(g *graph.Graph, src graph.VID, opt *Options) (Result, error) {
	if opt == nil {
		opt = &Options{}
	}
	if err := checkSource(g, src); err != nil {
		return Result{}, err
	}
	start := time.Now()
	var startSim time.Duration
	var startJ float64
	if opt.Machine != nil {
		startSim, startJ = opt.Machine.Now(), opt.Machine.Energy()
	}

	pool := opt.pool()
	dist := newDist(g.NumVertices(), src)
	kn := NewKernels(g, pool, opt.Machine, dist)
	sc, ownScope := opt.AcquireScope("bellmanford")
	if ownScope {
		defer sc.Close()
	}
	kn.Observe(sc)
	defer kn.Release()
	front := []graph.VID{src}
	var res Result
	guard := opt.maxIters(g)
	tr := kn.Trace()
	spSolve := tr.BeginSolve()
	defer func() { spSolve.End(int64(res.Iterations)) }()
	for len(front) > 0 {
		if res.Iterations++; res.Iterations > guard {
			return res, ErrLivelock
		}
		spIter := tr.BeginIter(res.Iterations - 1)
		adv := kn.Advance(front)
		res.EdgesRelaxed += adv.Edges
		res.Updates += int64(adv.X2)
		front = append(front[:0], adv.Out...)
		sc.Live().Iteration(int64(res.Iterations-1), int64(len(front)), 0,
			int64(adv.X2), 0, int64(kn.SimNow()-startSim))
		spIter.End(int64(adv.X2))
	}
	res.Dist = dist
	finishResult(&res, opt, start, startSim, startJ)
	return res, nil
}
