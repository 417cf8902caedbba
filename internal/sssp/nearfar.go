package sssp

import (
	"fmt"
	"time"

	"energysssp/internal/flight"
	"energysssp/internal/frontier"
	"energysssp/internal/graph"
	"energysssp/internal/obs"
)

// NearFar implements the Gunrock-style near-far SSSP baseline of Davidson
// et al. with a fixed delta (Section 3 of the paper). Each iteration runs
// the four stages:
//
//  1. advance — relax all outgoing edges of the frontier (atomic-min);
//  2. filter — deduplicate updated vertices through a bitmap;
//  3. bisect-frontier — keep vertices with distance <= (i+1)·delta in the
//     near frontier, push the rest onto the flat far queue;
//  4. bisect-far-queue — when the near frontier drains, advance the phase
//     threshold and extract qualifying far-queue vertices.
//
// Stage 4's structure and schedule depend on Options.FarQueue: the flat
// queue rescans every entry per phase change (the paper baseline); the
// lazy bucketed queue drains the next non-empty buckets at the identical
// threshold schedule; rho (the FarAuto default) subdivides delta into fine
// buckets and extracts batches big enough to keep the workers saturated,
// trading the coarse delta band's redundant relaxations for near-Dijkstra
// ordering. Stale far-queue entries are dropped lazily on every path; the
// livelock guard converts a queue bug into an error rather than a hang.
func NearFar(g *graph.Graph, src graph.VID, delta graph.Dist, opt *Options) (Result, error) {
	if opt == nil {
		opt = &Options{}
	}
	if err := checkSource(g, src); err != nil {
		return Result{}, err
	}
	if delta < 1 {
		return Result{}, fmt.Errorf("sssp: delta must be >= 1, got %d", delta)
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
	kn.Force = opt.Advance
	sc, ownScope := opt.AcquireScope("nearfar")
	if ownScope {
		defer sc.Close()
	}
	kn.Observe(sc)
	defer kn.Release()
	front := append(kn.FrontierBuf(), src)
	thr := delta // the phase-(i+1) boundary (i starts at 0)

	// Far-queue strategy selection. farLazy non-nil selects the bucketed
	// queue (lazy or rho); otherwise the flat baseline queue runs.
	kind := resolveFarQueue(opt.FarQueue, FarRho)
	var farFlat frontier.Flat
	var farLazy *frontier.Lazy
	var width graph.Dist
	var batch int
	switch kind {
	case FarLazy:
		width = delta
		farLazy = frontier.GetLazy(width, thr)
	case FarRho:
		width = rhoWidth(delta)
		batch = rhoBatch(pool.Size())
		farLazy = frontier.GetLazy(width, thr)
	}
	if farLazy != nil {
		defer farLazy.Release()
	}
	sc.SetStrategy(kind.String())
	farLen := func() int {
		if farLazy != nil {
			return farLazy.Len()
		}
		return farFlat.Len()
	}

	pub := NewPublisher(opt, sc, 0)
	if opt.Flight != nil {
		opt.Flight.SetHeader(flight.Header{
			Algorithm:  "nearfar",
			Vertices:   int64(g.NumVertices()),
			Edges:      int64(g.NumEdges()),
			Source:     int64(src),
			FixedDelta: int64(delta),
			FarQueue:   kind.String(),
			FarWidth:   int64(width),
		})
	}
	var fr flight.Record

	var res Result
	guard := opt.maxIters(g)
	tr := kn.Trace()
	spSolve := tr.BeginSolve()
	defer func() { spSolve.End(int64(res.Iterations)) }()
	for len(front) > 0 {
		if res.Iterations++; res.Iterations > guard {
			kn.PutFrontierBuf(front)
			return res, ErrLivelock
		}
		spIter := tr.BeginIter(res.Iterations - 1)
		x1 := len(front)
		adv := kn.Advance(front)
		res.EdgesRelaxed += adv.Edges
		res.Updates += int64(adv.X2)

		// Stage 3: bisect-frontier around the current threshold.
		spB := kn.tr.Begin(obs.PhaseRebalance)
		near, farC := kn.Bisect(adv.Out, thr, front)
		for _, v := range farC {
			if farLazy != nil {
				farLazy.Push(v, dist[v])
			} else {
				farFlat.Push(v, dist[v])
			}
		}
		simB := kn.SimNow()
		durB := kn.ChargeBisect(len(adv.Out))
		spB.EndSim(int64(len(adv.Out)), simB, durB)
		x4 := len(near)
		front = near

		if pub.Active() {
			// Snapshot the phase decision's inputs (X⁴ and the far-queue
			// length are exactly what the stage-4 condition reads) so the
			// fixed-delta threshold schedule can be replayed from the log.
			fr = flight.Record{
				K:  int64(res.Iterations - 1),
				X1: int64(x1), X2: int64(adv.X2), X3: int64(len(adv.Out)), X4: int64(x4),
				FarLen:       int64(farLen()),
				DeltaIn:      float64(thr),
				JumpMin:      -1,
				EdgeBalanced: adv.EdgeBalanced,
			}
		}

		// Stage 4: when the near frontier drains, advance the phase
		// threshold and extract far-queue work.
		if len(front) == 0 && farLen() > 0 {
			spQ := kn.tr.Begin(obs.PhaseRebalance)
			var scanned int
			if kind == FarRho {
				// Rho batch extraction: drain whole buckets until the
				// batch can saturate the workers. The threshold lands on
				// the last drained bucket's boundary; the loop re-runs
				// only when a drain came up all-stale.
				for len(front) == 0 && farLazy.Len() > 0 {
					var s int
					front, s, thr = farLazy.ExtractBatch(batch, dist, front)
					scanned += s
				}
			} else {
				// Flat/lazy: jump to the first delta multiple admitting
				// the queue's minimum and extract. Flat's O(1) MinDist is
				// a lower bound (a stale entry may undershoot), so retry:
				// each failed extraction purges the stale minimum and
				// tightens the next bound, and the telescoped jumps land
				// on the same final threshold as an exact-minimum jump —
				// which is what flight replay recomputes from the last
				// recorded JumpMin. The lazy queue's MinDist is exact, so
				// it takes one pass.
				for len(front) == 0 && farLen() > 0 {
					var minD graph.Dist
					if farLazy != nil {
						minD = farLazy.MinDist(dist)
					} else {
						minD = farFlat.MinDist(dist)
					}
					fr.JumpMin = int64(minD)
					extract := func(t graph.Dist) (int, []graph.VID) {
						if farLazy != nil {
							out, s := farLazy.ExtractBelow(t, dist, front)
							return s, out
						}
						out, s := farFlat.ExtractBelow(t, dist, front)
						return s, out
					}
					var s int
					if minD < graph.Inf {
						if minD > thr {
							steps := (minD - thr + delta - 1) / delta
							thr += steps * delta
						} else {
							thr += delta
						}
						s, front = extract(thr)
					} else {
						// Only stale entries remain: one cleanup scan.
						s, front = extract(graph.Inf)
					}
					scanned += s
				}
			}
			simQ := kn.SimNow()
			durQ := kn.ChargeFarQueue(scanned)
			spQ.EndSim(int64(scanned), simQ, durQ)
		}

		if pub.Active() {
			fr.RawDelta = float64(thr)
			fr.DeltaOut = float64(thr)
			fr.AppliedDelta = float64(thr) - fr.DeltaIn
			fr.FarSize = int64(farLen())
			if opt.Machine != nil {
				fr.SimTimeNs = int64(opt.Machine.Now() - startSim)
				fr.EnergyJ = opt.Machine.Energy() - startJ
			}
			pub.Publish(&fr, adv.Edges)
		}
		spIter.End(int64(adv.X2))
	}
	kn.PutFrontierBuf(front)
	res.Dist = dist
	finishResult(&res, opt, start, startSim, startJ)
	return res, nil
}
