package sssp

import (
	"fmt"
	"time"

	"energysssp/internal/frontier"
	"energysssp/internal/graph"
)

// DeltaStepping implements the classic Meyer–Sanders algorithm: vertices
// live in buckets of width delta; bucket i is drained by repeated light-edge
// (weight <= delta) relaxations, then the heavy edges of everything settled
// in the bucket are relaxed once. It is included both as a baseline and to
// document where the near-far variant diverges (near-far folds the
// light/heavy distinction into its two queues).
//
// Options.FarQueue selects the bucket store. FarFlat keeps the textbook
// ad-hoc bucket array; the default (FarAuto, and FarRho too) stores
// vertices in the pooled lazy bucketed queue and applies bucket
// fusion: consecutive small buckets are drained together into one
// relaxation round (up to fuseBatchTarget vertices), collapsing the
// per-bucket barriers that dominate sparse bucket tails. Fused rounds
// repeat light+heavy relaxation until the fused distance range is empty —
// a heavy edge inside a wide fused range can resettle an earlier bucket,
// which single-bucket delta-stepping never sees. Distances are exact
// either way, and both paths charge the simulated far-queue kernel per
// scanned bucket entry.
func DeltaStepping(g *graph.Graph, src graph.VID, delta graph.Dist, opt *Options) (Result, error) {
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
	sc, ownScope := opt.AcquireScope("deltastep")
	if ownScope {
		defer sc.Close()
	}
	kn.Observe(sc)
	defer kn.Release()

	lightMax := graph.Weight(delta)
	if delta > int64(1<<31-2) {
		lightMax = 1<<31 - 1
	}

	var res Result
	guard := opt.maxIters(g)
	spSolve := kn.Trace().BeginSolve()
	defer func() { spSolve.End(int64(res.Iterations)) }()
	fused := opt.FarQueue != FarFlat
	if fused {
		sc.SetStrategy("fused")
	} else {
		sc.SetStrategy("flat")
	}
	if fused {
		if err := deltaStepFused(src, delta, lightMax, opt, kn, dist, guard, &res); err != nil {
			return res, err
		}
		res.Dist = dist
		finishResult(&res, opt, start, startSim, startJ)
		return res, nil
	}

	type entry struct {
		v graph.VID
		d graph.Dist
	}
	var buckets [][]entry
	put := func(v graph.VID, d graph.Dist) {
		i := int(d / delta)
		for i >= len(buckets) {
			buckets = append(buckets, nil)
		}
		buckets[i] = append(buckets[i], entry{v, d})
	}
	put(src, 0)
	var settled []graph.VID // fresh vertices settled in the current bucket
	var front []graph.VID
	for i := 0; i < len(buckets); i++ {
		if len(buckets[i]) == 0 {
			continue
		}
		settled = settled[:0]
		// Light-edge phase: drain bucket i to a fixed point.
		for len(buckets[i]) > 0 {
			if res.Iterations++; res.Iterations > guard {
				return res, ErrLivelock
			}
			cur := buckets[i]
			buckets[i] = nil
			front = front[:0]
			for _, e := range cur {
				if dist[e.v] == e.d { // fresh
					front = append(front, e.v)
					settled = append(settled, e.v)
				}
			}
			// Bucket scan is the analogue of the far-queue kernel.
			kn.ChargeFarQueue(len(cur))
			if len(front) == 0 {
				continue
			}
			adv := kn.AdvanceRange(front, 1, lightMax)
			res.EdgesRelaxed += adv.Edges
			res.Updates += int64(adv.X2)
			for _, v := range adv.Out {
				put(v, dist[v])
			}
		}
		// Heavy-edge phase over everything settled in this bucket.
		if len(settled) > 0 && lightMax < 1<<31-1 {
			adv := kn.AdvanceRange(settled, lightMax+1, 1<<31-1)
			res.EdgesRelaxed += adv.Edges
			res.Updates += int64(adv.X2)
			for _, v := range adv.Out {
				put(v, dist[v])
			}
		}
	}
	res.Dist = dist
	finishResult(&res, opt, start, startSim, startJ)
	return res, nil
}

// deltaStepFused is the lazy-queue bucket-fusion path of DeltaStepping.
// Each outer round extracts whole buckets until the fused batch reaches
// fuseBatchTarget vertices; B, the last drained bucket's boundary, bounds
// the fused distance range. The round then alternates light-edge fixed
// points and one heavy-edge pass over the newly settled vertices until no
// relaxation lands back inside (.., B] — outputs beyond B go back to the
// queue, which never receives an entry below its drained boundary.
func deltaStepFused(src graph.VID, delta graph.Dist, lightMax graph.Weight,
	opt *Options, kn *Kernels, dist []graph.Dist, guard int, res *Result) error {
	q := frontier.GetLazy(delta, 0)
	defer q.Release()
	q.Push(src, 0)

	var front, settled []graph.VID
	for q.Len() > 0 {
		front = front[:0]
		var scanned int
		var bound graph.Dist
		front, scanned, bound = q.ExtractBatch(fuseBatchTarget, dist, front)
		// Bucket scan is the analogue of the far-queue kernel.
		kn.ChargeFarQueue(scanned)
		if len(front) == 0 {
			continue // the batch was all stale
		}
		settled = settled[:0]
		heavyFrom := 0
		for len(front) > 0 {
			// Light-edge fixed point within the fused range.
			for len(front) > 0 {
				if res.Iterations++; res.Iterations > guard {
					return ErrLivelock
				}
				settled = append(settled, front...)
				adv := kn.AdvanceRange(front, 1, lightMax)
				res.EdgesRelaxed += adv.Edges
				res.Updates += int64(adv.X2)
				front = front[:0]
				for _, v := range adv.Out {
					if dist[v] <= bound {
						front = append(front, v)
					} else {
						q.Push(v, dist[v])
					}
				}
			}
			// One heavy-edge pass over the vertices settled since the last
			// pass. A heavy edge can resettle a vertex inside the fused
			// range; those re-enter front (and hence settled) so their own
			// heavy edges are re-relaxed at the improved distance.
			if lightMax >= 1<<31-1 || heavyFrom == len(settled) {
				break
			}
			adv := kn.AdvanceRange(settled[heavyFrom:], lightMax+1, 1<<31-1)
			heavyFrom = len(settled)
			res.EdgesRelaxed += adv.Edges
			res.Updates += int64(adv.X2)
			for _, v := range adv.Out {
				if dist[v] <= bound {
					front = append(front, v)
				} else {
					q.Push(v, dist[v])
				}
			}
		}
	}
	return nil
}
