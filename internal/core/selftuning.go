package core

import (
	"fmt"
	"math"
	"time"

	"energysssp/internal/flight"
	"energysssp/internal/frontier"
	"energysssp/internal/graph"
	"energysssp/internal/obs"
	"energysssp/internal/parallel"
	"energysssp/internal/sssp"
)

// Config parameterizes the self-tuning solver.
type Config struct {
	// P is the parallelism set-point: the controller steers the available
	// parallelism (X² per iteration) to values at or below P. Required.
	P float64
	// InitialDelta seeds the threshold; 0 selects the graph's average
	// edge weight, the same anchor the paper uses for the first far-queue
	// partition boundary.
	InitialDelta graph.Dist
	// BootstrapIters overrides the Eq. 8 bootstrap window (default 5).
	BootstrapIters int
	// ControllerCost is the host time charged per iteration for the
	// controller's own work (default 2µs, consistent with the paper's
	// measured 50–200µs per second of runtime at tens of thousands of
	// iterations per second).
	ControllerCost time.Duration
	// DisablePartitioning forces a single unbounded far partition; used
	// by the ablation benches to measure what Eq. 7 partitioning buys.
	DisablePartitioning bool
	// Policy overrides the delta policy. Nil selects the paper's
	// Controller at set-point P; ablations and fuzz tests inject
	// alternatives (OneShot, adversarial policies). When a Policy is
	// supplied, P is not required.
	Policy Policy
}

func (c Config) withDefaults(g *graph.Graph) Config {
	if c.InitialDelta <= 0 {
		c.InitialDelta = graph.Dist(math.Max(1, math.Round(g.AvgWeight())))
	}
	if c.BootstrapIters <= 0 {
		c.BootstrapIters = 5
	}
	if c.ControllerCost <= 0 {
		c.ControllerCost = 2 * time.Microsecond
	}
	return c
}

// Solve runs the self-tuning near-far SSSP from src. The returned result's
// distances are exact shortest paths (the controller changes only the visit
// schedule, never the relaxation semantics); the profile in opt, when
// present, records the controlled parallelism trace.
func Solve(g *graph.Graph, src graph.VID, cfg Config, opt *sssp.Options) (sssp.Result, error) {
	if opt == nil {
		opt = &sssp.Options{}
	}
	// NaN compares false against everything, so finiteness is checked
	// explicitly; a non-finite P would reach int64(cfg.P) below.
	if math.IsNaN(cfg.P) || math.IsInf(cfg.P, 0) || (cfg.P < 1 && cfg.Policy == nil) {
		return sssp.Result{}, fmt.Errorf("core: set-point P must be finite and >= 1, got %g", cfg.P)
	}
	if src < 0 || int(src) >= g.NumVertices() {
		return sssp.Result{}, fmt.Errorf("%w: %d not in [0,%d)", sssp.ErrSource, src, g.NumVertices())
	}
	cfg = cfg.withDefaults(g)

	start := time.Now()
	var startSim time.Duration
	var startJ float64
	if opt.Machine != nil {
		startSim, startJ = opt.Machine.Now(), opt.Machine.Energy()
	}

	pool := opt.Pool
	if pool == nil {
		pool = parallel.NewPool(1)
	}
	dist := make([]graph.Dist, g.NumVertices())
	for i := range dist {
		dist[i] = graph.Inf
	}
	dist[src] = 0
	kn := sssp.NewKernels(g, pool, opt.Machine, dist)
	sc, ownScope := opt.AcquireScope("selftuning")
	if ownScope {
		defer sc.Close()
	}
	kn.Observe(sc)
	defer kn.Release()
	sc.SetStrategy("partitioned")
	sc.Live().SetSetPoint(int64(cfg.P))
	tr := kn.Trace() // nil-safe when no observer is attached

	policy := cfg.Policy
	if policy == nil {
		avgDeg := float64(g.NumEdges()) / math.Max(1, float64(g.NumVertices()))
		ctrl := NewController(cfg.P, avgDeg, 1)
		ctrl.BootstrapIters = cfg.BootstrapIters
		policy = ctrl
	}

	far := frontier.GetPartitioned(cfg.InitialDelta)
	defer far.Release()
	thr := float64(cfg.InitialDelta)
	front := append(kn.FrontierBuf(), src)

	// One flight record per iteration feeds every attached sink (none
	// while !pub.Active()). Seed the flight header before the first
	// Observe so replay can reconstruct the identical initial controller.
	// fpol is hoisted out of the loop so the steady state performs no type
	// assertions.
	pub := sssp.NewPublisher(opt, sc, cfg.P)
	var fpol flightRecording
	if fp, ok := policy.(flightRecording); ok {
		fpol = fp
	}
	if opt.Flight != nil {
		fh := flight.Header{
			Algorithm:    "policy",
			Vertices:     int64(g.NumVertices()),
			Edges:        int64(g.NumEdges()),
			Source:       int64(src),
			InitialDelta: float64(cfg.InitialDelta),
		}
		if fpol != nil {
			fh.Algorithm = "selftuning"
			fpol.flightSeed(&fh)
		}
		opt.Flight.SetHeader(fh)
	}
	var fr flight.Record

	var res sssp.Result
	guard := optMaxIters(opt, g)
	spSolve := tr.BeginSolve()
	defer func() { spSolve.End(int64(res.Iterations)) }()

	for len(front) > 0 {
		if res.Iterations++; res.Iterations > guard {
			kn.PutFrontierBuf(front)
			return res, sssp.ErrLivelock
		}
		spIter := tr.BeginIter(res.Iterations - 1)
		x1 := len(front)
		adv := kn.Advance(front)
		res.EdgesRelaxed += adv.Edges
		res.Updates += int64(adv.X2)

		// bisect-frontier: split the filter output around the threshold.
		spB := tr.Begin(obs.PhaseRebalance)
		near, farC := kn.Bisect(adv.Out, distOf(thr), front)
		for _, v := range farC {
			far.Push(v, dist[v])
		}
		simB := kn.SimNow()
		durB := kn.ChargeBisect(len(adv.Out))
		spB.EndSim(int64(len(adv.Out)), simB, durB)
		x4 := len(near)

		// Controller step (host side).
		spC := tr.Begin(obs.PhaseController)
		policy.Observe(x1, adv.X2)
		q := QueueState{X4: x4, Delta: thr, FarLen: far.Len()}
		if pb, ps, ok := firstNonEmptyPartition(far); ok {
			q.PartBound, q.PartSize = pb, ps
		}
		rawThr := policy.NextDelta(q)
		newThr := rawThr
		if newThr < 1 {
			newThr = 1 // defend against hostile policies
		}
		if newThr > float64(graph.Inf) {
			newThr = float64(graph.Inf)
		}
		if pub.Active() {
			// Snapshot the decision inputs and the post-decision model
			// state now, before SetApplied advances the BISECT-MODEL —
			// replay re-executes the same Observe → NextDelta prefix and
			// compares against exactly this checkpoint.
			fr = flight.Record{
				K:  int64(res.Iterations - 1),
				X1: int64(x1), X2: int64(adv.X2), X3: int64(len(adv.Out)), X4: int64(x4),
				FarLen: int64(q.FarLen), PartBound: int64(q.PartBound), PartSize: int64(q.PartSize),
				DeltaIn: thr, RawDelta: rawThr,
				JumpMin: -1,
			}
			if fpol != nil {
				fpol.flightModels(&fr)
			}
		}

		// Rebalancer: realize the new threshold by moving vertices
		// between frontier and far queue.
		front = near
		if newThr > thr {
			front = far.PopBelow(distOf(newThr), dist, front)
		} else if newThr < thr {
			var farC []graph.VID
			front, farC = kn.Bisect(front, distOf(newThr), front)
			for _, v := range farC {
				far.Push(v, dist[v])
			}
		}
		appliedDelta := newThr - thr
		thr = newThr

		// If the frontier drained, jump to the next populated region —
		// the analogue of the baseline's phase advance. The jump is part
		// of the applied Δδ so the BISECT-MODEL sees the true change.
		if len(front) == 0 && far.Len() > 0 {
			minD := far.MinDist(dist)
			fr.JumpMin = int64(minD)
			if minD < graph.Inf {
				if float64(minD) > thr {
					appliedDelta += float64(minD) - thr
					thr = float64(minD)
				}
				front = far.PopBelow(distOf(thr), dist, front)
			} else {
				// Stale-only content: one cleanup scan empties it.
				front = far.PopBelow(graph.Inf, dist, front)
			}
		}
		policy.SetApplied(appliedDelta, float64(x4))
		if bm, ok := policy.(boundaryMaintainer); ok && !cfg.DisablePartitioning {
			bm.MaintainBoundaries(far, thr)
		}
		scanned := far.ScannedAndReset()
		simQ := kn.SimNow()
		durQ := kn.ChargeFarQueue(scanned)
		tr.Mark(obs.PhaseRebalance, int64(scanned), simQ, durQ)
		simH := kn.SimNow()
		kn.ChargeHost(cfg.ControllerCost)
		spC.EndSim(int64(adv.X2), simH, kn.SimNow()-simH)

		if pub.Active() {
			fr.DeltaOut = thr
			fr.AppliedDelta = appliedDelta
			fr.FarSize = int64(far.Len())
			fr.NumParts = int64(far.NumPartitions())
			nb := 0
			for i := 0; i < far.NumPartitions() && nb < flight.MaxBounds; i++ {
				if b := far.Bound(i); b < graph.Inf {
					fr.Bounds[nb] = int64(b)
					nb++
				}
			}
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
	res.WallTime = time.Since(start)
	res.Reached = 0
	for _, d := range dist {
		if d < graph.Inf {
			res.Reached++
		}
	}
	if opt.Machine != nil {
		res.SimTime = opt.Machine.Now() - startSim
		res.EnergyJ = opt.Machine.Energy() - startJ
		if res.SimTime > 0 {
			res.AvgPowerW = res.EnergyJ / res.SimTime.Seconds()
		}
	}
	return res, nil
}

// ControllerOverhead reports the wall-clock controller cost of a run, for
// the Section 5.2 overhead experiment.
type ControllerOverhead struct {
	ControllerTime time.Duration
	TotalTime      time.Duration
}

// SolveInstrumented runs Solve and reports two wall-clock times: the
// whole solve (TotalTime) and a synthetic controller replay
// (ControllerTime). The replay drives a fresh Controller through one
// Observe → NextDelta step per iteration of the solve, on generated
// inputs rather than the solve's own, so it measures what the controller's
// arithmetic costs at that iteration count, not the time the solve spent
// in its controller phase.
func SolveInstrumented(g *graph.Graph, src graph.VID, cfg Config, opt *sssp.Options) (sssp.Result, ControllerOverhead, error) {
	start := time.Now()
	res, err := Solve(g, src, cfg, opt)
	total := time.Since(start)
	if err != nil {
		return res, ControllerOverhead{}, err
	}
	ov := ControllerOverhead{TotalTime: total}
	iters := res.Iterations
	ctrl := NewController(cfg.P, 8, 1)
	replayStart := time.Now()
	for k := 0; k < iters; k++ {
		ctrl.Observe(k%1000+1, (k%1000+1)*8)
		_ = ctrl.NextDelta(QueueState{X4: k % 1000, Delta: float64(k%4096 + 1), PartBound: graph.Dist(k%8192 + 2048), PartSize: k % 512})
	}
	ov.ControllerTime = time.Since(replayStart)
	return res, ov, nil
}

func distOf(x float64) graph.Dist {
	if x >= float64(graph.Inf) {
		return graph.Inf
	}
	if x < 1 {
		return 1
	}
	return graph.Dist(x)
}

func firstNonEmptyPartition(q *frontier.Partitioned) (graph.Dist, int, bool) {
	for i := 0; i < q.NumPartitions(); i++ {
		if s := q.PartSize(i); s > 0 {
			return q.Bound(i), s, true
		}
	}
	return 0, 0, false
}

func optMaxIters(opt *sssp.Options, g *graph.Graph) int {
	if opt.MaxIters > 0 {
		return opt.MaxIters
	}
	return 64*(g.NumVertices()+int(g.NumEdges())) + 1_000_000
}
