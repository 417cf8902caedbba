package core

import (
	"fmt"
	"math"
	"time"

	"energysssp/internal/flight"
	"energysssp/internal/frontier"
	"energysssp/internal/graph"
	"energysssp/internal/obs"
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

// Solve runs the self-tuning near-far SSSP from src: sssp.Drive's loop with
// the controlled schedule, in which cfg.Policy (the paper's Controller at
// set-point P when nil) picks each iteration's threshold and the rebalancer
// realizes it over the partitioned far queue. The returned result's
// distances are exact shortest paths (the controller changes only the visit
// schedule, never the relaxation semantics); the profile in opt, when
// present, records the controlled parallelism trace.
func Solve(g *graph.Graph, src graph.VID, cfg Config, opt *sssp.Options) (sssp.Result, error) {
	// NaN compares false against everything, so finiteness is checked
	// explicitly.
	if math.IsNaN(cfg.P) || math.IsInf(cfg.P, 0) || (cfg.P < 1 && cfg.Policy == nil) {
		return sssp.Result{}, fmt.Errorf("core: set-point P must be finite and >= 1, got %g", cfg.P)
	}
	cfg = cfg.withDefaults(g)
	if cfg.Policy == nil {
		cfg.Policy = newController(g, cfg)
	}
	s := newControlled(cfg)
	defer s.far.Release()
	return sssp.Drive(g, src, "selftuning", s, opt)
}

// newController builds the paper's Controller for cfg (defaults applied).
func newController(g *graph.Graph, cfg Config) *Controller {
	avgDeg := float64(g.NumEdges()) / math.Max(1, float64(g.NumVertices()))
	ctrl := NewController(cfg.P, avgDeg, 1)
	ctrl.BootstrapIters = cfg.BootstrapIters
	return ctrl
}

// controlled is the self-tuning solver's sssp.Schedule: the paper's
// replacement for the baseline's bisect-far-queue stage. After each bisect
// the policy picks the next threshold (Eq. 6) and the rebalancer moves
// vertices between the frontier and the partitioned far queue to realize
// it, keeping the queue's partition boundaries (Eq. 7) when the policy
// maintains them.
type controlled struct {
	cfg Config
	// fpol checkpoints the policy into flight records (nil when the
	// policy's decisions are not replayable); bm maintains the far queue's
	// boundaries (nil when the policy keeps none or partitioning is off).
	// Both are resolved once, so the steady state makes no type assertion.
	fpol flightRecording
	bm   boundaryMaintainer

	kn  *sssp.Kernels
	far *frontier.Partitioned
	thr float64
	// hdr is filled in Start; as a field of the already-allocated schedule
	// it costs no allocation when the seed call through fpol makes it
	// escape.
	hdr flight.Header
}

func newControlled(cfg Config) *controlled {
	s := &controlled{cfg: cfg, far: frontier.GetPartitioned(cfg.InitialDelta), thr: float64(cfg.InitialDelta)}
	s.fpol, _ = cfg.Policy.(flightRecording)
	if !cfg.DisablePartitioning {
		s.bm, _ = cfg.Policy.(boundaryMaintainer)
	}
	return s
}

// Start seeds the flight header before the first Observe, so replay can
// reconstruct the identical initial controller, and lets the far queue
// run its large scans on the solve's pool.
func (s *controlled) Start(kn *sssp.Kernels) (graph.Dist, flight.Header) {
	s.kn = kn
	s.far.UsePool(kn.Pool)
	s.hdr = flight.Header{Algorithm: "policy", InitialDelta: s.thr}
	if s.fpol != nil {
		s.hdr.Algorithm = "selftuning"
		s.fpol.flightSeed(&s.hdr)
	}
	return s.cfg.InitialDelta, s.hdr
}

// Defer pushes the bisect's far side onto the partitioned far queue.
func (s *controlled) Defer(far []frontier.Entry) { s.far.Push(far) }

// Next runs the controller step under the controller span, then realizes
// the chosen threshold under one rebalance span, which charges the
// far-queue scans. The controller's host time is charged after them and
// marked to the controller phase: the machine sums energy in floating
// point, so the charge order is part of every simulated figure.
func (s *controlled) Next(near []graph.VID, x1, x2 int, rec *flight.Record) ([]graph.VID, graph.Dist) {
	kn, far, dist := s.kn, s.far, s.kn.Dist
	tr := kn.Trace() // nil-safe when no observer is attached
	thr := s.thr
	x4 := len(near)

	spC := tr.Begin(obs.PhaseController)
	s.cfg.Policy.Observe(x1, x2)
	q := QueueState{X4: x4, Delta: thr, FarLen: far.Len()}
	if pb, ps, ok := firstNonEmptyPartition(far); ok {
		q.PartBound, q.PartSize = pb, ps
	}
	rawThr := s.cfg.Policy.NextDelta(q)
	newThr := rawThr
	if !(newThr >= 1) {
		newThr = 1 // defend against hostile policies, NaN included
	}
	if newThr > float64(graph.Inf) {
		newThr = float64(graph.Inf)
	}
	if rec != nil {
		// Snapshot the decision inputs and the post-decision model
		// state now, before SetApplied advances the BISECT-MODEL —
		// replay re-executes the same Observe → NextDelta prefix and
		// compares against exactly this checkpoint.
		rec.FarLen, rec.PartBound, rec.PartSize = int64(q.FarLen), int64(q.PartBound), int64(q.PartSize)
		rec.DeltaIn, rec.RawDelta = thr, rawThr
		if s.fpol != nil {
			s.fpol.flightModels(rec)
		}
	}
	spC.End(int64(x2))

	// Rebalancer: realize the new threshold by moving vertices
	// between frontier and far queue.
	spR := tr.Begin(obs.PhaseRebalance)
	front := near
	if newThr > thr {
		front = far.PopBelow(distOf(newThr), dist, front)
	} else if newThr < thr {
		var farC []frontier.Entry
		front, farC = kn.Bisect(front, distOf(newThr), front)
		s.Defer(farC)
	}
	appliedDelta := newThr - thr
	thr = newThr

	// If the frontier drained, jump to the next populated region —
	// the analogue of the baseline's phase advance. The jump is part
	// of the applied Δδ so the BISECT-MODEL sees the true change.
	if len(front) == 0 && far.Len() > 0 {
		minD := far.MinDist(dist)
		if rec != nil {
			rec.JumpMin = int64(minD)
		}
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
	s.cfg.Policy.SetApplied(appliedDelta, float64(x4))
	if s.bm != nil {
		s.bm.MaintainBoundaries(far, thr)
	}
	scanned := far.ScannedAndReset()
	simQ := kn.SimNow()
	spR.EndSim(int64(scanned), simQ, kn.ChargeFarQueue(scanned))
	simH := kn.SimNow()
	kn.ChargeHost(s.cfg.ControllerCost)
	tr.Mark(obs.PhaseController, 0, simH, kn.SimNow()-simH)

	if rec != nil {
		rec.DeltaOut = thr
		rec.AppliedDelta = appliedDelta
		rec.FarSize = int64(far.Len())
		rec.NumParts = int64(far.NumPartitions())
		nb := 0
		for i := 0; i < far.NumPartitions() && nb < flight.MaxBounds; i++ {
			if b := far.Bound(i); b < graph.Inf {
				rec.Bounds[nb] = int64(b)
				nb++
			}
		}
	}
	s.thr = thr
	return front, distOf(thr)
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
