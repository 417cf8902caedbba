package sssp

import (
	"sync/atomic"
	"time"

	"energysssp/internal/graph"
	"energysssp/internal/obs"
	"energysssp/internal/parallel"
	"energysssp/internal/sim"
)

// Strategy selects the advance stage's load-balancing scheme.
type Strategy uint8

const (
	// StrategyAuto picks per iteration between the sequential, the
	// vertex-dynamic and the edge-balanced paths from the frontier's
	// estimated edge count and degree skew.
	StrategyAuto Strategy = iota
	// StrategyVertex always partitions the frontier by vertex count with
	// dynamic chunk scheduling (the classic path; best on small or
	// uniform-degree frontiers such as road networks).
	StrategyVertex
	// StrategyEdge always partitions the frontier's edges equally across
	// workers via a degree prefix sum (merge-path style; best on skewed
	// frontiers where one hub would serialize a vertex chunk).
	StrategyEdge
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case StrategyVertex:
		return "vertex"
	case StrategyEdge:
		return "edge"
	default:
		return "auto"
	}
}

// Advance scheduling parameters. The decision is deterministic in the
// frontier, the graph and the pool size — never in timing — so repeated
// runs take the same path and simulated accounting stays reproducible.
const (
	// advanceGrain is the vertex count per dynamically scheduled chunk on
	// the vertex path. A frontier of at most one chunk always runs on the
	// sequential path.
	advanceGrain = 64
	// seqCutoffEdges is the largest estimated frontier edge count
	// (len(front) × the graph's mean out-degree) that StrategyAuto
	// advances inline on the plain sequential kernel instead of launching
	// the pool. Chosen by a sweep of 0, 2Ki, 4Ki, 8Ki, 16Ki, 32Ki, 64Ki
	// and 1Mi over the road-nearfar, road-selftuning and wiki-selftuning
	// benchmark workloads (bench/, 2 workers on a 2-CPU Xeon VM, go1.24,
	// two seeds, 8 s each): road-nearfar's median solve fell from ~53 ms
	// to ~36 ms from 2Ki on; road-selftuning (P=2500, frontiers of ~7k
	// estimated edges) fell from ~220–260 ms to ~147–151 ms from 8Ki on;
	// wiki-selftuning stayed at 72–88 ms throughout. 16Ki is the plateau
	// with a 2x margin over the P=2500 road frontiers; larger values
	// gained nothing.
	seqCutoffEdges = 16384
	// edgeShareMin is the minimum number of edges per worker for the edge
	// partition to be worth its prefix-sum setup.
	edgeShareMin = 1024
	// skewFactor switches to the edge path when the maximum frontier
	// degree exceeds this multiple of the mean degree — the regime where
	// one hub serializes a 64-vertex chunk while other workers idle.
	skewFactor = 8
	// largeFrontierEdges switches to the edge path regardless of skew once
	// the frontier carries this many edges: at that size the exact static
	// split is as good as dynamic chunking and cheaper to schedule.
	largeFrontierEdges = 1 << 20
)

// advancePath is the host-side schedule one advance runs on.
type advancePath uint8

const (
	// pathSequential runs in the calling goroutine on the plain kernel:
	// ordinary distance loads and stores, no pool launch, no degree scan.
	pathSequential advancePath = iota
	// pathVertex launches the pool on dynamically claimed vertex chunks.
	pathVertex
	// pathEdge launches the pool on equal edge shares over a degree
	// prefix sum.
	pathEdge
)

// Kernels bundles the relaxation machinery shared by the near-far baseline
// and the self-tuning algorithm: the advance stage (edge-parallel
// relaxation with atomic-min, or a plain sequential relax on small
// frontiers) fused with the filter stage (bitmap deduplication), mirroring
// how Gunrock structures the same work on a GPU.
// A Kernels value is bound to one (graph, distance array) pair for the
// duration of a solve; call Release when the solve finishes to return the
// pooled scratch.
type Kernels struct {
	G    *graph.Graph
	Pool *parallel.Pool
	Mach *sim.Machine // nil disables simulation accounting
	Dist []graph.Dist
	// Force pins the advance strategy; StrategyAuto (the zero value)
	// adapts per iteration. Host-side scheduling only: every strategy
	// charges the advance by the same edge count (see AdvanceRange for
	// the X²-charged filter).
	Force Strategy

	sc   *scratch
	scan *parallel.Scan
	// seqMaxFront is the largest frontier StrategyAuto advances on the
	// sequential path: seqCutoffEdges over the graph's mean out-degree.
	seqMaxFront int

	// Observability handles, all nil when no observer is attached. Every
	// one is nil-safe, so the instrumented sites below run unconditionally
	// and the off path is the same code as the on path (which is what makes
	// the obs-on/obs-off sim accounting bit-identical).
	tr          *obs.Tracer
	em          *obs.EnergyMeter
	obsAdvances *obs.Counter
	obsEdges    *obs.Counter
	obsUpdates  *obs.Counter
	obsEdgeBal  *obs.Counter
	obsSeq      *obs.Counter
	obsX2       *obs.Histogram

	// Per-call state published to the prebuilt worker closures. The
	// closures are constructed once in NewKernels and passed by value to
	// Pool.Run so the steady state performs zero allocations per advance.
	front     []graph.VID
	wlo, whi  graph.Weight
	edgeTotal int64
	next      atomic.Int64 // vertex-path dynamic chunk cursor

	degreeOf     func(i int) int64
	vertexWorker func(w int)
	edgeWorker   func(w int)
}

// NewKernels prepares the engine. dist must be the solver's live distance
// array (len == NumVertices), already initialized. The scratch (bitmap,
// buffers, prefix array, counters) comes from a process-wide pool; pair
// every NewKernels with a Release.
func NewKernels(g *graph.Graph, pool *parallel.Pool, mach *sim.Machine, dist []graph.Dist) *Kernels {
	kn := &Kernels{
		G:    g,
		Pool: pool,
		Mach: mach,
		Dist: dist,
		sc:   getScratch(g.NumVertices(), pool.Size()),
		scan: parallel.NewScan(pool),
	}
	kn.seqMaxFront = g.NumVertices()
	if m := g.NumEdges(); m > 0 {
		kn.seqMaxFront = int(seqCutoffEdges * int64(g.NumVertices()) / m)
	}
	kn.degreeOf = func(i int) int64 { return kn.G.OutDegree(kn.front[i]) }
	kn.vertexWorker = func(w int) {
		obs.ApplyPhaseLabel(obs.PhaseAdvance) // worker CPU samples -> advance
		front := kn.front
		n := len(front)
		g := kn.G
		dist := kn.Dist
		wlo, whi := kn.wlo, kn.whi
		seen := kn.sc.seen
		buf := kn.sc.bufs[w]
		var x2, edges int64
		for {
			lo := int(kn.next.Add(advanceGrain)) - advanceGrain
			if lo >= n {
				break
			}
			hi := lo + advanceGrain
			if hi > n {
				hi = n
			}
			for i := lo; i < hi; i++ {
				u := front[i]
				du := atomic.LoadInt64(&dist[u])
				vs, ws := g.Neighbors(u)
				edges += int64(len(vs))
				for j, v := range vs {
					if ws[j] < wlo || ws[j] > whi {
						continue
					}
					nd := du + graph.Dist(ws[j])
					if parallel.MinInt64(&dist[v], nd) {
						x2++
						if seen.TrySet(int(v)) {
							buf = append(buf, v)
						}
					}
				}
			}
		}
		kn.sc.bufs[w] = buf
		kn.sc.counts[w].x2 += x2
		kn.sc.counts[w].edges += edges
	}
	kn.edgeWorker = func(w int) {
		obs.ApplyPhaseLabel(obs.PhaseAdvance) // worker CPU samples -> advance
		elo, ehi := parallel.EdgeShare(kn.edgeTotal, kn.Pool.Size(), w)
		if elo >= ehi {
			return
		}
		front := kn.front
		prefix := kn.sc.prefix[:len(front)+1]
		g := kn.G
		dist := kn.Dist
		wlo, whi := kn.wlo, kn.whi
		seen := kn.sc.seen
		buf := kn.sc.bufs[w]
		var x2 int64
		vi := parallel.SearchPrefix(prefix, elo)
		for e := elo; e < ehi; {
			for prefix[vi+1] <= e {
				vi++ // skip consumed and zero-degree vertices
			}
			u := front[vi]
			du := atomic.LoadInt64(&dist[u])
			vs, ws := g.Neighbors(u)
			segLo := int(e - prefix[vi])
			segHi := len(vs)
			if rem := ehi - e; int64(segHi-segLo) > rem {
				segHi = segLo + int(rem)
			}
			for j := segLo; j < segHi; j++ {
				if ws[j] < wlo || ws[j] > whi {
					continue
				}
				nd := du + graph.Dist(ws[j])
				v := vs[j]
				if parallel.MinInt64(&dist[v], nd) {
					x2++
					if seen.TrySet(int(v)) {
						buf = append(buf, v)
					}
				}
			}
			e += int64(segHi - segLo)
		}
		kn.sc.bufs[w] = buf
		kn.sc.counts[w].x2 += x2
		// Each worker examines exactly its edge share, so the summed
		// Edges equals the frontier's total out-degree — the same count
		// the vertex path reports.
		kn.sc.counts[w].edges += ehi - elo
	}
	return kn
}

// x2Buckets spans the plausible range of per-iteration update counts
// (the paper's X² parallelism signal): powers of four from 1 to 4M.
var x2Buckets = []float64{1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144, 1048576, 4194304}

// Observe attaches a per-solve observability scope: phase spans go to the
// scope's tracer, solver totals to its registry (chained into the fleet
// registry), and kernel energy charges to its energy meter. Call before
// the first Advance. A nil s is a no-op, leaving the kernels
// uninstrumented. All metric updates are host-side only and never touch
// the simulated machine.
func (kn *Kernels) Observe(s *obs.Scope) {
	if s == nil {
		return
	}
	kn.tr = s.Tracer()
	kn.em = s.Energy()
	reg := s.Registry()
	kn.obsAdvances = reg.Counter("sssp_advances_total",
		"advance+filter kernel executions")
	kn.obsEdges = reg.Counter("sssp_edges_relaxed_total",
		"edges examined by advance kernels")
	kn.obsUpdates = reg.Counter("sssp_updates_total",
		"successful distance updates (sum of per-iteration X2)")
	kn.obsEdgeBal = reg.Counter("sssp_edge_balanced_advances_total",
		"advances scheduled on the edge-balanced path")
	kn.obsSeq = reg.Counter("sssp_sequential_advances_total",
		"advances run inline on the sequential path")
	kn.obsX2 = reg.Histogram("sssp_x2_updates",
		"distance updates per advance (the controller's X2 signal)", x2Buckets)
	reg.Counter("sssp_solves_total", "kernel engines constructed (one per solve)").Inc()
	registerScratchMetrics(reg)
	kn.Pool.Observe(s.PoolStats())
}

// SimNow reads the simulated clock without charging it (0 with no machine).
// Solver drivers use it to bracket charge calls when recording spans.
func (kn *Kernels) SimNow() time.Duration {
	if kn.Mach == nil {
		return 0
	}
	return kn.Mach.Now()
}

// Trace returns the attached tracer (nil when unobserved); the returned
// tracer is nil-safe, so drivers call Begin/Mark on it unconditionally.
func (kn *Kernels) Trace() *obs.Tracer { return kn.tr }

// Release returns the pooled scratch. The Kernels value and the Out slice
// of its last AdvanceResult must not be used afterwards.
func (kn *Kernels) Release() {
	if kn.sc != nil {
		putScratch(kn.sc)
		kn.sc = nil
	}
}

// AdvanceResult reports one advance+filter execution.
type AdvanceResult struct {
	// Out is the deduplicated updated frontier (the filter output, X³).
	// The slice is reused across calls; callers must consume it before
	// the next Advance (and before Release).
	Out []graph.VID
	// X2 is the advance output cardinality — the number of successful
	// distance updates including duplicates, the paper's available
	// parallelism metric.
	X2 int
	// Edges is the number of edges examined.
	Edges int64
	// Dur is the simulated duration charged (zero without a machine).
	Dur time.Duration
	// EdgeBalanced reports whether the edge-balanced path ran this
	// advance (false: vertex-dynamic or sequential).
	EdgeBalanced bool
	// Sequential reports whether the advance ran inline on the plain
	// sequential kernel, without a pool launch.
	Sequential bool
}

// Advance executes the advance and filter stages over the given frontier:
// every outgoing edge of every frontier vertex is relaxed with a min
// (atomic on the parallel paths), winners are deduplicated through the
// bitmap, and the simulated machine (if any) is charged an edge-parallel
// advance kernel plus a vertex-parallel filter kernel.
func (kn *Kernels) Advance(front []graph.VID) AdvanceResult {
	return kn.AdvanceRange(front, 1, 1<<31-1)
}

// AdvanceRange is Advance restricted to edges whose weight lies in
// [wlo, whi]. Classic delta-stepping uses it for its light-edge
// (weight <= delta) and heavy-edge (weight > delta) phases.
//
// The frontier is scheduled by one of three host-side paths — inline on
// the plain sequential kernel, vertex-dynamic chunks, or an edge-balanced
// static partition over a degree prefix sum — chosen per Force (adaptively
// under StrategyAuto). All paths examine the same edge set and charge the
// advance by it. The parallel paths relax with atomic-min, so their X²
// (and the filter charge) depends on how the races resolve; the sequential
// path's X² is a pure function of the frontier and the distances.
func (kn *Kernels) AdvanceRange(front []graph.VID, wlo, whi graph.Weight) AdvanceResult {
	nw := kn.Pool.Size()
	sc := kn.sc
	for w := 0; w < nw; w++ {
		sc.bufs[w] = sc.bufs[w][:0]
		sc.counts[w] = counters{}
	}
	kn.front, kn.wlo, kn.whi = front, wlo, whi
	path := kn.planAdvance(len(front))
	kn.next.Store(0)
	obs.ApplyPhaseLabel(obs.PhaseAdvance)
	spAdv := kn.tr.Begin(obs.PhaseAdvance)
	switch path {
	case pathSequential:
		kn.advanceSequential()
	case pathVertex:
		kn.Pool.Run(kn.vertexWorker)
	case pathEdge:
		kn.Pool.Run(kn.edgeWorker)
	}
	kn.front = nil

	res := AdvanceResult{EdgeBalanced: path == pathEdge, Sequential: path == pathSequential}
	for w := 0; w < nw; w++ {
		res.X2 += int(sc.counts[w].x2)
		res.Edges += sc.counts[w].edges
	}
	// Charge order is advance then filter, exactly as before observability:
	// the advance charge closes the advance span, the filter charge closes
	// the filter span (which covers the host-side merge + bitmap clear).
	advSimStart := kn.SimNow()
	if kn.Mach != nil {
		e0 := kn.Mach.Energy()
		res.Dur = kn.Mach.Kernel(sim.KernelAdvance, int(res.Edges))
		kn.em.Charge(obs.PhaseAdvance, e0, kn.Mach.Energy())
		spAdv.Kernel(res.Edges, advSimStart, res.Dur)
	}
	spAdv.EndSim(res.Edges, advSimStart, res.Dur)

	obs.ApplyPhaseLabel(obs.PhaseFilter)
	spFil := kn.tr.Begin(obs.PhaseFilter)
	out := sc.bufs[0]
	for w := 1; w < nw; w++ {
		out = append(out, sc.bufs[w]...)
	}
	sc.bufs[0] = out
	res.Out = out
	// Release the dedup bits for the next iteration; O(|Out|).
	for _, v := range out {
		sc.seen.Clear(int(v))
	}
	filSimStart := kn.SimNow()
	var filDur time.Duration
	if kn.Mach != nil {
		e0 := kn.Mach.Energy()
		filDur = kn.Mach.Kernel(sim.KernelFilter, res.X2)
		kn.em.Charge(obs.PhaseFilter, e0, kn.Mach.Energy())
		res.Dur += filDur
		spFil.Kernel(int64(res.X2), filSimStart, filDur)
	}
	spFil.EndSim(int64(res.X2), filSimStart, filDur)

	kn.obsAdvances.Inc()
	kn.obsEdges.Add(res.Edges)
	kn.obsUpdates.Add(int64(res.X2))
	switch path {
	case pathEdge:
		kn.obsEdgeBal.Inc()
	case pathSequential:
		kn.obsSeq.Inc()
	}
	kn.obsX2.Observe(float64(res.X2))
	return res
}

// advanceSequential relaxes the whole frontier in the calling goroutine.
// Distance loads, compares and stores are plain memory operations and the
// dedup bitmap is set without atomics: no worker goroutine runs during the
// call, and the pool's channel handoff orders it against the parallel
// advances before and after it (each Pool.Run returns only after every
// worker has finished).
func (kn *Kernels) advanceSequential() {
	front := kn.front
	g := kn.G
	dist := kn.Dist
	wlo, whi := kn.wlo, kn.whi
	seen := kn.sc.seen
	buf := kn.sc.bufs[0]
	var x2, edges int64
	for _, u := range front {
		du := dist[u]
		vs, ws := g.Neighbors(u)
		edges += int64(len(vs))
		for j, v := range vs {
			if ws[j] < wlo || ws[j] > whi {
				continue
			}
			if nd := du + graph.Dist(ws[j]); nd < dist[v] {
				dist[v] = nd
				x2++
				if seen.SetPlain(int(v)) {
					buf = append(buf, v)
				}
			}
		}
	}
	kn.sc.bufs[0] = buf
	kn.sc.counts[0].x2 += x2
	kn.sc.counts[0].edges += edges
}

// planAdvance decides the scheduling path for a frontier of n vertices and,
// when the edge path is in play, builds the degree prefix sum (reused by
// the edge workers). The decision depends only on the frontier, the graph,
// and the pool size, so it is deterministic across runs.
//
// A single-worker pool always runs sequentially. Forced StrategyEdge
// otherwise keeps the edge path at every frontier size, and forced
// StrategyVertex the vertex path above one chunk. StrategyAuto runs
// sequentially up to seqMaxFront vertices, a bound that needs no pass over
// the frontier.
func (kn *Kernels) planAdvance(n int) advancePath {
	if kn.Pool.Size() == 1 || n == 0 {
		return pathSequential
	}
	if kn.Force == StrategyEdge {
		obs.ApplyPhaseLabel(obs.PhaseScan)
		sp := kn.tr.Begin(obs.PhaseScan)
		kn.edgeTotal, _ = kn.scan.ExclusiveSum(n, kn.sc.grownPrefix(n), kn.degreeOf)
		sp.End(int64(n))
		if kn.edgeTotal == 0 {
			return pathSequential
		}
		return pathEdge
	}
	if n <= advanceGrain || (kn.Force == StrategyAuto && n <= kn.seqMaxFront) {
		return pathSequential
	}
	if kn.Force == StrategyVertex {
		return pathVertex
	}
	obs.ApplyPhaseLabel(obs.PhaseScan)
	sp := kn.tr.Begin(obs.PhaseScan)
	total, maxDeg := kn.scan.ExclusiveSum(n, kn.sc.grownPrefix(n), kn.degreeOf)
	sp.End(int64(n))
	kn.edgeTotal = total
	if total < int64(kn.Pool.Size())*edgeShareMin {
		return pathVertex
	}
	mean := total / int64(n)
	if mean < 1 {
		mean = 1
	}
	if maxDeg >= skewFactor*mean || total >= largeFrontierEdges {
		return pathEdge
	}
	return pathVertex
}

// ChargeBisect charges the bisect-frontier kernel over items work items,
// attributing the joules to the rebalance phase.
func (kn *Kernels) ChargeBisect(items int) time.Duration {
	if kn.Mach == nil {
		return 0
	}
	e0 := kn.Mach.Energy()
	d := kn.Mach.Kernel(sim.KernelBisect, items)
	kn.em.Charge(obs.PhaseRebalance, e0, kn.Mach.Energy())
	return d
}

// ChargeFarQueue charges the bisect-far-queue / rebalancer kernel over
// items scanned entries, attributing the joules to the rebalance phase.
func (kn *Kernels) ChargeFarQueue(items int) time.Duration {
	if kn.Mach == nil {
		return 0
	}
	e0 := kn.Mach.Energy()
	d := kn.Mach.Kernel(sim.KernelFarQueue, items)
	kn.em.Charge(obs.PhaseRebalance, e0, kn.Mach.Energy())
	return d
}

// ChargeHost charges host (controller) time, attributing the joules to the
// controller phase.
func (kn *Kernels) ChargeHost(d time.Duration) {
	if kn.Mach != nil {
		e0 := kn.Mach.Energy()
		kn.Mach.HostStep(d)
		kn.em.Charge(obs.PhaseController, e0, kn.Mach.Energy())
	}
}
