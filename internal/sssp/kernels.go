package sssp

import (
	"slices"
	"sync/atomic"
	"time"

	"energysssp/internal/graph"
	"energysssp/internal/obs"
	"energysssp/internal/parallel"
	"energysssp/internal/sim"
)

// Advance scheduling parameters. The decision is deterministic in the
// frontier, the graph and the pool size — never in timing — so repeated
// runs take the same path and simulated accounting stays reproducible.
const (
	// advanceGrain is the vertex count per dynamically scheduled chunk on
	// the parallel path. A frontier of at most one chunk always runs on the
	// sequential path.
	advanceGrain = 64
	// seqCutoffEdges is the largest estimated frontier edge count
	// (len(front) × the graph's mean out-degree) that the advance runs
	// inline on the plain sequential kernel instead of launching the
	// pool. Chosen by a sweep of 0, 2Ki, 4Ki, 8Ki, 16Ki, 32Ki, 64Ki
	// and 1Mi over the road-nearfar, road-selftuning and wiki-selftuning
	// benchmark workloads (bench/, 2 workers on a 2-CPU Xeon VM, go1.24,
	// two seeds, 8 s each): road-nearfar's median solve fell from ~53 ms
	// to ~36 ms from 2Ki on; road-selftuning (P=2500, frontiers of ~7k
	// estimated edges) fell from ~220–260 ms to ~147–151 ms from 8Ki on;
	// wiki-selftuning stayed at 72–88 ms throughout. 16Ki is the plateau
	// with a 2x margin over the P=2500 road frontiers; larger values
	// gained nothing.
	seqCutoffEdges = 16384
)

// Kernels bundles the relaxation machinery shared by the near-far baseline
// and the self-tuning algorithm: the advance stage (edge-parallel
// relaxation with atomic-min, or a plain sequential relax on small
// frontiers) followed by the filter stage (deduplication through an
// epoch-stamped byte mark after the join), mirroring how Gunrock
// structures the same work on a GPU.
// A Kernels value is bound to one (graph, distance array) pair for the
// duration of a solve; call Release when the solve finishes to return the
// pooled scratch.
type Kernels struct {
	G    *graph.Graph
	Pool *parallel.Pool
	Mach *sim.Machine // nil disables simulation accounting
	Dist []graph.Dist

	sc *scratch
	// seqMaxFront is the largest frontier advanced on the sequential
	// path: seqCutoffEdges over the graph's mean out-degree.
	seqMaxFront int

	// Observability handles, all nil when no observer is attached. Every
	// one is nil-safe, so the instrumented sites below run unconditionally
	// and the off path is the same code as the on path (which is what makes
	// the obs-on/obs-off sim accounting bit-identical).
	tr *obs.Tracer
	em *obs.EnergyMeter
	ps *parallel.PoolStats // attached to Pool by Observe, detached by Release

	// Per-call state published to the prebuilt worker closure. The
	// closure is constructed once in NewKernels and passed by value to
	// Pool.Run so the steady state performs zero allocations per advance.
	front []graph.VID
	next  atomic.Int64 // dynamic chunk cursor of the parallel path

	vertexWorker func(w int)
}

// NewKernels prepares the engine. dist must be the solver's live distance
// array (len == NumVertices), already initialized. The scratch (filter mark,
// buffers, counters) comes from a process-wide pool; pair every NewKernels
// with a Release.
func NewKernels(g *graph.Graph, pool *parallel.Pool, mach *sim.Machine, dist []graph.Dist) *Kernels {
	kn := &Kernels{
		G:    g,
		Pool: pool,
		Mach: mach,
		Dist: dist,
		sc:   getScratch(g.NumVertices(), pool.Size()),
	}
	kn.seqMaxFront = g.NumVertices()
	if m := g.NumEdges(); m > 0 {
		kn.seqMaxFront = int(seqCutoffEdges * int64(g.NumVertices()) / m)
	}
	kn.vertexWorker = func(w int) {
		front := kn.front
		n := len(front)
		g := kn.G
		dist := kn.Dist
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
					nd := du + graph.Dist(ws[j])
					if parallel.MinInt64(&dist[v], nd) {
						x2++
						buf = append(buf, v)
					}
				}
			}
		}
		kn.sc.bufs[w] = buf
		kn.sc.counts[w].x2 += x2
		kn.sc.counts[w].edges += edges
	}
	return kn
}

// Observe attaches a per-solve observability scope: phase spans go to the
// scope's tracer, kernel energy charges to its observer's energy meter,
// and pool launches to the observer's pool stats until Release. Call
// before the first Advance. A nil s is a no-op, leaving the kernels
// uninstrumented. All of it is host-side only and never touches the
// simulated machine.
func (kn *Kernels) Observe(s *obs.Scope) {
	if s == nil {
		return
	}
	o := s.Observer()
	kn.tr = s.Tracer()
	kn.em = o.Energy()
	kn.ps = o.PoolStats()
	kn.Pool.Observe(kn.ps)
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

// Release returns the pooled scratch and detaches the pool stats Observe
// attached, unless another solve has attached its own since. The Kernels
// value and the Out slice of its last AdvanceResult must not be used
// afterwards.
func (kn *Kernels) Release() {
	kn.Pool.Unobserve(kn.ps)
	kn.ps = nil
	if kn.sc != nil {
		putScratch(kn.sc)
		kn.sc = nil
	}
}

// frontierBuf returns the pooled frontier buffer, empty, for the solver
// to grow its frontier in. It does not alias any other buffer of the
// kernels. Hand the grown buffer back with putFrontierBuf before Release.
func (kn *Kernels) frontierBuf() []graph.VID { return kn.sc.front[:0] }

// putFrontierBuf keeps buf as the pooled frontier buffer, so its capacity
// survives Release for the next solve. buf must not be used afterwards.
func (kn *Kernels) putFrontierBuf(buf []graph.VID) { kn.sc.front = buf[:0] }

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
	// Sequential reports whether the advance ran inline on the plain
	// sequential kernel, without a pool launch.
	Sequential bool
}

// Advance executes the advance and filter stages over the given frontier:
// every outgoing edge of every frontier vertex is relaxed with a min
// (atomic on the parallel path), each worker lists its winning updates,
// the filter deduplicates the lists after the join against the scratch's
// epoch-stamped byte mark, and the simulated machine (if any) is charged
// an edge-parallel advance kernel plus a vertex-parallel filter kernel.
//
// The frontier runs on one of two host-side paths — inline on the plain
// sequential kernel, or on the pool over dynamically claimed vertex
// chunks — chosen by sequential. Both paths examine the same edge set and
// charge the advance by it. The parallel path relaxes with atomic-min, so
// its X² (and the filter charge) depends on how the races resolve; the
// sequential path's X² is a pure function of the frontier and the
// distances. On both paths Out holds each vertex whose distance fell exactly once, in
// the order of its first occurrence across the per-worker update lists
// taken in worker order.
func (kn *Kernels) Advance(front []graph.VID) AdvanceResult {
	nw := kn.Pool.Size()
	sc := kn.sc
	for w := 0; w < nw; w++ {
		sc.bufs[w] = sc.bufs[w][:0]
		sc.counts[w] = counters{}
	}
	kn.front = front
	seq := kn.sequential(len(front))
	kn.next.Store(0)
	spAdv := kn.tr.Begin(obs.PhaseAdvance)
	if seq {
		kn.advanceSequential()
	} else {
		kn.Pool.Run(kn.vertexWorker)
	}
	kn.front = nil

	res := AdvanceResult{Sequential: seq}
	for w := 0; w < nw; w++ {
		res.X2 += int(sc.counts[w].x2)
		res.Edges += sc.counts[w].edges
	}
	// Charge order is advance then filter, exactly as before observability:
	// the advance charge closes the advance span, the filter charge closes
	// the filter span (which covers the host-side merge and dedup).
	advSimStart := kn.SimNow()
	if kn.Mach != nil {
		e0 := kn.Mach.Energy()
		res.Dur = kn.Mach.Kernel(sim.KernelAdvance, int(res.Edges))
		kn.em.Charge(obs.PhaseAdvance, e0, kn.Mach.Energy())
	}
	spAdv.EndSim(res.Edges, advSimStart, res.Dur)

	spFil := kn.tr.Begin(obs.PhaseFilter)
	res.Out = kn.filter(nw)
	filSimStart := kn.SimNow()
	var filDur time.Duration
	if kn.Mach != nil {
		e0 := kn.Mach.Energy()
		filDur = kn.Mach.Kernel(sim.KernelFilter, res.X2)
		kn.em.Charge(obs.PhaseFilter, e0, kn.Mach.Energy())
		res.Dur += filDur
	}
	spFil.EndSim(int64(res.X2), filSimStart, filDur)
	return res
}

// filter is the host side of the filter stage, run after the join on every
// path. It walks the per-worker update lists in worker order and keeps the
// first occurrence of each vertex: v is new when mark[v] != epoch, and the
// pass stamps it. Each call takes the next epoch, so every older stamp is
// stale without a clear pass; on the wrap to 0 the mark is cleared once and
// the epoch restarts at 1. Only the calling goroutine touches the mark,
// and Out's order is a function of the update lists alone. Like the
// sequential relax loop, the pass is predicated: each vertex is written to
// the output and the count advances by its novelty. The lists are left
// intact.
func (kn *Kernels) filter(nw int) []graph.VID {
	sc := kn.sc
	total := 0
	for _, b := range sc.bufs[:nw] {
		total += len(b)
	}
	out := slices.Grow(sc.out[:0], total)[:total]
	sc.epoch++
	if sc.epoch == 0 {
		clear(sc.mark)
		sc.epoch = 1
	}
	mark, epoch := sc.mark, sc.epoch
	m := 0
	for _, b := range sc.bufs[:nw] {
		for _, v := range b {
			p := &mark[v]
			out[m] = v
			m += int(b2u(*p != epoch))
			*p = epoch
		}
	}
	out = out[:m]
	sc.out = out
	return out
}

// advanceSequential relaxes the whole frontier in the calling goroutine.
// Distance loads, compares and stores are plain memory operations: no
// worker goroutine runs during the call, and the pool's channel handoff
// orders it against the parallel advances before and after it (each
// Pool.Run returns only after every worker has finished).
//
// The relax loop is predicated rather than branched: about 43% of road
// relaxations succeed, a rate at which a data-dependent branch mispredicts
// constantly. Each edge computes b = nd < dist[v], stores nd through a
// pointer selected by b (dist[v], or a local sink, so a failed relaxation
// dirties no distance line), writes v to the buffer unconditionally and
// advances the count by b. Every edge is a candidate: graph.New and
// Validate reject weights below 1, so no weight test is needed. The buffer
// then holds every update in order, and the filter stage keeps the first
// occurrence of each vertex. Deduplicating after the loop keeps the
// mark's load and store out of the relax loop, where it would chain
// each edge to the previous edge's distance miss. The visit order is that
// of the branching kernel, so X², Edges and the Out order are too.
// Writing unconditionally needs degree(u) spare slots before each frontier
// vertex; the buffer grows amortised and lives in the pooled scratch.
func (kn *Kernels) advanceSequential() {
	front := kn.front
	g := kn.G
	dist := kn.Dist
	buf := kn.sc.bufs[0]
	n0 := len(buf)
	n := n0
	var edges int64
	var sink graph.Dist
	for _, u := range front {
		du := dist[u]
		vs, ws := g.Neighbors(u)
		ws = ws[:len(vs)]
		edges += int64(len(vs))
		if cap(buf)-n < len(vs) {
			buf = slices.Grow(buf[:n], len(vs))
		}
		out := buf[:cap(buf)]
		for j, v := range vs {
			nd := du + graph.Dist(ws[j])
			pd := &dist[v]
			b := b2u(nd < *pd)
			p := &sink
			if b != 0 { // compiled to a conditional move, not a branch
				p = pd
			}
			*p = nd
			out[n] = v
			n += int(b)
		}
	}
	kn.sc.bufs[0] = buf[:n]
	kn.sc.counts[0].x2 += int64(n - n0)
	kn.sc.counts[0].edges += edges
}

// b2u converts a predicate to 0 or 1. The compiler lowers it to a flag
// set (SETcc), not a branch.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// sequential reports whether a frontier of n vertices advances inline on
// the plain kernel rather than on the pool: always for a one-worker pool,
// and otherwise for a frontier of at most one chunk or at most seqMaxFront
// vertices. The bound needs no pass over the frontier, and the decision
// depends only on n, the graph and the pool size, so it is deterministic
// across runs.
func (kn *Kernels) sequential(n int) bool {
	return kn.Pool.Size() == 1 || n <= advanceGrain || n <= kn.seqMaxFront
}

// Bisect is the host side of the bisect-frontier stage. It splits src
// around thr and returns, each in src order, the vertices whose distance is
// at most thr appended to near[:0], and the rest as far candidates for the
// caller to push onto its far queue. near may be src itself, which shrinks
// the frontier in place (each write lands at or behind the read position).
// Any other near must not overlap src. The far slice lives
// in the pooled scratch and is valid until the next Bisect or Release.
//
// Like advanceSequential, the loop is predicated: every vertex is written
// to both buffers and each count advances by its own predicate, so the
// near/far outcome, which varies vertex to vertex, costs no branch.
func (kn *Kernels) Bisect(src []graph.VID, thr graph.Dist, near []graph.VID) (nearOut, far []graph.VID) {
	dist := kn.Dist
	nb := slices.Grow(near[:0], len(src))
	nb = nb[:cap(nb)]
	fb := slices.Grow(kn.sc.far[:0], len(src))
	kn.sc.far = fb
	fb = fb[:cap(fb)]
	nn, nf := 0, 0
	for _, v := range src {
		in := int(b2u(dist[v] <= thr))
		nb[nn] = v
		fb[nf] = v
		nn += in
		nf += in ^ 1
	}
	return nb[:nn], fb[:nf]
}

// chargeBisect charges the bisect-frontier kernel over items work items,
// attributing the joules to the rebalance phase.
func (kn *Kernels) chargeBisect(items int) time.Duration {
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
