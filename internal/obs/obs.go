// Package obs is a stdlib-only runtime observability plane for the solver:
// a hierarchical span tracer (solve → iteration → phase → kernel) backed by
// pooled fixed-size span slabs, one span tracer per solve (a Scope) under a
// process-level Observer that owns the atomic metric registry with its
// Prometheus text exporter and the energy-attribution meter folding the
// simulated machine's charges into per-phase joule counters, an HTTP
// server, and a Perfetto/Chrome trace-event JSON exporter.
//
// Two invariants shape every API here:
//
//   - Host-side only. Instrumentation reads the simulated machine clock and
//     energy but never charges them; enabling observability must leave
//     simulated time and energy bit-identical (the same invariant the
//     advance keeps between its sequential and parallel paths).
//   - Zero allocations in steady state. Every span, energy charge, gauge
//     set and histogram observation after setup is atomic arithmetic plus
//     writes into preallocated (or pool-recycled slab) storage, so the
//     advance's "0 allocs/op" guarantee survives with observability
//     enabled (gated by TestObsSteadyStateAllocs and
//     TestSpanSteadyStateAllocs).
//
// Everything is nil-safe: a nil *Tracer, *Scope, *Registry, *Gauge,
// *Histogram, or *EnergyMeter is a no-op, so instrumented call
// sites need no "if enabled" branches and the off path stays identical to
// the on path.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Phase identifies which solver phase a span or event belongs to. The
// first four phases mirror the per-iteration structure of the near-far /
// self-tuning loop: relax edges, compact the frontier, split near/far, and
// update the controller model. PhaseScan is kept so phase-indexed reports
// keep their layout; no solver records it since the edge-balanced advance
// and its prefix sum were removed.
type Phase uint8

const (
	PhaseAdvance    Phase = iota // edge relaxation kernel
	PhaseFilter                  // frontier merge + dedup + filter charge
	PhaseRebalance               // near/far bisection, far-queue pushes and extraction, boundary maintenance
	PhaseController              // model update and delta selection
	PhaseScan                    // unused: was the edge-balanced advance's prefix sum
	numPhases
)

// NumPhases is the number of distinct span phases.
const NumPhases = int(numPhases)

func (p Phase) String() string {
	switch p {
	case PhaseAdvance:
		return "advance"
	case PhaseFilter:
		return "filter"
	case PhaseRebalance:
		return "rebalance"
	case PhaseController:
		return "controller"
	case PhaseScan:
		return "scan"
	}
	return "unknown"
}

// SpanKind is the level of a span in the solve hierarchy.
type SpanKind uint8

const (
	// SpanSolve covers one whole solver run (one per Scope in the normal
	// per-solve-scope wiring).
	SpanSolve SpanKind = iota
	// SpanIter covers one solver iteration; parent is the solve span.
	SpanIter
	// SpanPhase covers one phase execution (advance, filter, ...);
	// parent is the enclosing iteration span (or the solve span for
	// phases outside the iteration loop).
	SpanPhase
	// SpanKernel marks one simulated-machine charge inside a phase span:
	// an instantaneous host-side record carrying the charged simulated
	// interval. Parent is the phase span that bracketed the charge.
	SpanKernel
)

func (k SpanKind) String() string {
	switch k {
	case SpanSolve:
		return "solve"
	case SpanIter:
		return "iter"
	case SpanPhase:
		return "phase"
	case SpanKernel:
		return "kernel"
	}
	return "unknown"
}

// SpanEvent is one recorded span. All fields are fixed-size so slabs are
// flat arrays with no per-span allocation. ID is the span's index in
// recording order; Parent is the enclosing span's ID (-1 for roots), which
// is what gives the trace its solve → iteration → phase → kernel nesting.
//
// StartNs/HostNs are host wall-clock (relative to the tracer epoch); they
// measure what the Go process actually spent. SimStartNs/SimNs are the
// simulated device interval charged by sim.Machine during the span — the
// time the modeled Jetson board would have taken. The two advance at wildly
// different rates; keeping both per span is what makes "host time !=
// charged sim time" visible on one timeline.
type SpanEvent struct {
	ID     int32
	Parent int32 // parent span ID, -1 for roots
	Kind   SpanKind
	Phase  Phase // meaningful for SpanPhase and SpanKernel
	Iter   int32 // enclosing iteration index (-1 outside any iteration)

	StartNs    int64 // host start, ns since tracer epoch
	HostNs     int64 // host duration, ns (0 for kernel marks)
	SimStartNs int64 // simulated clock at span start, ns (0 if no machine)
	SimNs      int64 // simulated duration charged during the span, ns
	Items      int64 // span payload size (edges, updates, scanned keys, iters)
}

// PhaseTotals aggregates all phase spans of one phase, including spans
// dropped once the slab budget is exhausted.
type PhaseTotals struct {
	Count  int64
	HostNs int64
	SimNs  int64
	Items  int64
}

// phaseAgg is the atomic accumulator behind PhaseTotals, padded out to a
// cache line so phases updated from different goroutines don't false-share.
type phaseAgg struct {
	count  atomic.Int64
	hostNs atomic.Int64
	simNs  atomic.Int64
	items  atomic.Int64
	_      [4]int64
}

// Span slab geometry: spans are stored in fixed-size slabs drawn from a
// process-wide sync.Pool, so a tracer's steady state allocates nothing (a
// slab crossing reuses a pooled slab; only a cold pool pays one slab
// allocation) and a released tracer returns its memory for the next solve.
const (
	spanSlabShift = 11
	spanSlabSize  = 1 << spanSlabShift // 2048 spans ≈ 112 KiB per slab
	spanSlabMask  = spanSlabSize - 1
)

type spanSlab [spanSlabSize]SpanEvent

var spanSlabPool = sync.Pool{New: func() any { return new(spanSlab) }}

// DefaultTraceEvents is the span budget used when NewTracer is given a
// non-positive capacity: 64Ki spans (32 slabs), enough for ~5k solver
// iterations with all phases and kernel charges instrumented.
const DefaultTraceEvents = 1 << 16

// Tracer records hierarchical spans into pooled fixed-size slabs acquired
// lazily up to a budget fixed at construction. When the budget is
// exhausted new spans are dropped (Dropped counts them) — unlike the old
// flat ring it never overwrites: the solve/iteration skeleton at the front
// of the trace is what gives every retained span its ancestry. Per-phase
// aggregates keep exact totals regardless of drops.
//
// All methods are safe for concurrent use and a nil *Tracer is a no-op,
// but the hierarchy bookkeeping (open solve/iteration/phase) assumes the
// single-driver-goroutine solver loop: concurrent solves get disjoint
// tracers via per-solve Scopes, never one shared tracer.
type Tracer struct {
	mu      sync.Mutex
	epoch   time.Time
	slabs   []*spanSlab // acquired lazily; cap fixed at construction
	n       int         // spans recorded
	max     int         // span budget
	dropped uint64

	// Open-span stack of the driver loop, -1 when closed. New phase spans
	// parent to the open iteration (or solve), kernel marks to the open
	// phase.
	openSolve int32
	openIter  int32
	openPhase int32
	curIter   int32

	agg [numPhases]phaseAgg
}

// NewTracer returns a tracer holding up to capacity spans
// (DefaultTraceEvents if capacity <= 0), rounded up to a whole slab.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceEvents
	}
	nslabs := (capacity + spanSlabSize - 1) / spanSlabSize
	return &Tracer{
		epoch:     time.Now(),
		slabs:     make([]*spanSlab, 0, nslabs),
		max:       nslabs * spanSlabSize,
		openSolve: -1, openIter: -1, openPhase: -1, curIter: -1,
	}
}

// reserve claims the next span slot, stamps its identity, and then reads
// the host clock, so a span's start follows the tracer's own bookkeeping
// and its HostNs does not include it. The caller holds t.mu. It returns
// the slot (-1 when the budget is exhausted: the span is dropped and
// counted) and the start, host time since the tracer epoch. Growing into
// a new slab appends a pooled slab into the capacity-preallocated slab
// list, so the steady state allocates nothing once the process pool is
// warm.
//
//hot:alloc-free
func (t *Tracer) reserve(kind SpanKind, p Phase, parent int32) (int32, time.Duration) {
	if t.n >= t.max {
		t.dropped++
		return -1, time.Since(t.epoch)
	}
	if t.n>>spanSlabShift >= len(t.slabs) {
		t.slabs = append(t.slabs, spanSlabPool.Get().(*spanSlab))
	}
	id := int32(t.n)
	t.n++
	ev := t.at(id)
	start := time.Since(t.epoch)
	*ev = SpanEvent{ID: id, Parent: parent, Kind: kind, Phase: p, Iter: t.curIter, StartNs: int64(start)}
	return id, start
}

func (t *Tracer) at(id int32) *SpanEvent {
	return &t.slabs[id>>spanSlabShift][id&spanSlabMask]
}

// Span is an in-flight measurement started by BeginSolve/BeginIter/Begin.
// The zero Span (from a nil tracer) is valid and End/EndSim/Kernel on it do
// nothing, as do spans dropped by an exhausted budget.
type Span struct {
	t     *Tracer
	start time.Duration // host time since the tracer epoch
	id    int32
	kind  SpanKind
	phase Phase
}

// BeginSolve opens the root span of one solver run and resets the
// iteration/phase stack. Nil-safe.
func (t *Tracer) BeginSolve() Span {
	if t == nil {
		return Span{}
	}
	t.mu.Lock()
	t.curIter = -1
	id, start := t.reserve(SpanSolve, 0, -1)
	t.openSolve, t.openIter, t.openPhase = id, -1, -1
	t.mu.Unlock()
	return Span{t: t, start: start, id: id, kind: SpanSolve}
}

// BeginIter opens iteration k's span under the open solve span. Nil-safe.
func (t *Tracer) BeginIter(k int) Span {
	if t == nil {
		return Span{}
	}
	t.mu.Lock()
	t.curIter = int32(k)
	id, start := t.reserve(SpanIter, 0, t.openSolve)
	t.openIter, t.openPhase = id, -1
	t.mu.Unlock()
	return Span{t: t, start: start, id: id, kind: SpanIter}
}

// Begin opens a phase span under the open iteration span (or directly
// under the solve span for phases outside the iteration loop). Nil-safe:
// on a nil tracer the returned span is inert and Begin does not read the
// clock.
func (t *Tracer) Begin(p Phase) Span {
	if t == nil {
		return Span{}
	}
	t.mu.Lock()
	parent := t.openIter
	if parent < 0 {
		parent = t.openSolve
	}
	id, start := t.reserve(SpanPhase, p, parent)
	t.openPhase = id
	t.mu.Unlock()
	return Span{t: t, start: start, id: id, kind: SpanPhase, phase: p}
}

// End finishes a span that charged no simulated time.
func (s Span) End(items int64) {
	s.EndSim(items, 0, 0)
}

// EndSim finishes the span, recording the simulated interval charged while
// it was open: simStart is the machine clock when charging began and simDur
// the charged duration. Pass zeros when no machine is attached. Phase spans
// feed the exact per-phase aggregates even when the span itself was
// dropped.
//
//hot:alloc-free
func (s Span) EndSim(items int64, simStart, simDur time.Duration) {
	t := s.t
	if t == nil {
		return
	}
	host := time.Since(t.epoch) - s.start
	t.mu.Lock()
	if s.id >= 0 {
		ev := t.at(s.id)
		ev.HostNs = int64(host)
		ev.SimStartNs = int64(simStart)
		ev.SimNs = int64(simDur)
		ev.Items = items
	}
	// Pop the open-span stack; out-of-order ends (error paths) only ever
	// leave an ancestor open, never resurrect a closed span.
	switch s.kind {
	case SpanPhase:
		if t.openPhase == s.id {
			t.openPhase = -1
		}
	case SpanIter:
		if t.openIter == s.id {
			t.openIter, t.openPhase, t.curIter = -1, -1, -1
		}
	case SpanSolve:
		if t.openSolve == s.id {
			t.openSolve, t.openIter, t.openPhase, t.curIter = -1, -1, -1, -1
		}
	}
	t.mu.Unlock()
	if s.kind == SpanPhase {
		a := &t.agg[s.phase]
		a.count.Add(1)
		a.hostNs.Add(int64(host))
		a.simNs.Add(int64(simDur))
		a.items.Add(items)
	}
}

// Kernel records one simulated-machine charge as an instantaneous
// kernel-kind child of this span: the charged interval [simStart,
// simStart+simDur) with zero host duration of its own. The parent phase
// span's EndSim already carries the phase's sim total, so kernel children
// do not feed the per-phase aggregates — they detail them.
//
//hot:alloc-free
func (s Span) Kernel(items int64, simStart, simDur time.Duration) {
	t := s.t
	if t == nil {
		return
	}
	t.mu.Lock()
	id, _ := t.reserve(SpanKernel, s.phase, s.id)
	if id >= 0 {
		ev := t.at(id)
		ev.SimStartNs = int64(simStart)
		ev.SimNs = int64(simDur)
		ev.Items = items
	}
	t.mu.Unlock()
}

// Mark records an instantaneous kernel-kind event parented to the open
// iteration (or solve) span: a charge with negligible host-side duration
// of its own computed outside any phase span (for example the far-queue
// scan charge computed from counters maintained elsewhere). Unlike
// Span.Kernel it feeds the per-phase aggregates — it is the only record of
// that phase's work.
//
//hot:alloc-free
func (t *Tracer) Mark(p Phase, items int64, simStart, simDur time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	parent := t.openIter
	if parent < 0 {
		parent = t.openSolve
	}
	id, _ := t.reserve(SpanKernel, p, parent)
	if id >= 0 {
		ev := t.at(id)
		ev.SimStartNs = int64(simStart)
		ev.SimNs = int64(simDur)
		ev.Items = items
	}
	t.mu.Unlock()
	a := &t.agg[p]
	a.count.Add(1)
	a.simNs.Add(int64(simDur))
	a.items.Add(items)
}

// Totals returns the exact per-phase aggregate, unaffected by span drops.
func (t *Tracer) Totals(p Phase) PhaseTotals {
	if t == nil {
		return PhaseTotals{}
	}
	a := &t.agg[p]
	return PhaseTotals{
		Count:  a.count.Load(),
		HostNs: a.hostNs.Load(),
		SimNs:  a.simNs.Load(),
		Items:  a.items.Load(),
	}
}

// Len reports how many spans are currently retained (<= Cap).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// Cap reports the span budget.
func (t *Tracer) Cap() int {
	if t == nil {
		return 0
	}
	return t.max
}

// Dropped reports how many spans were discarded after the budget filled.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Snapshot appends the retained spans, in recording order, to dst (which
// may be nil) and returns the result. It allocates only if dst lacks
// capacity, so a caller exporting repeatedly can reuse one slice.
func (t *Tracer) Snapshot(dst []SpanEvent) []SpanEvent {
	if t == nil {
		return dst
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := 0; i < t.n; i += spanSlabSize {
		hi := t.n - i
		if hi > spanSlabSize {
			hi = spanSlabSize
		}
		dst = append(dst, t.slabs[i>>spanSlabShift][:hi]...)
	}
	return dst
}

// Reset discards all recorded spans and aggregates but keeps the acquired
// slabs, so a reused tracer stays allocation-free.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.n = 0
	t.dropped = 0
	t.openSolve, t.openIter, t.openPhase, t.curIter = -1, -1, -1, -1
	for p := range t.agg {
		t.agg[p].count.Store(0)
		t.agg[p].hostNs.Store(0)
		t.agg[p].simNs.Store(0)
		t.agg[p].items.Store(0)
	}
	t.mu.Unlock()
}

// Release returns the tracer's slabs to the process-wide pool and empties
// it. The recorded spans become invalid; called when a retired scope is
// evicted from the observer's history ring.
func (t *Tracer) Release() {
	if t == nil {
		return
	}
	t.mu.Lock()
	for i, s := range t.slabs {
		spanSlabPool.Put(s)
		t.slabs[i] = nil
	}
	t.slabs = t.slabs[:0]
	t.n = 0
	t.openSolve, t.openIter, t.openPhase, t.curIter = -1, -1, -1, -1
	t.mu.Unlock()
}
