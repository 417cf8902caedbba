// Package sssp implements the single-source shortest path algorithms the
// paper builds on and compares against: a sequential Dijkstra used as the
// correctness oracle and the Gunrock-style near-far baseline (Davidson et
// al.) with its advance / filter / bisect-frontier / bisect-far-queue
// stages. Drive is the one near-far loop: NearFar plugs in its flat or rho
// far-queue Schedule, and the paper's self-tuning algorithm (internal/core)
// plugs in its controller and rebalancer.
//
// All parallel solvers execute their kernels for real on a goroutine pool
// and, when a simulated machine is attached, charge each kernel's work items
// to it so runs produce deterministic simulated time and energy.
package sssp

import (
	"errors"
	"fmt"
	"time"

	"energysssp/internal/flight"
	"energysssp/internal/graph"
	"energysssp/internal/metrics"
	"energysssp/internal/obs"
	"energysssp/internal/parallel"
	"energysssp/internal/sim"
)

// ErrSource reports an out-of-range source vertex.
var ErrSource = errors.New("sssp: source vertex out of range")

// ErrLivelock reports that a solver exceeded its iteration guard — it
// indicates a controller or queue bug, never a legitimate input.
var ErrLivelock = errors.New("sssp: iteration guard exceeded")

// Options configures a solver run. The zero value runs single-threaded with
// no simulation and no profiling.
type Options struct {
	// Pool supplies worker goroutines; nil runs single-threaded.
	Pool *parallel.Pool
	// Machine, when non-nil, is charged simulated time and energy for
	// every kernel.
	Machine *sim.Machine
	// Profile, when non-nil, records per-iteration statistics.
	Profile *metrics.Profile
	// MaxIters overrides the livelock guard (0 selects a generous default
	// derived from the graph size).
	MaxIters int
	// FarQueue pins the far-queue structure and phase-advance policy of
	// NearFar (flat or rho); FarAuto (the zero value) selects rho. Every
	// strategy computes exact distances and charges the simulated far-queue
	// kernel per scanned entry; the flight header records which one ran so
	// replay validates the matching schedule.
	FarQueue FarQueueStrategy
	// Obs, when non-nil, attaches the runtime observability plane. Each
	// solver derives its own per-solve Scope from it (closed when the
	// solve finishes), so concurrent solves sharing one Observer get
	// disjoint span trees; their joules and pool launches go to the
	// Observer's process-level meter and stats. It is host-side only —
	// simulated time and energy are bit-identical with Obs set or nil —
	// and it preserves the zero-allocation steady state (gated by
	// TestObsSteadyStateAllocs and TestSpanSteadyStateAllocs).
	Obs *obs.Observer
	// Scope, when non-nil, supplies a pre-made observability scope instead
	// of deriving one from Obs. The caller owns its lifecycle (the solver
	// will not Close it) — used by drivers that solve repeatedly under one
	// scope or need the scope after the solve returns.
	Scope *obs.Scope
	// Flight, when non-nil, records one flight.Record per solver iteration
	// (the controller flight recorder). Host-side only, like Obs, and
	// allocation-free in the steady state (gated by
	// TestFlightSteadyStateAllocs). Supported by the self-tuning solver and
	// the near-far baseline; other solvers ignore it. Once the solve has
	// validated its inputs, Obs (when set) serves the recorder at /flight.
	Flight *flight.Recorder
}

func (o *Options) pool() *parallel.Pool {
	if o.Pool != nil {
		return o.Pool
	}
	return parallel.NewPool(1)
}

// acquireScope returns the per-solve observability scope and whether the
// solver owns it (owns == must Close when the solve finishes): the
// caller-supplied Scope is borrowed, one derived from Obs is owned, and with
// neither the scope is nil (a no-op).
func (o *Options) acquireScope(alg string) (*obs.Scope, bool) {
	if o.Scope != nil {
		return o.Scope, false
	}
	if o.Obs == nil {
		return nil, false
	}
	return o.Obs.NewScope(alg), true
}

func (o *Options) maxIters(g *graph.Graph) int {
	if o.MaxIters > 0 {
		return o.MaxIters
	}
	// Every iteration with a non-empty frontier performs at least one
	// relaxation or retires at least one queued entry, so a generous
	// multiple of n+m can only trip on a real livelock bug.
	guard := 64*(g.NumVertices()+int(g.NumEdges())) + 1_000_000
	return guard
}

// Result reports the outcome of one SSSP run.
type Result struct {
	// Dist holds the shortest distance from the source per vertex
	// (graph.Inf for unreachable vertices).
	Dist []graph.Dist
	// Iterations is the number of solver iterations (phases for bucket
	// algorithms; advance rounds for frontier algorithms).
	Iterations int
	// EdgesRelaxed counts edge examinations in advance/relax kernels;
	// values above NumEdges measure redundant work.
	EdgesRelaxed int64
	// Updates counts successful distance improvements.
	Updates int64
	// Reached is the number of vertices with finite distance.
	Reached int
	// WallTime is the host execution time.
	WallTime time.Duration
	// SimTime and EnergyJ report simulated cost when a machine was
	// attached (zero otherwise); AvgPowerW = EnergyJ / SimTime.
	SimTime   time.Duration
	EnergyJ   float64
	AvgPowerW float64
}

// String summarizes the run.
func (r Result) String() string {
	return fmt.Sprintf("iters=%d relaxed=%d updates=%d reached=%d wall=%v sim=%v avgW=%.2f",
		r.Iterations, r.EdgesRelaxed, r.Updates, r.Reached, r.WallTime, r.SimTime, r.AvgPowerW)
}

// newDist allocates the distance array initialized to Inf except src.
func newDist(n int, src graph.VID) []graph.Dist {
	dist := make([]graph.Dist, n)
	for i := range dist {
		dist[i] = graph.Inf
	}
	dist[src] = 0
	return dist
}

func checkSource(g *graph.Graph, src graph.VID) error {
	if src < 0 || int(src) >= g.NumVertices() {
		return fmt.Errorf("%w: %d not in [0,%d)", ErrSource, src, g.NumVertices())
	}
	return nil
}

func countReached(dist []graph.Dist) int {
	n := 0
	for _, d := range dist {
		if d < graph.Inf {
			n++
		}
	}
	return n
}

// finishResult fills the timing/energy fields from the machine (if any).
func finishResult(r *Result, opt *Options, start time.Time, startSim time.Duration, startJ float64) {
	r.WallTime = time.Since(start)
	r.Reached = countReached(r.Dist)
	if opt.Machine != nil {
		r.SimTime = opt.Machine.Now() - startSim
		r.EnergyJ = opt.Machine.Energy() - startJ
		if r.SimTime > 0 {
			r.AvgPowerW = r.EnergyJ / r.SimTime.Seconds()
		}
	}
}
