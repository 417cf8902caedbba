package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"energysssp/internal/parallel"
)

// PoolStats is the worker-pool launch and busy-time accumulator an Observer
// owns. It is declared in internal/parallel, next to the pool that records
// into it, so that base package needs no observability import.
type PoolStats = parallel.PoolStats

// FlightSource streams a controller flight log as JSONL. It is declared
// structurally (satisfied by *flight.Recorder) so this package stays
// import-free of internal/flight; the server exposes it at /flight.
type FlightSource interface {
	WriteJSONL(w io.Writer) error
}

// retiredScopes is how many closed scopes the observer keeps around so
// /trace can still render recently finished solves; evicting
// an older scope folds its phase totals into the observer's accumulator and
// recycles its span slabs.
const retiredScopes = 16

// Observer is the process-level observability handle threaded through
// Options/RunConfig: the parent of every per-solve Scope. It owns the one
// metric registry, the one energy meter every solve charges, and the ring
// of recently retired scopes. A nil *Observer disables all
// instrumentation; solvers derive their own Scope from it per run, so
// concurrent solves never share a tracer.
type Observer struct {
	Reg *Registry

	poolOnce sync.Once
	pool     PoolStats

	flightMu sync.Mutex
	flight   FlightSource

	energy *EnergyMeter

	// solveSeconds is the solve-latency histogram, observed once per
	// retired scope.
	solveSeconds *Histogram

	mu          sync.Mutex
	scopes      []*Scope // active (unclosed) scopes
	retired     []*Scope // most recent closed scopes, oldest first
	evictedAgg  [numPhases]PhaseTotals
	nextScopeID int64
	traceEvents int
}

// New returns an Observer whose scopes each get a span budget of
// traceEvents spans (DefaultTraceEvents if <= 0), with the registry
// preloaded with the Go runtime sampler, the per-phase aggregates over all
// scopes, and the energy attribution.
func New(traceEvents int) *Observer {
	if traceEvents <= 0 {
		traceEvents = DefaultTraceEvents
	}
	o := &Observer{
		Reg:         NewRegistry(),
		traceEvents: traceEvents,
	}
	o.energy = &EnergyMeter{}
	RegisterRuntimeMetrics(o.Reg)
	RegisterBuildInfo(o.Reg)
	registerEnergyMetrics(o.Reg, o.energy)
	o.registerPhaseMetrics()
	o.solveSeconds = o.Reg.Histogram("sssp_solve_seconds",
		"end-to-end solve latency (scope open to close)",
		[]float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30})
	return o
}

// NewScope opens a per-solve scope named name (or "solve-N" when empty)
// with its own span tracer. Nil-safe: a nil observer returns a nil (no-op)
// scope.
func (o *Observer) NewScope(name string) *Scope {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	o.nextScopeID++
	id := o.nextScopeID
	o.mu.Unlock()
	if name == "" {
		name = "solve-" + strconv.FormatInt(id, 10)
	} else {
		name = name + "-" + strconv.FormatInt(id, 10)
	}
	s := &Scope{
		name:   name,
		parent: o,
		tracer: NewTracer(o.traceEvents),
		opened: time.Now(),
	}
	o.mu.Lock()
	o.scopes = append(o.scopes, s)
	o.mu.Unlock()
	return s
}

// retire moves a closed scope from the active set into the retired ring and
// observes its latency. Called exactly once per scope, from Scope.Close.
func (o *Observer) retire(s *Scope) {
	if o == nil {
		return
	}
	o.mu.Lock()
	for i, sc := range o.scopes {
		if sc == s {
			o.scopes = append(o.scopes[:i], o.scopes[i+1:]...)
			break
		}
	}
	o.retired = append(o.retired, s)
	var evicted *Scope
	if len(o.retired) > retiredScopes {
		evicted = o.retired[0]
		copy(o.retired, o.retired[1:])
		o.retired[len(o.retired)-1] = nil
		o.retired = o.retired[:len(o.retired)-1]
		for p := Phase(0); p < numPhases; p++ {
			t := evicted.tracer.Totals(p)
			o.evictedAgg[p].Count += t.Count
			o.evictedAgg[p].HostNs += t.HostNs
			o.evictedAgg[p].SimNs += t.SimNs
			o.evictedAgg[p].Items += t.Items
		}
	}
	o.mu.Unlock()
	if evicted != nil {
		evicted.tracer.Release()
	}

	o.solveSeconds.Observe(time.Since(s.opened).Seconds())
}

// WriteEnergyJSON writes the energy-attribution artifact: simulated
// joules per solver phase and the total. The solve's flight header
// names its strategy (Algorithm, FarQueue).
func (o *Observer) WriteEnergyJSON(w io.Writer) error {
	if o == nil {
		return nil
	}
	phases := make(map[string]float64, numPhases)
	for p := Phase(0); p < numPhases; p++ {
		// Exactly zero means "never charged" — an epsilon would drop real
		// sub-epsilon charges from the report.
		if j := o.energy.PhaseJoules(p); j != 0 { //lint:ignore floatcmp exact zero is the sentinel
			phases[p.String()] = j
		}
	}
	report := struct {
		Phases map[string]float64 `json:"phases"`
		TotalJ float64            `json:"total_joules"`
	}{phases, o.energy.TotalJoules()}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}

// allScopes snapshots active then retired scopes.
func (o *Observer) allScopes() []*Scope {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]*Scope, 0, len(o.scopes)+len(o.retired))
	out = append(out, o.scopes...)
	return append(out, o.retired...)
}

// Energy returns the energy meter every solve under o charges.
func (o *Observer) Energy() *EnergyMeter {
	if o == nil {
		return nil
	}
	return o.energy
}

// PhaseTotals returns the aggregate for phase p over every active
// and retired scope plus everything already evicted. Allocation-free (every
// /metrics scrape reads the per-phase gauge funcs): Tracer.Totals is pure
// atomic loads, so the walk stays under o.mu instead of copying the scope
// lists.
func (o *Observer) PhaseTotals(p Phase) PhaseTotals {
	if o == nil {
		return PhaseTotals{}
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	tot := o.evictedAgg[p]
	for _, scopes := range [2][]*Scope{o.scopes, o.retired} {
		for _, s := range scopes {
			t := s.tracer.Totals(p)
			tot.Count += t.Count
			tot.HostNs += t.HostNs
			tot.SimNs += t.SimNs
			tot.Items += t.Items
		}
	}
	return tot
}

// ScopeSpans is one scope's span tree, named for trace export.
type ScopeSpans struct {
	Name  string
	Spans []SpanEvent
}

// TraceSnapshot captures every active and retired scope's span tree for
// export (most recent solves last).
func (o *Observer) TraceSnapshot() []ScopeSpans {
	scopes := o.allScopes()
	out := make([]ScopeSpans, 0, len(scopes))
	for _, s := range scopes {
		out = append(out, ScopeSpans{Name: s.name, Spans: s.tracer.Snapshot(nil)})
	}
	return out
}

// registerPhaseMetrics exposes the per-phase aggregates over all scopes
// and the span retention on the registry.
func (o *Observer) registerPhaseMetrics() {
	hostTotal := func() int64 {
		var tot int64
		for q := Phase(0); q < numPhases; q++ {
			tot += o.PhaseTotals(q).HostNs
		}
		return tot
	}
	for p := Phase(0); p < numPhases; p++ {
		ph := p // capture per iteration
		label := `{phase="` + p.String() + `"}`
		o.Reg.GaugeFunc("obs_phase_spans_total"+label,
			"spans recorded per solver phase",
			func() float64 { return float64(o.PhaseTotals(ph).Count) })
		o.Reg.GaugeFunc("obs_phase_host_seconds_total"+label,
			"host wall time per solver phase",
			func() float64 { return float64(o.PhaseTotals(ph).HostNs) / 1e9 })
		o.Reg.GaugeFunc("obs_phase_sim_seconds_total"+label,
			"charged simulated device time per solver phase",
			func() float64 { return float64(o.PhaseTotals(ph).SimNs) / 1e9 })
		o.Reg.GaugeFunc("obs_phase_host_fraction"+label,
			"share of all recorded host span time spent in this phase",
			func() float64 {
				tot := hostTotal()
				if tot == 0 {
					return 0
				}
				return float64(o.PhaseTotals(ph).HostNs) / float64(tot)
			})
	}
	o.Reg.GaugeFunc("obs_active_solves",
		"scopes currently solving",
		func() float64 {
			o.mu.Lock()
			defer o.mu.Unlock()
			return float64(len(o.scopes))
		})
	o.Reg.GaugeFunc("obs_trace_events",
		"spans currently retained across active and retired scopes",
		func() float64 {
			o.mu.Lock()
			defer o.mu.Unlock()
			var n int
			for _, s := range o.scopes {
				n += s.tracer.Len()
			}
			for _, s := range o.retired {
				n += s.tracer.Len()
			}
			return float64(n)
		})
	o.Reg.GaugeFunc("obs_trace_dropped_total",
		"spans dropped after a scope's span budget filled",
		func() float64 {
			o.mu.Lock()
			defer o.mu.Unlock()
			var n uint64
			for _, s := range o.scopes {
				n += s.tracer.Dropped()
			}
			for _, s := range o.retired {
				n += s.tracer.Dropped()
			}
			return float64(n)
		})
}

// PoolStats returns the observer's worker-pool stats block, registering its
// gauges on first use. Nil-safe: a nil observer returns nil, which
// parallel.Pool treats as "don't measure". Per-worker busy/awake gauges
// appear lazily at scrape time once a pool enables worker accounting.
func (o *Observer) PoolStats() *PoolStats {
	if o == nil {
		return nil
	}
	o.poolOnce.Do(func() {
		o.Reg.GaugeFunc("pool_launches_total",
			"worker-pool kernel launches observed",
			func() float64 { return float64(o.pool.Launches()) })
		o.Reg.GaugeFunc("pool_busy_seconds_total",
			"host wall time spent inside worker-pool launches",
			func() float64 { return float64(o.pool.BusyNs()) / 1e9 })
		// The hook registers gauges only for workers that appeared since the
		// last scrape, so steady-state scrapes build no label strings once
		// the worker set is stable. Concurrent scrapes may both register
		// the same new worker — GaugeFunc is idempotent, so the atomic
		// only needs to bound the loop, not serialize it.
		var registered atomic.Int64
		o.Reg.OnScrape(func() {
			n := int64(o.pool.Workers())
			for w := registered.Load(); w < n; w++ {
				wid := int(w)
				label := `{worker="` + strconv.FormatInt(w, 10) + `"}`
				o.Reg.GaugeFunc("obs_worker_busy_seconds_total"+label,
					"host wall time each pool worker spent executing kernels",
					func() float64 { return float64(o.pool.WorkerBusyNs(wid)) / 1e9 })
				o.Reg.GaugeFunc("obs_worker_awake_fraction"+label,
					"busy share of host time since worker accounting began (sleep = 1 - awake)",
					func() float64 { return o.pool.AwakeFraction(wid) })
			}
			registered.Store(n)
		})
	})
	return &o.pool
}

// SetFlight attaches (or, with nil, detaches) the flight-log source the
// server streams at /flight. Nil-safe on the observer itself.
func (o *Observer) SetFlight(src FlightSource) {
	if o == nil {
		return
	}
	o.flightMu.Lock()
	o.flight = src
	o.flightMu.Unlock()
}

// Flight returns the attached flight-log source, or nil when none is set.
func (o *Observer) Flight() FlightSource {
	if o == nil {
		return nil
	}
	o.flightMu.Lock()
	defer o.flightMu.Unlock()
	return o.flight
}

// WritePrometheus writes the registry's exposition.
func (o *Observer) WritePrometheus(w io.Writer) error {
	if o == nil {
		return nil
	}
	return o.Reg.WritePrometheus(w)
}

// SummaryLine renders a one-line human summary: per-phase host-time
// shares and the attributed joules. Used by cmd/sssp after a run.
func (o *Observer) SummaryLine() string {
	if o == nil {
		return ""
	}
	var totalHost int64
	var totals [numPhases]PhaseTotals
	for p := Phase(0); p < numPhases; p++ {
		totals[p] = o.PhaseTotals(p)
		totalHost += totals[p].HostNs
	}
	if totalHost == 0 {
		return "obs: no spans recorded"
	}
	var b strings.Builder
	b.WriteString("obs: host ")
	b.WriteString(time.Duration(totalHost).Round(time.Microsecond).String())
	for p := Phase(0); p < numPhases; p++ {
		if totals[p].Count == 0 {
			continue
		}
		fmt.Fprintf(&b, " | %s %.1f%%", p.String(),
			100*float64(totals[p].HostNs)/float64(totalHost))
	}
	if j := o.energy.TotalJoules(); j > 0 {
		fmt.Fprintf(&b, " | %.3g J", j)
	}
	return b.String()
}
