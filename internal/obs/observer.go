package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"

	"energysssp/internal/parallel"
)

// PoolStats is the worker-pool launch and busy-time accumulator an Observer
// owns. It is declared in internal/parallel, next to the pool that records
// into it, so that base package needs no observability import.
type PoolStats = parallel.PoolStats

// retiredScopes is how many closed scopes the observer keeps around so
// TraceSnapshot can still render recently finished solves; evicting
// an older scope folds its phase totals into the observer's accumulator and
// recycles its span slabs.
const retiredScopes = 16

// Observer is the observability handle threaded through Options/RunConfig:
// the parent of every per-solve Scope. It owns the one energy meter every
// solve charges, the worker-pool stats, and the ring of recently retired
// scopes. A nil *Observer disables all instrumentation; solvers derive
// their own Scope from it per run, so concurrent solves never share a
// tracer.
type Observer struct {
	pool   PoolStats
	energy *EnergyMeter

	mu          sync.Mutex
	scopes      []*Scope // active (unclosed) scopes
	retired     []*Scope // most recent closed scopes, oldest first
	evictedAgg  [numPhases]PhaseTotals
	nextScopeID int64
	traceEvents int
}

// New returns an Observer whose scopes each get a span budget of
// traceEvents spans (DefaultTraceEvents if <= 0).
func New(traceEvents int) *Observer {
	if traceEvents <= 0 {
		traceEvents = DefaultTraceEvents
	}
	return &Observer{energy: &EnergyMeter{}, traceEvents: traceEvents}
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
	}
	o.mu.Lock()
	o.scopes = append(o.scopes, s)
	o.mu.Unlock()
	return s
}

// retire moves a closed scope from the active set into the retired ring.
// Called exactly once per scope, from Scope.Close.
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
// and retired scope plus everything already evicted. Allocation-free:
// Tracer.Totals is pure atomic loads, so the walk stays under o.mu instead
// of copying the scope lists.
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

// PoolStats returns the observer's worker-pool stats block. Nil-safe: a
// nil observer returns nil, which parallel.Pool treats as "don't measure".
func (o *Observer) PoolStats() *PoolStats {
	if o == nil {
		return nil
	}
	return &o.pool
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
