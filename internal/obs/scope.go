package obs

import (
	"sync/atomic"
	"time"
)

// Scope is one solve's private observability surface: its own span tracer,
// a registry whose counters/histograms chain into the fleet registry, and
// an energy meter chaining into the fleet meter. Concurrent solves hold
// disjoint scopes, so their span trees and metric values never interleave;
// the fleet observer still sees every write through the chains. A nil *Scope is a no-op and all its
// accessors return nil no-op handles.
type Scope struct {
	name   string
	parent *Observer
	tracer *Tracer
	reg    *Registry
	energy *EnergyMeter

	closed atomic.Bool
	opened time.Time // host clock at NewScope, for the solve-latency histogram
}

// Name returns the scope's label value on fleet expositions.
func (s *Scope) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Tracer returns the scope's span tracer (nil, a no-op, on a nil scope).
func (s *Scope) Tracer() *Tracer {
	if s == nil {
		return nil
	}
	return s.tracer
}

// Registry returns the scope's chained metric registry.
func (s *Scope) Registry() *Registry {
	if s == nil {
		return nil
	}
	return s.reg
}

// Energy returns the scope's energy meter.
func (s *Scope) Energy() *EnergyMeter {
	if s == nil {
		return nil
	}
	return s.energy
}

// PoolStats forwards to the owning observer's worker-pool stats: worker
// busy time is a process-level resource, not a per-solve one.
func (s *Scope) PoolStats() *PoolStats {
	if s == nil {
		return nil
	}
	return s.parent.PoolStats()
}

// Close retires the scope: it leaves the observer's active set and its span
// tree moves to the retired ring where /trace can still render it until
// eviction recycles the slabs. Close is idempotent and nil-safe; the
// chained metrics remain valid (further writes still reach the fleet).
func (s *Scope) Close() {
	if s == nil || !s.closed.CompareAndSwap(false, true) {
		return
	}
	s.parent.retire(s)
}
