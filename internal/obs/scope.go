package obs

import "sync/atomic"

// Scope is one solve's span tracer under an Observer. Concurrent solves
// hold disjoint scopes, so their span trees never interleave; phase totals,
// joules and pool stats are shared and live on the Observer. A nil
// *Scope is a no-op and all its accessors return nil no-op handles.
type Scope struct {
	name   string
	parent *Observer
	tracer *Tracer

	closed atomic.Bool
}

// Name returns the scope's process name in trace exports.
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

// Observer returns the observer the scope was opened on, whose energy
// meter and pool stats the solve charges.
func (s *Scope) Observer() *Observer {
	if s == nil {
		return nil
	}
	return s.parent
}

// Close retires the scope: it leaves the observer's active set and its span
// tree moves to the retired ring where WriteTrace can still render it until
// eviction recycles the slabs. Close is idempotent and nil-safe.
func (s *Scope) Close() {
	if s == nil || !s.closed.CompareAndSwap(false, true) {
		return
	}
	s.parent.retire(s)
}
