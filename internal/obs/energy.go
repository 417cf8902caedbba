package obs

import (
	"math"
	"sync"
)

// EnergyMeter attributes the simulated machine's energy charges to solver
// phases. Drivers bracket each charge with the machine's energy reading
// before and after and call Charge; the meter captures the delta *exactly*
// (an error-free two-term transformation) and folds it into a per-phase
// Neumaier-compensated accumulator. Because every charged joule enters
// exactly once and the per-phase sums telescope, the meter's TotalJoules
// reconciles with the machine's own end-minus-start energy to within 1 ULP
// — the acceptance bar for the energy-attribution plane.
//
// Like every handle in this package a nil *EnergyMeter is a no-op; the
// zero value is ready to use. An Observer owns one meter, charged by every
// solve under it.
//
// The meter is host-side bookkeeping only: it reads energy values handed to
// it and never touches the machine, so simulated time and energy stay
// bit-identical with observability on or off.
type EnergyMeter struct {
	mu   sync.Mutex
	sum  [numPhases]float64
	comp [numPhases]float64 // Neumaier compensation terms
}

// twoDiff returns (s, e) with s = fl(a-b) and s+e == a-b exactly
// (Knuth's two-sum applied to a + (-b); branch-free, valid for any
// magnitudes).
func twoDiff(a, b float64) (s, e float64) {
	c := -b
	s = a + c
	a1 := s - c
	c1 := s - a1
	e = (a - a1) + (c - c1)
	return s, e
}

// neumaierAdd folds x into a compensated (sum, comp) pair.
func neumaierAdd(sum, comp, x float64) (float64, float64) {
	t := sum + x
	if math.Abs(sum) >= math.Abs(x) {
		comp += (sum - t) + x
	} else {
		comp += (x - t) + sum
	}
	return t, comp
}

// Charge attributes one machine charge to phase p, given the machine's
// cumulative energy reading before and after the charge. The exact
// difference after-before (captured error-free as two floats) is
// accumulated, so no attribution is lost to rounding.
func (m *EnergyMeter) Charge(p Phase, before, after float64) {
	if m == nil {
		return
	}
	hi, lo := twoDiff(after, before)
	m.mu.Lock()
	m.sum[p], m.comp[p] = neumaierAdd(m.sum[p], m.comp[p], hi)
	m.sum[p], m.comp[p] = neumaierAdd(m.sum[p], m.comp[p], lo)
	m.mu.Unlock()
}

// PhaseJoules returns the joules attributed to phase p.
func (m *EnergyMeter) PhaseJoules(p Phase) float64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sum[p] + m.comp[p]
}

// TotalJoules returns the joules attributed across all phases, combined
// with the same compensated accumulation so the total keeps the 1-ULP
// reconciliation guarantee.
func (m *EnergyMeter) TotalJoules() float64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	var sum, comp float64
	for p := 0; p < int(numPhases); p++ {
		sum, comp = neumaierAdd(sum, comp, m.sum[p])
		sum, comp = neumaierAdd(sum, comp, m.comp[p])
	}
	return sum + comp
}

// registerEnergyMetrics exposes a meter's per-phase and total joules on a
// registry as scrape-time gauges.
func registerEnergyMetrics(r *Registry, m *EnergyMeter) {
	for p := Phase(0); p < numPhases; p++ {
		ph := p // capture per iteration
		r.GaugeFunc(`obs_energy_joules_total{phase="`+p.String()+`"}`,
			"simulated joules attributed per solver phase",
			func() float64 { return m.PhaseJoules(ph) })
	}
	r.GaugeFunc("obs_energy_joules_sum",
		"simulated joules attributed across all phases",
		func() float64 { return m.TotalJoules() })
}
