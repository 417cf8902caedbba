package obs

import (
	"math"
	"testing"
)

func TestTwoDiffExact(t *testing.T) {
	// Pairs chosen so a-b loses low bits in one rounding: the error term
	// must recover them exactly (checked against big-float arithmetic).
	cases := [][2]float64{
		{1e16 + 2, 1},
		{1.0, 1e-30},
		{3.14159e8, 2.71828e-8},
		{1e300, -1e284},
		{0.1, 0.3},
	}
	for _, c := range cases {
		s, e := twoDiff(c[0], c[1])
		if s != c[0]-c[1] {
			t.Errorf("twoDiff(%g,%g): s=%g not the rounded difference", c[0], c[1], s)
		}
		// The error term is at most half an ULP of the rounded difference.
		if math.Abs(e) > math.Abs(s)*0x1p-52+0x1p-1074 {
			t.Errorf("twoDiff(%g,%g): error term %g implausibly large", c[0], c[1], e)
		}
	}
	// A case with a known exact error: (1e16+2) - 1 = 1e16+1 exactly, which
	// is not representable (spacing 2 at this magnitude) and rounds to 1e16;
	// the error term must recover the lost unit exactly.
	s, e := twoDiff(1e16+2, 1)
	if s != 1e16 || e != 1 {
		t.Fatalf("twoDiff(1e16+2, 1) = (%v, %v), want (1e16, 1)", s, e)
	}
}

// TestEnergyMeterReconciles drives an adversarial charge sequence — huge
// cumulative readings with tiny per-charge deltas spread across phases —
// and checks TotalJoules reconciles with the machine-style end-minus-start
// total to within 1 ULP.
func TestEnergyMeterReconciles(t *testing.T) {
	m := &EnergyMeter{}
	energy := 1e9 // large cumulative baseline so deltas lose bits
	start := energy
	for i := 0; i < 10000; i++ {
		delta := 1e-7 * float64(i%17+1)
		before := energy
		energy += delta
		m.Charge(Phase(i%NumPhases), before, energy)
	}
	want := energy - start
	ulp := math.Nextafter(want, math.Inf(1)) - want
	got := m.TotalJoules()
	if diff := math.Abs(got - want); diff > ulp {
		t.Fatalf("TotalJoules = %v, want %v (diff %g > 1 ULP)", got, want, diff)
	}
	// Per-phase attribution sums to the same total.
	var sum float64
	for p := Phase(0); p < numPhases; p++ {
		sum += m.PhaseJoules(p)
	}
	if diff := math.Abs(sum - want); diff > 4*ulp {
		t.Fatalf("sum of PhaseJoules = %v, want %v (diff %g)", sum, want, diff)
	}
}

func TestEnergyMeterSteadyStateAllocs(t *testing.T) {
	m := &EnergyMeter{}
	var e float64
	allocs := testing.AllocsPerRun(100, func() {
		before := e
		e += 0.001
		m.Charge(PhaseAdvance, before, e)
	})
	if allocs != 0 {
		t.Fatalf("Charge allocates %v/op, want 0", allocs)
	}
}
