package core

import (
	"math"
	"math/rand/v2"
	"testing"

	"energysssp/internal/dvfs"
	"energysssp/internal/frontier"
	"energysssp/internal/gen"
	"energysssp/internal/graph"
	"energysssp/internal/metrics"
	"energysssp/internal/sim"
	"energysssp/internal/sssp"
)

// chaosPolicy drives the threshold with adversarial randomness: random
// walks, collapses to 1, huge jumps, NaN and +Inf. Solve must stay correct
// and terminate regardless.
type chaosPolicy struct {
	rng *rand.Rand
}

func (c *chaosPolicy) Observe(int, int)        {}
func (c *chaosPolicy) SetApplied(_, _ float64) {}
func (c *chaosPolicy) NextDelta(q QueueState) float64 {
	switch c.rng.IntN(7) {
	case 0:
		return 1 // collapse
	case 1:
		return q.Delta * 1000 // huge jump forward
	case 2:
		return q.Delta / 2 // retreat
	case 3:
		return -1e18 // hostile: negative (solver must clamp)
	case 4:
		return math.NaN() // hostile: no threshold at all (solver must clamp)
	case 5:
		return math.Inf(1) // hostile: unbounded (solver must clamp)
	default:
		return q.Delta + float64(c.rng.IntN(100))
	}
}

func TestSolveSurvivesChaosPolicy(t *testing.T) {
	graphs := []*graph.Graph{
		gen.Road(16, 16, 0.25, 1, 500, 3),
		gen.RMAT(8, 6, 0.57, 0.19, 0.19, 1, 99, 4),
	}
	for _, g := range graphs {
		for seed := uint64(0); seed < 5; seed++ {
			cfg := Config{Policy: &chaosPolicy{rng: rand.New(rand.NewPCG(seed, 77))}}
			res, err := Solve(g, 0, cfg, nil)
			if err != nil {
				t.Fatalf("%v seed %d: %v", g, seed, err)
			}
			assertSameDistances(t, g, 0, res.Dist, "chaos")
		}
	}
}

// stuckPolicy never advances the threshold at all: the solver's phase-jump
// logic alone must guarantee termination (it becomes plain near-far with
// delta-by-necessity).
type stuckPolicy struct{}

func (stuckPolicy) Observe(int, int)               {}
func (stuckPolicy) SetApplied(_, _ float64)        {}
func (stuckPolicy) NextDelta(q QueueState) float64 { return q.Delta }

func TestSolveSurvivesStuckPolicy(t *testing.T) {
	g := gen.Road(20, 20, 0.25, 1, 1000, 5)
	res, err := Solve(g, 0, Config{Policy: stuckPolicy{}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertSameDistances(t, g, 0, res.Dist, "stuck")
}

func TestOneShotPolicyCorrectAndFrozen(t *testing.T) {
	g := gen.CalLike(0.005, 11)
	inner := NewController(500, 2.5, 1)
	one := NewOneShot(inner, 15)
	res, err := Solve(g, 0, Config{Policy: one}, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertSameDistances(t, g, 0, res.Dist, "oneshot")
	if res.Iterations > 15 && one.FrozenStep() <= 0 {
		t.Fatalf("step never froze after warmup (iters=%d)", res.Iterations)
	}
}

func TestOneShotDefaults(t *testing.T) {
	o := NewOneShot(NewController(100, 2, 1), 0)
	if o.Warmup != 64 {
		t.Fatalf("default warmup = %d", o.Warmup)
	}
	if medianOf(nil) != 0 {
		t.Fatal("empty median")
	}
	if medianOf([]float64{3, 1, 2}) != 2 {
		t.Fatal("median of 3")
	}
}

// The per-iteration controller should track the set-point more tightly
// than the one-shot (KLA-style) frozen variant — the paper's argument for
// iteration-by-iteration tuning.
func TestPerIterationBeatsOneShotTracking(t *testing.T) {
	g := gen.CalLike(0.01, 12)
	const P = 400

	var tunedProf metrics.Profile
	if _, err := Solve(g, 0, Config{P: P}, &sssp.Options{Profile: &tunedProf}); err != nil {
		t.Fatal(err)
	}
	var oneProf metrics.Profile
	one := NewOneShot(NewController(P, 2.5, 1), 15)
	if _, err := Solve(g, 0, Config{Policy: one}, &sssp.Options{Profile: &oneProf}); err != nil {
		t.Fatal(err)
	}

	dev := func(p *metrics.Profile) float64 {
		// Mean absolute deviation of X2 from the set-point, ignoring the
		// unavoidable ramp-in.
		xs := p.Parallelism()
		if len(xs) < 20 {
			t.Fatalf("too few iterations: %d", len(xs))
		}
		var sum float64
		for _, x := range xs[10:] {
			sum += math.Abs(x - P)
		}
		return sum / float64(len(xs)-10)
	}
	tunedDev, oneDev := dev(&tunedProf), dev(&oneProf)
	t.Logf("deviation from P: per-iteration=%.1f one-shot=%.1f", tunedDev, oneDev)
	if tunedDev >= oneDev {
		t.Fatalf("per-iteration tuning (%.1f) not tighter than one-shot (%.1f)", tunedDev, oneDev)
	}
}

func TestSolveWithPowerCapMeetsBudget(t *testing.T) {
	g := gen.CalLike(0.01, 13)
	mach := sim.NewMachine(sim.TK1())
	// The algorithmic knob composes with DVFS: under the automatic
	// governor, lower P -> lower utilization -> lower clocks -> lower
	// power. (At a pinned maximum frequency the active-rail floor alone
	// exceeds this budget, so the governor is part of the loop.)
	mach.SetGovernor(dvfs.NewOndemand())
	const cap = 3.8
	res, pTrace, err := SolveWithPowerCap(g, 0, PowerCapConfig{CapWatts: cap}, &sssp.Options{Machine: mach})
	if err != nil {
		t.Fatal(err)
	}
	assertSameDistances(t, g, 0, res.Dist, "powercap")
	if len(pTrace) == 0 {
		t.Fatal("no set-point adjustments recorded")
	}
	if res.AvgPowerW > cap*1.08 {
		t.Fatalf("average power %.2f W exceeds cap %.2f W by more than 8%%", res.AvgPowerW, cap)
	}
	t.Logf("avg power %.2f W under cap %.2f W; %d adjustments, final P=%.0f",
		res.AvgPowerW, cap, len(pTrace), pTrace[len(pTrace)-1])
}

func TestSolveWithPowerCapValidation(t *testing.T) {
	g := gen.Grid(5, 5, 1, 9, 1)
	if _, _, err := SolveWithPowerCap(g, 0, PowerCapConfig{CapWatts: 4}, nil); err == nil {
		t.Fatal("missing machine accepted")
	}
	mach := sim.NewMachine(sim.TK1())
	if _, _, err := SolveWithPowerCap(g, 0, PowerCapConfig{}, &sssp.Options{Machine: mach}); err == nil {
		t.Fatal("zero cap accepted")
	}
}

func TestPowerCapConfigDefaults(t *testing.T) {
	pc := PowerCapConfig{CapWatts: 5}.withDefaults()
	if pc.Window != 16 || pc.InitialP != 1024 || pc.MinP != 32 || pc.Gamma != 1 {
		t.Fatalf("defaults: %+v", pc)
	}
}

func TestBoundaryMaintainerInterface(t *testing.T) {
	// Controller implements both interfaces; OneShot deliberately does
	// not maintain boundaries itself (its inner controller is consulted
	// only during warmup decisions).
	var p Policy = NewController(10, 1, 1)
	if _, ok := p.(boundaryMaintainer); !ok {
		t.Fatal("Controller must maintain boundaries")
	}
	q := frontier.GetPartitioned(10)
	p.(boundaryMaintainer).MaintainBoundaries(q, 1)
}
