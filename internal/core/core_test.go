package core

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
	"time"

	"energysssp/internal/frontier"
	"energysssp/internal/gen"
	"energysssp/internal/graph"
	"energysssp/internal/metrics"
	"energysssp/internal/parallel"
	"energysssp/internal/sim"
	"energysssp/internal/sssp"
)

func assertSameDistances(t *testing.T, g *graph.Graph, src graph.VID, got []graph.Dist, label string) {
	t.Helper()
	want, err := sssp.Dijkstra(g, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	for v := range got {
		if got[v] != want.Dist[v] {
			t.Fatalf("%s: dist[%d] = %d, want %d", label, v, got[v], want.Dist[v])
		}
	}
}

func TestSolveValidation(t *testing.T) {
	g := gen.Grid(5, 5, 1, 10, 1)
	if _, err := Solve(g, 0, Config{P: 0}, nil); err == nil {
		t.Fatal("P=0 accepted")
	}
	if _, err := Solve(g, -1, Config{P: 100}, nil); err == nil {
		t.Fatal("bad source accepted")
	}
	if _, err := Solve(g, 99, Config{P: 100}, nil); err == nil {
		t.Fatal("out-of-range source accepted")
	}
}

func TestSolveMatchesDijkstraAcrossInputs(t *testing.T) {
	pool := parallel.NewPool(4)
	defer pool.Close()
	graphs := []*graph.Graph{
		gen.Grid(12, 17, 1, 30, 3),
		gen.Road(20, 20, 0.25, 1, 500, 4),
		gen.RMAT(9, 6, 0.57, 0.19, 0.19, 1, 99, 5),
		gen.ErdosRenyi(300, 2500, 1, 99, 6),
		gen.BarabasiAlbert(400, 3, 1, 99, 7),
	}
	for _, g := range graphs {
		for _, p := range []float64{4, 64, 5000} {
			res, err := Solve(g, 0, Config{P: p}, &sssp.Options{Pool: pool})
			if err != nil {
				t.Fatalf("%v P=%g: %v", g, p, err)
			}
			assertSameDistances(t, g, 0, res.Dist, g.Name())
		}
	}
}

func TestSolveMatchesDijkstraProperty(t *testing.T) {
	pool := parallel.NewPool(4)
	defer pool.Close()
	f := func(seed uint64, pRaw uint16, srcRaw uint8) bool {
		rng := rand.New(rand.NewPCG(seed, seed^55))
		n := rng.IntN(120) + 2
		m := rng.IntN(800)
		edges := make([]graph.Edge, m)
		for i := range edges {
			edges[i] = graph.Edge{
				U: graph.VID(rng.IntN(n)),
				V: graph.VID(rng.IntN(n)),
				W: graph.Weight(1 + rng.IntN(99)),
			}
		}
		g := graph.MustNew(n, edges)
		src := graph.VID(int(srcRaw) % n)
		p := float64(pRaw%2000) + 1
		res, err := Solve(g, src, Config{P: p}, &sssp.Options{Pool: pool})
		if err != nil {
			return false
		}
		want, err := sssp.Dijkstra(g, src, nil)
		if err != nil {
			return false
		}
		for v := 0; v < n; v++ {
			if res.Dist[v] != want.Dist[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// The headline claim (Figure 5): on the road network the controller holds
// the parallelism distribution near the set-point with far lower spread
// than the time-minimizing baseline. (The paper's Figure 5 is Cal; on tiny
// scale-free graphs most iterations are unavoidable ramp phases, as the
// paper's Wiki discussion acknowledges.)
func TestParallelismControlEfficacy(t *testing.T) {
	g := gen.CalLike(0.01, 42) // ~18k-vertex road network
	pool := parallel.NewPool(4)
	defer pool.Close()

	var base metrics.Profile
	if _, err := sssp.NearFar(g, 0, 2048, &sssp.Options{Pool: pool, Profile: &base}); err != nil {
		t.Fatal(err)
	}

	const P = 200
	var tuned metrics.Profile
	if _, err := Solve(g, 0, Config{P: P}, &sssp.Options{Pool: pool, Profile: &tuned}); err != nil {
		t.Fatal(err)
	}

	bs := metrics.Summarize(base.Parallelism())
	ts := metrics.Summarize(tuned.Parallelism())
	t.Logf("baseline: %v", bs)
	t.Logf("tuned(P=%d): %v", P, ts)

	// Median parallelism should sit near (within a factor-2 band of) P.
	if ts.Median < P/2 || ts.Median > P*2 {
		t.Fatalf("tuned median %.0f not near set-point %d", ts.Median, P)
	}
	// Variability (coefficient of variation) must drop vs baseline.
	if ts.CoefOfVar >= bs.CoefOfVar {
		t.Fatalf("tuned CV %.2f not below baseline CV %.2f", ts.CoefOfVar, bs.CoefOfVar)
	}
	// And the achieved median must land far above the baseline's.
	if ts.Median <= bs.Median*2 {
		t.Fatalf("tuned median %.0f not above baseline median %.0f", ts.Median, bs.Median)
	}
}

// Increasing P should increase achieved average parallelism (Figure 8's
// premise: P correlates with power because it correlates with utilization).
func TestSetPointMonotonicity(t *testing.T) {
	g := gen.CalLike(0.01, 43)
	pool := parallel.NewPool(4)
	defer pool.Close()
	var prevMean float64
	for _, p := range []float64{100, 400, 1600} {
		var prof metrics.Profile
		if _, err := Solve(g, 0, Config{P: p}, &sssp.Options{Pool: pool, Profile: &prof}); err != nil {
			t.Fatal(err)
		}
		s := metrics.Summarize(prof.Parallelism())
		t.Logf("P=%g mean=%.0f median=%.0f", p, s.Mean, s.Median)
		if s.Mean <= prevMean {
			t.Fatalf("mean parallelism %.0f did not grow at P=%g (prev %.0f)", s.Mean, p, prevMean)
		}
		prevMean = s.Mean
	}
}

func TestSolveWithMachineAccounting(t *testing.T) {
	g := gen.Grid(20, 20, 1, 50, 44)
	mach := sim.NewMachine(sim.TK1())
	var prof metrics.Profile
	res, err := Solve(g, 0, Config{P: 500}, &sssp.Options{Machine: mach, Profile: &prof})
	if err != nil {
		t.Fatal(err)
	}
	if res.SimTime <= 0 || res.EnergyJ <= 0 || res.AvgPowerW < sim.TK1().IdleWatts {
		t.Fatalf("sim accounting: %+v", res)
	}
	if mach.HostTime() <= 0 {
		t.Fatal("controller host time not charged")
	}
	if prof.Len() != res.Iterations {
		t.Fatalf("profile %d vs iterations %d", prof.Len(), res.Iterations)
	}
	assertSameDistances(t, g, 0, res.Dist, "with-machine")
}

func TestSolveDisablePartitioning(t *testing.T) {
	g := gen.Road(15, 15, 0.25, 1, 200, 45)
	res, err := Solve(g, 0, Config{P: 300, DisablePartitioning: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertSameDistances(t, g, 0, res.Dist, "no-partitioning")
}

func TestControllerClampsAndBootstrap(t *testing.T) {
	c := NewController(1000, 8, 1)
	if c.P != 1000 {
		t.Fatal("P not stored")
	}
	// Degenerate constructor inputs clamp.
	c2 := NewController(0, -1, -1)
	if c2.P != 1 || c2.D() <= 0 || c2.Alpha() <= 0 {
		t.Fatalf("clamps failed: P=%g d=%g a=%g", c2.P, c2.D(), c2.Alpha())
	}
	// D clamps at 0.25 even if the model collapses.
	for i := 0; i < 50; i++ {
		c.Observe(1000, 0) // frontier annihilates every time
	}
	if c.D() < 0.25 {
		t.Fatalf("D = %g below clamp", c.D())
	}
}

func TestNextDeltaDirection(t *testing.T) {
	// With X4 far below target, delta must grow; far above, shrink.
	c := NewController(10000, 10, 5)
	for i := 0; i < 10; i++ {
		c.Observe(100, 1000) // learn d ~ 10
	}
	grow := c.NextDelta(QueueState{X4: 10, FarLen: 50, Delta: 100, PartBound: 200, PartSize: 50})
	if grow <= 100 {
		t.Fatalf("delta should grow: %g", grow)
	}
	shrink := c.NextDelta(QueueState{X4: 100000, FarLen: 50, Delta: 100, PartBound: 200, PartSize: 50})
	if shrink >= 100 {
		t.Fatalf("delta should shrink: %g", shrink)
	}
	if shrink < 1 {
		t.Fatalf("delta fell below 1: %g", shrink)
	}
	// With an empty far queue, growth is pointless and must be held.
	hold := c.NextDelta(QueueState{X4: 10, FarLen: 0, Delta: 100, PartBound: 200, PartSize: 0})
	if hold != 100 {
		t.Fatalf("delta should hold with empty far queue: %g", hold)
	}
}

func TestNextDeltaClampedToFactorTwo(t *testing.T) {
	c := NewController(1e9, 1, 1e-9) // absurd target, tiny alpha -> huge dd
	c.BootstrapIters = 0
	for i := 0; i < 10; i++ {
		c.Observe(10, 10)
	}
	next := c.NextDelta(QueueState{X4: 1, FarLen: 1 << 20, Delta: 64})
	if next > 128 {
		t.Fatalf("delta jumped more than 2x: %g", next)
	}
	nextDown := c.NextDelta(QueueState{X4: 1 << 30, Delta: 64})
	if nextDown < 32 {
		t.Fatalf("delta shrank more than 2x: %g", nextDown)
	}
}

func TestMaintainBoundariesExtendsRunway(t *testing.T) {
	c := NewController(100, 8, 2) // boundary step = P/alpha = 50
	for i := 0; i < 20; i++ {
		c.Observe(10, 80)
		c.bisect.Observe(10, 20) // teach alpha = 2
	}
	q := frontier.GetPartitioned(10)
	before := q.NumPartitions()
	c.MaintainBoundaries(q, 5)
	if q.NumPartitions() <= before {
		t.Fatal("no partition appended")
	}
	// The new finite bound must exceed the old one.
	if q.Bound(1) <= q.Bound(0) || q.Bound(q.NumPartitions()-1) != graph.Inf {
		t.Fatalf("bounds broken: %d, %d", q.Bound(0), q.Bound(1))
	}
	// Far enough runway -> no more appends.
	n := q.NumPartitions()
	c.MaintainBoundaries(q, 5)
	c.MaintainBoundaries(q, 5)
	if q.NumPartitions() > n+2 {
		t.Fatalf("boundaries grow without bound: %d", q.NumPartitions())
	}
}

func TestMaintainBoundariesRespectsCap(t *testing.T) {
	c := NewController(100, 8, 2)
	q := frontier.GetPartitioned(10)
	for i := 0; i < 500; i++ {
		c.MaintainBoundaries(q, float64(i*1000))
	}
	if q.NumPartitions() > maxPartitions {
		t.Fatalf("partition cap exceeded: %d", q.NumPartitions())
	}
}

func TestAlphaEstimateBootstrap(t *testing.T) {
	c := NewController(100, 10, 1)
	// During bootstrap with X4 >= target: alpha = X4/delta.
	a := c.alphaEstimate(QueueState{X4: 50, Delta: 25}, 10)
	if math.Abs(a-2.0) > 1e-9 {
		t.Fatalf("Eq.8 branch 1: alpha = %g, want 2", a)
	}
	// X4 < target: alpha = S_i / (B_i - delta).
	a = c.alphaEstimate(QueueState{X4: 1, Delta: 25, PartBound: 125, PartSize: 300}, 10)
	if math.Abs(a-3.0) > 1e-9 {
		t.Fatalf("Eq.8 branch 2: alpha = %g, want 3", a)
	}
	// Degenerate span falls back to the model.
	a = c.alphaEstimate(QueueState{X4: 1, Delta: 200, PartBound: 100, PartSize: 300}, 10)
	if a <= 0 {
		t.Fatalf("fallback alpha = %g", a)
	}
}

func TestDistOf(t *testing.T) {
	if distOf(0.5) != 1 || distOf(-3) != 1 {
		t.Fatal("low clamp")
	}
	if distOf(float64(graph.Inf)*2) != graph.Inf {
		t.Fatal("high clamp")
	}
	if distOf(42.7) != 42 {
		t.Fatal("truncation")
	}
}

func TestSolveOnDisconnectedGraph(t *testing.T) {
	g := graph.MustNew(6, []graph.Edge{{U: 0, V: 1, W: 3}, {U: 4, V: 5, W: 2}})
	res, err := Solve(g, 0, Config{P: 10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reached != 2 {
		t.Fatalf("reached = %d, want 2", res.Reached)
	}
	if res.Dist[5] != graph.Inf {
		t.Fatal("unreachable vertex has finite distance")
	}
}

// Property: every self-tuning profile satisfies the structural invariants
// of Section 3.1 — X3 <= X2 (filter only removes), X4 <= X3 (bisect only
// splits), the threshold stays >= 1, and simulated time/energy are
// monotone.
func TestProfileInvariantsProperty(t *testing.T) {
	f := func(seed uint64, pRaw uint16) bool {
		rng := rand.New(rand.NewPCG(seed, 21))
		n := rng.IntN(200) + 2
		m := rng.IntN(1000)
		edges := make([]graph.Edge, m)
		for i := range edges {
			edges[i] = graph.Edge{
				U: graph.VID(rng.IntN(n)), V: graph.VID(rng.IntN(n)),
				W: graph.Weight(1 + rng.IntN(99)),
			}
		}
		g := graph.MustNew(n, edges)
		var prof metrics.Profile
		mach := sim.NewMachine(sim.TK1())
		_, err := Solve(g, 0, Config{P: float64(pRaw%4000) + 1},
			&sssp.Options{Machine: mach, Profile: &prof})
		if err != nil {
			return false
		}
		var lastT, lastJ = time.Duration(0), 0.0
		for _, it := range prof.Iters {
			if it.X3 > it.X2 || it.X4 > it.X3 {
				return false
			}
			if it.Delta < 1 {
				return false
			}
			if it.SimTime < lastT || it.EnergyJ < lastJ {
				return false
			}
			if it.DHat <= 0 || it.AlphaHat <= 0 {
				return false
			}
			lastT, lastJ = it.SimTime, it.EnergyJ
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSolveTinyGraphs(t *testing.T) {
	// Single vertex, no edges.
	g := graph.MustNew(1, nil)
	res, err := Solve(g, 0, Config{P: 100}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dist[0] != 0 || res.Reached != 1 {
		t.Fatalf("singleton: %+v", res)
	}
	// Self loop only.
	g2 := graph.MustNew(1, []graph.Edge{{U: 0, V: 0, W: 5}})
	if _, err := Solve(g2, 0, Config{P: 100}, nil); err != nil {
		t.Fatal(err)
	}
}
