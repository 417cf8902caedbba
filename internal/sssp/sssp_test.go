package sssp

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"energysssp/internal/gen"
	"energysssp/internal/graph"
	"energysssp/internal/metrics"
	"energysssp/internal/parallel"
	"energysssp/internal/sim"
)

// line returns the path graph 0 -> 1 -> 2 ... with weight 2 per hop.
func line(n int) *graph.Graph {
	edges := make([]graph.Edge, 0, n-1)
	for i := 0; i < n-1; i++ {
		edges = append(edges, graph.Edge{U: graph.VID(i), V: graph.VID(i + 1), W: 2})
	}
	return graph.MustNew(n, edges)
}

func TestDijkstraLine(t *testing.T) {
	g := line(5)
	res, err := Dijkstra(g, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if res.Dist[i] != graph.Dist(2*i) {
			t.Fatalf("dist[%d] = %d, want %d", i, res.Dist[i], 2*i)
		}
	}
	if res.Reached != 5 {
		t.Fatalf("reached = %d", res.Reached)
	}
	if res.String() == "" {
		t.Fatal("String empty")
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	g := graph.MustNew(3, []graph.Edge{{U: 0, V: 1, W: 4}})
	res, err := Dijkstra(g, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dist[2] != graph.Inf || res.Reached != 2 {
		t.Fatalf("unreachable handling: dist=%v reached=%d", res.Dist, res.Reached)
	}
}

func TestSourceValidation(t *testing.T) {
	g := line(4)
	if _, err := Dijkstra(g, -1, nil); err == nil {
		t.Fatal("negative source accepted by Dijkstra")
	}
	if _, err := Dijkstra(g, 4, nil); err == nil {
		t.Fatal("source == n accepted by Dijkstra")
	}
	if _, err := NearFar(g, 9, 4, nil); err == nil {
		t.Fatal("out-of-range source accepted by NearFar")
	}
}

func TestDeltaValidation(t *testing.T) {
	g := line(4)
	if _, err := NearFar(g, 0, 0, nil); err == nil {
		t.Fatal("delta=0 accepted by NearFar")
	}
	if _, err := NearFar(g, 0, -3, nil); err == nil {
		t.Fatal("negative delta accepted by NearFar")
	}
}

// assertSameDistances differential-tests a result against Dijkstra.
func assertSameDistances(t *testing.T, g *graph.Graph, src graph.VID, got []graph.Dist, label string) {
	t.Helper()
	want, err := Dijkstra(g, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	for v := range got {
		if got[v] != want.Dist[v] {
			t.Fatalf("%s: dist[%d] = %d, want %d", label, v, got[v], want.Dist[v])
		}
	}
}

func testGraphs(t *testing.T) []*graph.Graph {
	t.Helper()
	return []*graph.Graph{
		line(50),
		gen.Grid(12, 17, 1, 30, 3),
		gen.Road(20, 20, 0.25, 1, 500, 4),
		gen.RMAT(9, 6, 0.57, 0.19, 0.19, 1, 99, 5),
		gen.ErdosRenyi(300, 2500, 1, 99, 6),
		gen.BarabasiAlbert(400, 3, 1, 99, 7),
	}
}

func TestNearFarMatchesDijkstra(t *testing.T) {
	pool := parallel.NewPool(4)
	defer pool.Close()
	for _, g := range testGraphs(t) {
		for _, delta := range []graph.Dist{1, 5, 37, 1000, 1 << 40} {
			res, err := NearFar(g, 0, delta, &Options{Pool: pool})
			if err != nil {
				t.Fatalf("%v delta=%d: %v", g, delta, err)
			}
			assertSameDistances(t, g, 0, res.Dist, "nearfar/"+g.Name())
		}
	}
}

func TestNearFarSingleThreaded(t *testing.T) {
	g := gen.Grid(10, 10, 1, 20, 8)
	res, err := NearFar(g, 0, 10, nil) // nil options: sequential
	if err != nil {
		t.Fatal(err)
	}
	assertSameDistances(t, g, 0, res.Dist, "nearfar-seq")
}

func TestNearFarFromEveryCorner(t *testing.T) {
	g := gen.Road(12, 12, 0.3, 1, 100, 9)
	pool := parallel.NewPool(2)
	defer pool.Close()
	for _, src := range []graph.VID{0, 11, 143, 77} {
		res, err := NearFar(g, src, 50, &Options{Pool: pool})
		if err != nil {
			t.Fatal(err)
		}
		assertSameDistances(t, g, src, res.Dist, "nearfar-src")
	}
}

func TestNearFarRedundantWorkGrowsWithDelta(t *testing.T) {
	g := gen.RMAT(10, 8, 0.57, 0.19, 0.19, 1, 99, 10)
	small, err := NearFar(g, 0, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	huge, err := NearFar(g, 0, 1<<40, nil)
	if err != nil {
		t.Fatal(err)
	}
	// delta -> infinity degenerates to Bellman-Ford: more redundant
	// relaxation work, fewer iterations.
	if huge.Iterations >= small.Iterations {
		t.Fatalf("iterations: huge=%d small=%d", huge.Iterations, small.Iterations)
	}
	if huge.EdgesRelaxed <= small.EdgesRelaxed {
		t.Fatalf("edges relaxed: huge=%d small=%d", huge.EdgesRelaxed, small.EdgesRelaxed)
	}
}

func TestNearFarProfileRecorded(t *testing.T) {
	g := gen.Grid(15, 15, 1, 20, 11)
	var prof metrics.Profile
	mach := sim.NewMachine(sim.TK1())
	res, err := NearFar(g, 0, 30, &Options{Profile: &prof, Machine: mach})
	if err != nil {
		t.Fatal(err)
	}
	if prof.Len() != res.Iterations {
		t.Fatalf("profile %d entries, %d iterations", prof.Len(), res.Iterations)
	}
	if res.SimTime <= 0 || res.EnergyJ <= 0 || res.AvgPowerW <= 0 {
		t.Fatalf("missing sim accounting: %+v", res)
	}
	var x1sum int
	for _, it := range prof.Iters {
		if it.X1 <= 0 {
			t.Fatalf("iteration %d has empty input frontier", it.K)
		}
		if it.X3 > it.X2 {
			t.Fatalf("iteration %d: X3=%d > X2=%d", it.K, it.X3, it.X2)
		}
		x1sum += it.X1
	}
	if x1sum == 0 {
		t.Fatal("no work recorded")
	}
	// Cumulative series must be monotone.
	for i := 1; i < prof.Len(); i++ {
		if prof.Iters[i].SimTime < prof.Iters[i-1].SimTime {
			t.Fatal("SimTime series not monotone")
		}
	}
}

// labelCorrectingDelta is a near-far delta above every finite distance of
// the test graphs. At it NearFar never pushes to its far queue and runs
// the rounds of frontier-parallel Bellman-Ford: each round advances every
// vertex the previous round updated.
const labelCorrectingDelta graph.Dist = 1 << 45

// TestNearFarInfiniteDeltaIsLabelCorrecting checks that equivalence
// against plain Advance rounds: the same distances, round count, edge
// count and update count.
func TestNearFarInfiniteDeltaIsLabelCorrecting(t *testing.T) {
	g := gen.ErdosRenyi(200, 1500, 1, 50, 12)
	nf, err := NearFar(g, 0, labelCorrectingDelta, nil)
	if err != nil {
		t.Fatal(err)
	}
	dist := newDist(g.NumVertices(), 0)
	kn := NewKernels(g, parallel.NewPool(1), nil, dist)
	defer kn.Release()
	var rounds int
	var edges, updates int64
	for front := []graph.VID{0}; len(front) > 0; rounds++ {
		adv := kn.Advance(front)
		edges += adv.Edges
		updates += int64(adv.X2)
		front = append(front[:0], adv.Out...)
	}
	for v := range dist {
		if dist[v] != nf.Dist[v] {
			t.Fatalf("dist mismatch at %d", v)
		}
	}
	if nf.Iterations != rounds || nf.EdgesRelaxed != edges || nf.Updates != updates {
		t.Fatalf("near-far iterations/edges/updates %d/%d/%d, label-correcting rounds %d/%d/%d",
			nf.Iterations, nf.EdgesRelaxed, nf.Updates, rounds, edges, updates)
	}
}

// Property: near-far agrees with Dijkstra on random graphs with random
// deltas and sources, and at the label-correcting delta.
func TestSolversAgreeProperty(t *testing.T) {
	pool := parallel.NewPool(4)
	defer pool.Close()
	f := func(seed uint64, deltaRaw uint16, srcRaw uint8) bool {
		rng := rand.New(rand.NewPCG(seed, seed^123))
		n := rng.IntN(150) + 2
		m := rng.IntN(900)
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
		delta := graph.Dist(deltaRaw%500) + 1

		want, err := Dijkstra(g, src, nil)
		if err != nil {
			return false
		}
		nf, err := NearFar(g, src, delta, &Options{Pool: pool})
		if err != nil {
			return false
		}
		lc, err := NearFar(g, src, labelCorrectingDelta, &Options{Pool: pool})
		if err != nil {
			return false
		}
		for v := 0; v < n; v++ {
			if nf.Dist[v] != want.Dist[v] || lc.Dist[v] != want.Dist[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestKernelsAdvanceCountsAndDedup(t *testing.T) {
	// Star: 0 -> {1..4} twice via parallel edges; X2 counts wins, Out is
	// deduplicated.
	edges := []graph.Edge{}
	for v := graph.VID(1); v <= 4; v++ {
		edges = append(edges, graph.Edge{U: 0, V: v, W: 10}, graph.Edge{U: 0, V: v, W: 5})
	}
	g := graph.MustNew(5, edges)
	dist := []graph.Dist{0, graph.Inf, graph.Inf, graph.Inf, graph.Inf}
	pool := parallel.NewPool(1)
	kn := NewKernels(g, pool, nil, dist)
	adv := kn.Advance([]graph.VID{0})
	if adv.Edges != 8 {
		t.Fatalf("edges = %d, want 8", adv.Edges)
	}
	if adv.X2 != 8 { // both parallel edges win (10 then 5, or just 5: order!)
		// Sequential order: w=10 wins then w=5 improves -> 2 wins per
		// vertex with this edge order.
		t.Fatalf("X2 = %d, want 8", adv.X2)
	}
	if len(adv.Out) != 4 {
		t.Fatalf("Out = %v, want 4 unique", adv.Out)
	}
	for v := graph.VID(1); v <= 4; v++ {
		if dist[v] != 5 {
			t.Fatalf("dist[%d] = %d, want 5", v, dist[v])
		}
	}
	// The next filter call's epoch must make the first call's marks
	// stale: advancing the same frontier again must dedup identically.
	dist[1], dist[2], dist[3], dist[4] = graph.Inf, graph.Inf, graph.Inf, graph.Inf
	adv2 := kn.Advance([]graph.VID{0})
	if len(adv2.Out) != 4 {
		t.Fatalf("marks of the previous filter call still count: Out = %v", adv2.Out)
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	if o.pool().Size() != 1 {
		t.Fatal("default pool should be sequential")
	}
	g := line(10)
	if o.maxIters(g) <= g.NumVertices() {
		t.Fatal("default guard too small")
	}
	o.MaxIters = 7
	if o.maxIters(g) != 7 {
		t.Fatal("MaxIters override ignored")
	}
}

func TestLivelockGuardTriggers(t *testing.T) {
	g := gen.Grid(30, 30, 1, 50, 13)
	_, err := NearFar(g, 0, 1, &Options{MaxIters: 3})
	if err == nil {
		t.Fatal("guard did not trigger")
	}
}
