package sssp

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"testing"

	"energysssp/internal/gen"
	"energysssp/internal/graph"
	"energysssp/internal/metrics"
	"energysssp/internal/obs"
	"energysssp/internal/parallel"
)

// settledState builds a deterministic mid-solve snapshot: exact distances
// for every vertex within the D-ball of src (settled), Inf elsewhere, with
// the settled set as the frontier. Settled vertices cannot be lowered
// during an advance (their distances are already optimal), so the result
// of one AdvanceRange over this state is schedule-independent — the exact
// property the vertex/edge differential needs.
func settledState(t *testing.T, g *graph.Graph, src graph.VID) (dist []graph.Dist, front []graph.VID) {
	t.Helper()
	res, err := Dijkstra(g, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	exact := res.Dist
	var finite []graph.Dist
	for _, d := range exact {
		if d < graph.Inf {
			finite = append(finite, d)
		}
	}
	if len(finite) < 8 {
		t.Fatalf("graph too disconnected from src %d: %d reachable", src, len(finite))
	}
	sort.Slice(finite, func(i, j int) bool { return finite[i] < finite[j] })
	thr := finite[len(finite)/2]
	dist = make([]graph.Dist, len(exact))
	for v, d := range exact {
		if d <= thr {
			dist[v] = d
			front = append(front, graph.VID(v))
		} else {
			dist[v] = graph.Inf
		}
	}
	return dist, front
}

// refAdvance computes the schedule-independent expected outcome of one
// AdvanceRange over a settled state: dist'[v] = min(dist[v], min over
// frontier u with edge u->v in [wlo,whi] of dist[u]+w), and the updated
// set {v : dist'[v] < dist[v]}.
func refAdvance(g *graph.Graph, dist []graph.Dist, front []graph.VID, wlo, whi graph.Weight) (want []graph.Dist, updated map[graph.VID]bool, edges int64) {
	want = append([]graph.Dist(nil), dist...)
	updated = make(map[graph.VID]bool)
	for _, u := range front {
		vs, ws := g.Neighbors(u)
		edges += int64(len(vs))
		for j, v := range vs {
			if ws[j] < wlo || ws[j] > whi {
				continue
			}
			if nd := dist[u] + graph.Dist(ws[j]); nd < want[v] {
				want[v] = nd
				updated[v] = true
			}
		}
	}
	return want, updated, edges
}

// TestAdvanceStrategiesAgree is the differential property test of the
// advance paths: over random graphs (scale-free, uniform-random,
// road-like) and random weight ranges, the sequential, vertex-dynamic and
// edge-balanced paths must produce the same distance array and the same
// deduplicated frontier set at every pool size, including 1, and must
// charge the same edge count. The sequential case raises the auto
// chooser's frontier bound past the test frontier, so it runs the plain
// kernel on pools of every size.
func TestAdvanceStrategiesAgree(t *testing.T) {
	// seqMax overrides the auto chooser's sequential frontier bound
	// (-1 keeps the graph's default): 0 sends every auto advance above one
	// chunk through the scan-based vertex/edge choice, MaxInt pins the
	// plain sequential kernel.
	advanceCases := []struct {
		name   string
		force  Strategy
		seqMax int
	}{
		{"vertex", StrategyVertex, -1},
		{"edge", StrategyEdge, -1},
		{"auto", StrategyAuto, -1},
		{"auto-parallel", StrategyAuto, 0},
		{"sequential", StrategyAuto, math.MaxInt},
	}
	graphs := []*graph.Graph{
		gen.RMAT(10, 8, 0.57, 0.19, 0.19, 1, 99, 3),
		gen.ErdosRenyi(2000, 12000, 1, 50, 5),
		gen.Road(40, 50, 0.1, 1, 100, 7),
	}
	ranges := [][2]graph.Weight{{1, 1<<31 - 1}, {1, 20}, {21, 1<<31 - 1}}
	for gi, g := range graphs {
		dist0, front := settledState(t, g, 0)
		for _, wr := range ranges {
			want, updated, wantEdges := refAdvance(g, dist0, front, wr[0], wr[1])
			for _, ps := range []int{1, 2, 3, 4} {
				for _, c := range advanceCases {
					pool := parallel.NewPool(ps)
					dist := append([]graph.Dist(nil), dist0...)
					kn := NewKernels(g, pool, nil, dist)
					kn.Force = c.force
					if c.seqMax >= 0 {
						kn.seqMaxFront = c.seqMax
					}
					adv := kn.AdvanceRange(front, wr[0], wr[1])
					if adv.Edges != wantEdges {
						t.Errorf("graph %d range %v pool %d %s: edges %d, want %d",
							gi, wr, ps, c.name, adv.Edges, wantEdges)
					}
					for v := range dist {
						if dist[v] != want[v] {
							t.Fatalf("graph %d range %v pool %d %s: dist[%d]=%d, want %d",
								gi, wr, ps, c.name, v, dist[v], want[v])
						}
					}
					if len(adv.Out) != len(updated) {
						t.Fatalf("graph %d range %v pool %d %s: |Out|=%d, want %d",
							gi, wr, ps, c.name, len(adv.Out), len(updated))
					}
					for _, v := range adv.Out {
						if !updated[v] {
							t.Fatalf("graph %d range %v pool %d %s: unexpected frontier vertex %d",
								gi, wr, ps, c.name, v)
						}
					}
					if c.force == StrategyEdge && ps > 1 && !adv.EdgeBalanced {
						t.Errorf("graph %d pool %d: forced edge strategy did not run edge path", gi, ps)
					}
					if c.name != "auto" {
						if wantSeq := ps == 1 || c.name == "sequential"; adv.Sequential != wantSeq {
							t.Errorf("graph %d pool %d %s: sequential path %v, want %v", gi, ps, c.name, adv.Sequential, wantSeq)
						}
					}
					kn.Release()
					pool.Close()
				}
			}
		}
	}
}

// TestSolversAgreeUnderEdgeStrategy runs complete solves with the advance
// strategy pinned each way (covering the mid-solve regime where frontier
// vertices are still improving) and checks exact distances against the
// Dijkstra oracle.
func TestSolversAgreeUnderEdgeStrategy(t *testing.T) {
	g := gen.RMAT(11, 8, 0.57, 0.19, 0.19, 1, 99, 9)
	oracle, err := Dijkstra(g, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, ps := range []int{1, 4} {
		for _, strat := range []Strategy{StrategyVertex, StrategyEdge, StrategyAuto} {
			pool := parallel.NewPool(ps)
			opt := &Options{Pool: pool, Advance: strat}
			nf, err := NearFar(g, 0, 30, opt)
			if err != nil {
				t.Fatalf("NearFar pool %d %v: %v", ps, strat, err)
			}
			bf, err := BellmanFord(g, 0, &Options{Pool: pool, Advance: strat})
			if err != nil {
				t.Fatalf("BellmanFord pool %d %v: %v", ps, strat, err)
			}
			for v, d := range oracle.Dist {
				if nf.Dist[v] != d {
					t.Fatalf("NearFar pool %d %v: dist[%d]=%d, want %d", ps, strat, v, nf.Dist[v], d)
				}
				if bf.Dist[v] != d {
					t.Fatalf("BellmanFord pool %d %v: dist[%d]=%d, want %d", ps, strat, v, bf.Dist[v], d)
				}
			}
			pool.Close()
		}
	}
}

// TestAdaptiveSchedulerChoices checks the StrategyAuto decision on the two
// canonical shapes: a scale-free input must route big skewed frontiers to
// the edge-balanced path, and a road-like input (uniform degree <= 4, skew
// far below the threshold) must stay entirely on the vertex path.
func TestAdaptiveSchedulerChoices(t *testing.T) {
	pool := parallel.NewPool(4)
	defer pool.Close()

	wiki := gen.WikiLike(0.01, 42)
	var prof metrics.Profile
	res, err := NearFar(wiki, 0, 1000, &Options{Pool: pool, Profile: &prof})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reached < 2 {
		t.Fatalf("wiki solve reached %d vertices", res.Reached)
	}
	if n := prof.EdgeBalancedIters(); n == 0 {
		t.Errorf("scale-free solve never took the edge-balanced path (%d iters)", prof.Len())
	}

	road := gen.Road(120, 120, 0.1, 1, 100, 11)
	var roadProf metrics.Profile
	if _, err := NearFar(road, 0, 200, &Options{Pool: pool, Profile: &roadProf}); err != nil {
		t.Fatal(err)
	}
	if n := roadProf.EdgeBalancedIters(); n != 0 {
		t.Errorf("road-like solve took the edge-balanced path %d times, want 0", n)
	}
}

// TestAdvanceSteadyStateAllocs is the allocation regression gate of the
// tentpole: once buffers have warmed up, AdvanceRange must perform zero
// allocations per iteration on both scheduling paths at every pool size.
func TestAdvanceSteadyStateAllocs(t *testing.T) {
	g := gen.RMAT(11, 8, 0.57, 0.19, 0.19, 1, 99, 13)
	for _, ps := range []int{1, 4} {
		for _, strat := range []Strategy{StrategyVertex, StrategyEdge} {
			pool := parallel.NewPool(ps)
			dist := newDist(g.NumVertices(), 0)
			kn := NewKernels(g, pool, nil, dist)
			kn.Force = strat
			// Drive to convergence so buffers reach their high-water mark
			// and the measured state is a genuine steady state.
			front := []graph.VID{0}
			for len(front) > 0 {
				adv := kn.Advance(front)
				front = append(front[:0], adv.Out...)
			}
			frontier := make([]graph.VID, 0, g.NumVertices())
			for v := 0; v < g.NumVertices(); v++ {
				if dist[v] < graph.Inf {
					frontier = append(frontier, graph.VID(v))
				}
			}
			kn.Advance(frontier) // warm the full-frontier path
			allocs := testing.AllocsPerRun(10, func() {
				kn.Advance(frontier)
			})
			kn.Release()
			pool.Close()
			if allocs != 0 {
				t.Errorf("pool %d %v: Advance allocates %.1f per run, want 0", ps, strat, allocs)
			}
		}
	}
}

// TestBatchScratchReuse proves batch solves stop re-allocating vertex-sized
// temporaries per source: after a warm-up batch has populated the scratch
// pool, further batches allocate no new filter bitmaps (the marker for a
// scratch cache miss). GC is disabled for the duration so sync.Pool cannot
// drop warmed entries mid-test.
//
// A warm-up batch alone does not make the pool deterministic: it may never
// hold as many scratches at once as a later batch does, and a sync.Pool
// entry parked in one P's private slot cannot be taken by a Get on another
// P. So the test also holds width+GOMAXPROCS scratches at once and returns
// them. With at most width in use, every Get then finds at least
// GOMAXPROCS+1 idle entries, of which at most GOMAXPROCS-1 sit in other
// Ps' private slots.
func TestBatchScratchReuse(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool randomly drops Put entries under -race; reuse is not guaranteed")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	g := gen.RMAT(10, 8, 0.57, 0.19, 0.19, 1, 99, 17)
	sources := make([]graph.VID, 16)
	for i := range sources {
		sources[i] = graph.VID(i * 31 % g.NumVertices())
	}
	const width = 4
	if err := FirstError(BatchNearFar(g, sources, 25, width)); err != nil {
		t.Fatal(err)
	}
	held := make([]*scratch, width+runtime.GOMAXPROCS(0))
	for i := range held {
		held[i] = getScratch(g.NumVertices(), 1)
	}
	for _, s := range held {
		putScratch(s)
	}
	before := scratchBitmapAllocs.Load()
	for round := 0; round < 3; round++ {
		if err := FirstError(BatchNearFar(g, sources, 25, width)); err != nil {
			t.Fatal(err)
		}
	}
	if grew := scratchBitmapAllocs.Load() - before; grew != 0 {
		t.Errorf("3 warmed batches allocated %d fresh scratch bitmaps, want 0 (scratch not reused)", grew)
	}
}

// TestEdgeAdvanceStress hammers the edge-balanced kernel under the race
// detector: concurrent forced-edge solves on a shared hub-heavy graph, with
// wide pools so every advance splits hub adjacency lists across workers
// (prefix-sum publication, SearchPrefix clipping, per-worker buffers, and
// the pooled scratch handoff all get -race surface area). Results are
// checked against the Dijkstra oracle. Run via `go test -race`
// (scripts/check.sh does). Skipped under -short.
func TestEdgeAdvanceStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test; skipped under -short")
	}
	g := gen.RMAT(11, 16, 0.57, 0.19, 0.19, 1, 99, 29)
	oracle, err := Dijkstra(g, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 4
	done := make(chan error, goroutines)
	for i := 0; i < goroutines; i++ {
		go func(i int) {
			pool := parallel.NewPool(4 + i*2)
			defer pool.Close()
			for r := 0; r < 6; r++ {
				opt := &Options{Pool: pool, Advance: StrategyEdge}
				var res Result
				var err error
				if r%2 == 0 {
					res, err = BellmanFord(g, 0, opt)
				} else {
					res, err = NearFar(g, 0, 40, opt)
				}
				if err != nil {
					done <- err
					return
				}
				for v, d := range oracle.Dist {
					if res.Dist[v] != d {
						done <- fmt.Errorf("goroutine %d round %d: dist[%d]=%d, want %d", i, r, v, res.Dist[v], d)
						return
					}
				}
			}
			done <- nil
		}(i)
	}
	for i := 0; i < goroutines; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestMixedPathStress runs full auto-scheduled solves of a small scale-free
// graph on one 4-worker pool, where iterations switch between the plain
// sequential kernel and the parallel atomic ones. Under the race detector
// (scripts/check.sh runs it with -race) this checks that the plain
// distance and bitmap accesses are ordered against the workers' atomics by
// the pool's join. Each solve must take both kinds of path and match the
// Dijkstra oracle. Skipped under -short.
func TestMixedPathStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test; skipped under -short")
	}
	g := gen.WikiLike(0.01, 42)
	pool := parallel.NewPool(4)
	defer pool.Close()
	o := obs.New(0)
	counter := func(name string) int64 {
		v, _ := o.Reg.Value(name)
		return int64(v)
	}
	for r, src := range []graph.VID{0, 1, 7, 42} {
		oracle, err := Dijkstra(g, src, nil)
		if err != nil {
			t.Fatal(err)
		}
		adv0, seq0 := counter("sssp_advances_total"), counter("sssp_sequential_advances_total")
		opt := &Options{Pool: pool, Obs: o}
		var res Result
		if r%2 == 0 {
			res, err = NearFar(g, src, 1000, opt)
		} else {
			res, err = DeltaStepping(g, src, 1000, opt)
		}
		if err != nil {
			t.Fatal(err)
		}
		for v, d := range oracle.Dist {
			if res.Dist[v] != d {
				t.Fatalf("round %d src %d: dist[%d]=%d, want %d", r, src, v, res.Dist[v], d)
			}
		}
		adv := counter("sssp_advances_total") - adv0
		seq := counter("sssp_sequential_advances_total") - seq0
		if seq == 0 || seq == adv {
			t.Errorf("round %d src %d: %d of %d advances sequential, want a mix of paths", r, src, seq, adv)
		}
	}
}
