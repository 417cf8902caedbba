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
	"energysssp/internal/obs"
	"energysssp/internal/parallel"
)

// settledState builds a deterministic mid-solve snapshot: exact distances
// for every vertex within the D-ball of src (settled), Inf elsewhere, with
// the settled set as the frontier. Settled vertices cannot be lowered
// during an advance (their distances are already optimal), so the result
// of one Advance over this state is schedule-independent — the exact
// property the sequential/parallel differential needs.
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
// Advance over a settled state: dist'[v] = min(dist[v], min over frontier
// u with edge u->v of dist[u]+w), and the updated set
// {v : dist'[v] < dist[v]}.
func refAdvance(g *graph.Graph, dist []graph.Dist, front []graph.VID) (want []graph.Dist, updated map[graph.VID]bool, edges int64) {
	want = append([]graph.Dist(nil), dist...)
	updated = make(map[graph.VID]bool)
	for _, u := range front {
		vs, ws := g.Neighbors(u)
		edges += int64(len(vs))
		for j, v := range vs {
			if nd := dist[u] + graph.Dist(ws[j]); nd < want[v] {
				want[v] = nd
				updated[v] = true
			}
		}
	}
	return want, updated, edges
}

// advancePaths pins each advance path in turn by overriding the
// sequential frontier bound: MaxInt keeps every advance on the plain
// kernel, 0 sends every frontier above one chunk to the pool (when the pool
// has more than one worker).
var advancePaths = []struct {
	name   string
	seqMax int
}{{"sequential", math.MaxInt}, {"parallel", 0}}

// TestAdvanceStrategiesAgree is the differential property test of the
// advance paths: over random graphs (scale-free, uniform-random,
// road-like) and frontiers (the whole settled set, and every third vertex
// of it), the sequential and the parallel vertex-chunk paths, and the
// default choice between them, must produce the same distance array and
// the same deduplicated frontier set at every pool size, including 1, and
// must charge the same edge count.
func TestAdvanceStrategiesAgree(t *testing.T) {
	// seqMax -1 keeps the graph's default sequential frontier bound.
	advanceCases := append([]struct {
		name   string
		seqMax int
	}{{"default", -1}}, advancePaths...)
	graphs := []*graph.Graph{
		gen.RMAT(10, 8, 0.57, 0.19, 0.19, 1, 99, 3),
		gen.ErdosRenyi(2000, 12000, 1, 50, 5),
		gen.Road(40, 50, 0.1, 1, 100, 7),
	}
	for gi, g := range graphs {
		dist0, settled := settledState(t, g, 0)
		var sparse []graph.VID
		for i := 0; i < len(settled); i += 3 {
			sparse = append(sparse, settled[i])
		}
		for fi, front := range [][]graph.VID{settled, sparse} {
			want, updated, wantEdges := refAdvance(g, dist0, front)
			for _, ps := range []int{1, 2, 3, 4} {
				for _, c := range advanceCases {
					pool := parallel.NewPool(ps)
					dist := append([]graph.Dist(nil), dist0...)
					kn := NewKernels(g, pool, nil, dist)
					if c.seqMax >= 0 {
						kn.seqMaxFront = c.seqMax
					}
					adv := kn.Advance(front)
					if adv.Edges != wantEdges {
						t.Errorf("graph %d front %d pool %d %s: edges %d, want %d",
							gi, fi, ps, c.name, adv.Edges, wantEdges)
					}
					for v := range dist {
						if dist[v] != want[v] {
							t.Fatalf("graph %d front %d pool %d %s: dist[%d]=%d, want %d",
								gi, fi, ps, c.name, v, dist[v], want[v])
						}
					}
					if len(adv.Out) != len(updated) {
						t.Fatalf("graph %d front %d pool %d %s: |Out|=%d, want %d",
							gi, fi, ps, c.name, len(adv.Out), len(updated))
					}
					for _, v := range adv.Out {
						if !updated[v] {
							t.Fatalf("graph %d front %d pool %d %s: unexpected frontier vertex %d",
								gi, fi, ps, c.name, v)
						}
					}
					if c.name != "default" {
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

// TestSolversAgreeOnParallelPath runs complete NearFar solves of a
// scale-free graph, at a fixed delta and at the label-correcting delta
// (Bellman-Ford's rounds), at pool sizes 1 and 4 (covering the mid-solve
// regime where frontier vertices are still improving) and checks exact
// distances against the Dijkstra oracle. At pool size 4 the solves must
// run parallel advances.
func TestSolversAgreeOnParallelPath(t *testing.T) {
	g := gen.RMAT(13, 8, 0.57, 0.19, 0.19, 1, 99, 9)
	oracle, err := Dijkstra(g, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, ps := range []int{1, 4} {
		pool := parallel.NewPool(ps)
		sc := obs.New(0).NewScope("agree")
		opt := &Options{Pool: pool, Scope: sc}
		for _, delta := range []graph.Dist{30, labelCorrectingDelta} {
			res, err := NearFar(g, 0, delta, opt)
			if err != nil {
				t.Fatalf("NearFar δ=%d pool %d: %v", delta, ps, err)
			}
			for v, d := range oracle.Dist {
				if res.Dist[v] != d {
					t.Fatalf("NearFar δ=%d pool %d: dist[%d]=%d, want %d", delta, ps, v, res.Dist[v], d)
				}
			}
		}
		if n := parallelAdvances(sc); (n > 0) != (ps > 1) {
			t.Errorf("pool %d: %d parallel advances", ps, n)
		}
		sc.Close()
		pool.Close()
	}
}

// parallelAdvances counts the advances of a scope's solves that ran on the
// pool rather than inline on the sequential kernel: the advance is the
// only pool launch in a solve.
func parallelAdvances(sc *obs.Scope) int64 {
	return sc.Observer().PoolStats().Launches()
}

// TestAdaptiveSchedulerChoices checks the advance path choice on the two
// canonical shapes at pool size 4: a scale-free solve must send its big
// frontiers to the pool and keep its small ones on the sequential kernel,
// and a road-like solve (small frontiers of degree <= 4) must run every
// advance sequentially.
func TestAdaptiveSchedulerChoices(t *testing.T) {
	pool := parallel.NewPool(4)
	defer pool.Close()

	wiki := gen.WikiLike(0.01, 42)
	sc := obs.New(0).NewScope("wiki")
	defer sc.Close()
	res, err := NearFar(wiki, 0, 1000, &Options{Pool: pool, Scope: sc})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reached < 2 {
		t.Fatalf("wiki solve reached %d vertices", res.Reached)
	}
	if par := parallelAdvances(sc); par == 0 || par == int64(res.Iterations) {
		t.Errorf("scale-free solve: %d of %d advances parallel, want a mix", par, res.Iterations)
	}

	road := gen.Road(120, 120, 0.1, 1, 100, 11)
	roadSc := obs.New(0).NewScope("road")
	defer roadSc.Close()
	res, err = NearFar(road, 0, 200, &Options{Pool: pool, Scope: roadSc})
	if err != nil {
		t.Fatal(err)
	}
	if par := parallelAdvances(roadSc); par != 0 {
		t.Errorf("road-like solve: %d of %d advances parallel, want 0", par, res.Iterations)
	}
}

// TestAdvanceSteadyStateAllocs is the allocation regression gate of the
// tentpole: once buffers have warmed up, Advance must perform zero
// allocations per iteration on both scheduling paths at every pool size,
// including the call whose filter epoch wraps and clears the mark.
func TestAdvanceSteadyStateAllocs(t *testing.T) {
	g := gen.RMAT(11, 8, 0.57, 0.19, 0.19, 1, 99, 13)
	for _, ps := range []int{1, 4} {
		for _, path := range advancePaths {
			pool := parallel.NewPool(ps)
			dist := newDist(g.NumVertices(), 0)
			kn := NewKernels(g, pool, nil, dist)
			kn.seqMaxFront = path.seqMax
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
			// Measure across the filter's epoch wrap and mark clear. Every
			// mark byte must stay at most the epoch, so only raise it.
			if kn.sc.epoch > 250 {
				t.Fatalf("pool %d %s: epoch %d already past the preset", ps, path.name, kn.sc.epoch)
			}
			kn.sc.epoch = 250
			allocs := testing.AllocsPerRun(10, func() {
				kn.Advance(frontier)
			})
			kn.Release()
			pool.Close()
			if allocs != 0 {
				t.Errorf("pool %d %s: Advance allocates %.1f per run, want 0", ps, path.name, allocs)
			}
		}
	}
}

// TestBatchScratchReuse proves concurrent single-threaded solves stop
// re-allocating vertex-sized temporaries per source: after a warm-up
// fan-out has populated the scratch pool, further fan-outs allocate no new
// filter marks (the marker for a scratch cache miss). GC is disabled for
// the duration so sync.Pool cannot drop warmed entries mid-test.
//
// A warm-up fan-out alone does not make the pool deterministic: it may
// never hold as many scratches at once as a later one does, and a
// sync.Pool entry parked in one P's private slot cannot be taken by a Get
// on another P. So the test also holds width+GOMAXPROCS scratches at once
// and returns them. With at most width in use, every Get then finds at
// least GOMAXPROCS+1 idle entries, of which at most GOMAXPROCS-1 sit in
// other Ps' private slots.
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
	if _, err := fanOutNearFar(g, sources, 25, width); err != nil {
		t.Fatal(err)
	}
	held := make([]*scratch, width+runtime.GOMAXPROCS(0))
	for i := range held {
		held[i] = getScratch(g.NumVertices(), 1)
	}
	for _, s := range held {
		putScratch(s)
	}
	before := scratchMarkAllocs.Load()
	for round := 0; round < 3; round++ {
		if _, err := fanOutNearFar(g, sources, 25, width); err != nil {
			t.Fatal(err)
		}
	}
	if grew := scratchMarkAllocs.Load() - before; grew != 0 {
		t.Errorf("3 warmed fan-outs allocated %d fresh scratch marks, want 0 (scratch not reused)", grew)
	}
}

// TestParallelAdvanceStress hammers the parallel advance under the race
// detector: concurrent solves on a shared hub-heavy graph, with wide pools
// whose workers claim vertex chunks of the big frontiers (chunk-cursor
// publication, per-worker buffers, and the pooled scratch handoff all get
// -race surface area). Results are checked against the Dijkstra oracle,
// and every goroutine's solves must run parallel advances. Run via
// `go test -race` (scripts/check.sh does). Skipped under -short.
func TestParallelAdvanceStress(t *testing.T) {
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
			sc := obs.New(0).NewScope("stress")
			defer sc.Close()
			for r := 0; r < 6; r++ {
				opt := &Options{Pool: pool, Scope: sc}
				delta := graph.Dist(40)
				if r%2 == 0 {
					delta = labelCorrectingDelta
				}
				res, err := NearFar(g, 0, delta, opt)
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
			if parallelAdvances(sc) == 0 {
				done <- fmt.Errorf("goroutine %d: no parallel advance", i)
				return
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
// distance and mark accesses are ordered against the workers' atomics by
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
	for r, src := range []graph.VID{0, 1, 7, 42} {
		oracle, err := Dijkstra(g, src, nil)
		if err != nil {
			t.Fatal(err)
		}
		par0 := o.PoolStats().Launches()
		// Alternate the far queues: rho (the default) and the flat queue.
		opt := &Options{Pool: pool, Obs: o}
		if r%2 == 1 {
			opt.FarQueue = FarFlat
		}
		res, err := NearFar(g, src, 1000, opt)
		if err != nil {
			t.Fatal(err)
		}
		for v, d := range oracle.Dist {
			if res.Dist[v] != d {
				t.Fatalf("round %d src %d: dist[%d]=%d, want %d", r, src, v, res.Dist[v], d)
			}
		}
		seq := int64(res.Iterations) - (o.PoolStats().Launches() - par0)
		if seq == 0 || seq == int64(res.Iterations) {
			t.Errorf("round %d src %d: %d of %d advances sequential, want a mix of paths", r, src, seq, res.Iterations)
		}
	}
}
