package sssp

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"energysssp/internal/gen"
	"energysssp/internal/graph"
	"energysssp/internal/obs"
	"energysssp/internal/parallel"
)

// TestObsSteadyStateAllocs extends the tentpole's allocation gate to the
// instrumented path: with a full per-solve scope attached (tracer, energy
// meter, pool stats), Advance must still perform zero allocations per iteration on
// both scheduling paths at every pool size. This is the invariant that lets
// observability default-on in long experiments without perturbing them.
func TestObsSteadyStateAllocs(t *testing.T) {
	g := gen.RMAT(11, 8, 0.57, 0.19, 0.19, 1, 99, 13)
	o := obs.New(obs.DefaultTraceEvents)
	for _, ps := range []int{1, 4} {
		for _, path := range advancePaths {
			pool := parallel.NewPool(ps)
			dist := newDist(g.NumVertices(), 0)
			kn := NewKernels(g, pool, nil, dist)
			kn.seqMaxFront = path.seqMax
			sc := o.NewScope("allocgate")
			kn.Observe(sc)
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
			sc.Close()
			pool.Close()
			if allocs != 0 {
				t.Errorf("pool %d %s: observed Advance allocates %.1f per run, want 0", ps, path.name, allocs)
			}
		}
	}
}

// TestSpanSteadyStateAllocs is the hierarchical-tracer half of the gate:
// a full driver-shaped recording cycle — iteration span, instrumented
// Advance (which opens advance+filter phase spans), and a kernel mark —
// must allocate nothing once the first span slab is warm. The tracer hands
// spans out of pooled slabs, so the whole span plane rides inside the
// solver's steady state.
func TestSpanSteadyStateAllocs(t *testing.T) {
	g := gen.RMAT(11, 8, 0.57, 0.19, 0.19, 1, 99, 13)
	pool := parallel.NewPool(4)
	defer pool.Close()
	dist := newDist(g.NumVertices(), 0)
	kn := NewKernels(g, pool, nil, dist)
	o := obs.New(obs.DefaultTraceEvents)
	sc := o.NewScope("spangate")
	defer sc.Close()
	kn.Observe(sc)
	defer kn.Release()
	tr := kn.Trace()

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

	spSolve := tr.BeginSolve()
	defer func() { spSolve.End(0) }()
	cycle := func() {
		spIter := tr.BeginIter(0)
		adv := kn.Advance(frontier)
		tr.Mark(obs.PhaseRebalance, int64(len(frontier)), kn.SimNow(), 0)
		spIter.End(int64(adv.X2))
	}
	cycle() // warm the first span slab and the advance scratch
	if allocs := testing.AllocsPerRun(10, cycle); allocs != 0 {
		t.Errorf("span-instrumented cycle allocates %.1f per run, want 0", allocs)
	}
}

// TestObsScopeChurnConcurrent is the eviction-accumulator gate under real
// load: many short concurrent solves against one shared observer, far more
// than the retired ring holds. The per-phase span totals must come out
// exact — every evicted scope's contribution folded into the accumulator,
// none double-counted — and the /metrics exposition must carry no
// per-solve label set at all.
func TestObsScopeChurnConcurrent(t *testing.T) {
	const (
		workers = 8
		total   = 64
	)
	g := gen.CalLike(0.01, 3)
	o := obs.New(256)

	results := make([]Result, total)
	errs := make([]error, total)
	var wg sync.WaitGroup
	next := int64(-1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= total {
					return
				}
				results[i], errs[i] = NearFar(g, 0, 32, &Options{Obs: o})
			}
		}()
	}
	wg.Wait()

	var advances int64
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("solve %d: %v", i, errs[i])
		}
		advances += int64(results[i].Iterations)
	}

	// Span totals reconcile with the solves' results: the advance phase
	// opens exactly one span per iteration, so any eviction double-count
	// or loss shows up as a mismatch here.
	if spans := o.PhaseTotals(obs.PhaseAdvance).Count; spans != advances {
		t.Errorf("advance span totals %d != summed iterations %d after eviction", spans, advances)
	}

	// Every scope closed, and the retained ring is bounded: everything
	// beyond it was evicted into the accumulator.
	if active, ok := o.Reg.Value("obs_active_solves"); !ok || active != 0 {
		t.Fatalf("obs_active_solves = %v (%v), want 0", active, ok)
	}

	// /metrics is process-level: no series grows with the number of solves.
	var sb strings.Builder
	if err := o.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), `solve="`) {
		t.Errorf("/metrics carries a per-solve label:\n%s", sb.String())
	}
}

// TestPoolObservationEndsWithSolve checks that an observed solve detaches
// its pool stats when it ends: NearFar on a scale-free graph with a
// 4-worker pool is observed once (and launches the pool), then run again
// unobserved on the same pool, and the observer's launch count must not
// grow.
func TestPoolObservationEndsWithSolve(t *testing.T) {
	g := gen.WikiLike(0.01, 42)
	pool := parallel.NewPool(4)
	defer pool.Close()
	o := obs.New(0)
	if _, err := NearFar(g, 0, 1000, &Options{Pool: pool, Obs: o}); err != nil {
		t.Fatal(err)
	}
	observed := o.PoolStats().Launches()
	if observed == 0 {
		t.Fatal("observed solve launched the pool 0 times")
	}
	if _, err := NearFar(g, 0, 1000, &Options{Pool: pool}); err != nil {
		t.Fatal(err)
	}
	if got := o.PoolStats().Launches(); got != observed {
		t.Errorf("observer counts %d launches after an unobserved solve, want %d", got, observed)
	}
}
