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
// instrumented path: with a full per-solve scope attached (tracer, counters,
// histogram), Advance must still perform zero allocations per iteration on
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
// Advance (which opens advance+filter phase spans), live solve stats, and
// a kernel mark — must allocate nothing once the first span slab is warm.
// The tracer hands spans out of pooled slabs and the live stats are plain
// atomics, so the whole span plane rides inside the solver's steady state.
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
		sc.Live().Iteration(0, int64(len(frontier)), 0, int64(adv.X2), 0, 0)
		spIter.End(int64(adv.X2))
	}
	cycle() // warm the first span slab and the advance scratch
	if allocs := testing.AllocsPerRun(10, cycle); allocs != 0 {
		t.Errorf("span-instrumented cycle allocates %.1f per run, want 0", allocs)
	}
}

// TestObsScopeChurnConcurrent is the eviction-accumulator gate under real
// load: many short concurrent solves against one shared observer, far more
// than the retired ring holds. The fleet counters and the per-phase span
// totals must come out exact — every evicted scope's contribution folded
// into the accumulator, none double-counted — and the /metrics exposition
// must stay bounded at the retired-ring size instead of growing one label
// set per solve ever run.
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

	var wantUpdates, wantRelaxed int64
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("solve %d: %v", i, errs[i])
		}
		wantUpdates += results[i].Updates
		wantRelaxed += results[i].EdgesRelaxed
	}

	// Fleet counters: exact sums of the per-solve results.
	for _, c := range []struct {
		name string
		want int64
	}{
		{"sssp_solves_total", total},
		{"sssp_updates_total", wantUpdates},
		{"sssp_edges_relaxed_total", wantRelaxed},
	} {
		v, ok := o.Reg.Value(c.name)
		if !ok || int64(v) != c.want {
			t.Errorf("fleet %s = %v (%v), want %d", c.name, v, ok, c.want)
		}
	}

	// Span totals reconcile with the atomic kernel counter: the advance
	// phase opens exactly one span per advance+filter execution, so any
	// eviction double-count or loss shows up as a mismatch here.
	advances, ok := o.Reg.Value("sssp_advances_total")
	if !ok || advances <= 0 {
		t.Fatalf("sssp_advances_total = %v (%v)", advances, ok)
	}
	if spans := o.PhaseTotals(obs.PhaseAdvance).Count; spans != int64(advances) {
		t.Errorf("advance span totals %d != advance counter %d after eviction", spans, int64(advances))
	}

	// The scope population is fully accounted for and the retained ring is
	// bounded: everything beyond it was evicted into the accumulator.
	active, retired, evicted := o.ScopeCounts()
	if active != 0 || retired+int(evicted) != total {
		t.Fatalf("ScopeCounts = (%d, %d, %d), want 0 active and %d total", active, retired, evicted, total)
	}
	if retired > 16 {
		t.Fatalf("retired ring holds %d scopes, want <= 16", retired)
	}

	// /metrics label cardinality: one solve label per retained scope, not
	// one per solve ever run.
	var sb strings.Builder
	if err := o.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	labels := map[string]struct{}{}
	for _, line := range strings.Split(sb.String(), "\n") {
		if i := strings.Index(line, `solve="`); i >= 0 {
			rest := line[i+len(`solve="`):]
			labels[rest[:strings.Index(rest, `"`)]] = struct{}{}
		}
	}
	if len(labels) != retired {
		t.Errorf("/metrics carries %d solve labels, want %d (the retained ring)", len(labels), retired)
	}
}
