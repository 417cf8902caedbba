package energysssp

// One benchmark per table and figure in the paper's evaluation (plus
// solver microbenchmarks). Each BenchmarkTableN/BenchmarkFigureN run
// regenerates the corresponding result table at the default 1/8 scale;
// b.ReportMetric carries the headline quantity of that experiment so
// `go test -bench=.` output doubles as a results summary. cmd/experiments
// renders the same tables as CSV.

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"energysssp/internal/core"
	"energysssp/internal/gen"
	"energysssp/internal/harness"
	"energysssp/internal/metrics"
	"energysssp/internal/obs"
	"energysssp/internal/parallel"
	"energysssp/internal/sim"
	"energysssp/internal/sssp"
)

// runTunedAblation runs the self-tuning solver with or without the Eq. 7
// far-queue partitioning (the flat variant scans the whole far queue).
func runTunedAblation(g *Graph, src VID, p float64, disable bool, mach *sim.Machine, prof *metrics.Profile) (Result, error) {
	return core.Solve(g, src, core.Config{P: p, DisablePartitioning: disable},
		&sssp.Options{Machine: mach, Profile: prof})
}

var (
	benchEnvOnce sync.Once
	benchEnv     *harness.Env
)

// env returns the shared experiment environment (graphs and best-delta
// sweeps are cached across benchmarks).
func env() *harness.Env {
	benchEnvOnce.Do(func() {
		benchEnv = harness.NewEnv(harness.DefaultConfig())
	})
	return benchEnv
}

func parseBenchF(b *testing.B, s string) float64 {
	b.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		b.Fatalf("parse %q: %v", s, err)
	}
	return v
}

// BenchmarkTable1 regenerates the dataset-characteristics table.
func BenchmarkTable1(b *testing.B) {
	e := env()
	for i := 0; i < b.N; i++ {
		tab, err := harness.Table1(e)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(parseBenchF(b, tab.Rows[0][1]), "wiki-nodes")
		b.ReportMetric(parseBenchF(b, tab.Rows[1][1]), "cal-nodes")
	}
}

// BenchmarkFigure1 regenerates the concurrency-profile comparison
// (baseline vs self-tuning on the scale-free input).
func BenchmarkFigure1(b *testing.B) {
	e := env()
	for i := 0; i < b.N; i++ {
		tabs, err := harness.Figure1(e)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(tabs[0].Rows)), "profile-points")
	}
}

// BenchmarkFigure2 regenerates the delta-versus-parallelism sweep.
func BenchmarkFigure2(b *testing.B) {
	e := env()
	for i := 0; i < b.N; i++ {
		tab, err := harness.Figure2(e)
		if err != nil {
			b.Fatal(err)
		}
		// Headline: the parallelism growth factor across the sweep (Cal).
		var first, last float64
		for _, r := range tab.Rows {
			if r[0] != "Cal" {
				continue
			}
			if first == 0 {
				first = parseBenchF(b, r[2])
			}
			last = parseBenchF(b, r[2])
		}
		b.ReportMetric(last/first, "cal-parallelism-growth")
	}
}

// BenchmarkFigure3 regenerates the Cal performance-versus-delta study.
func BenchmarkFigure3(b *testing.B) {
	e := env()
	for i := 0; i < b.N; i++ {
		tabs, err := harness.Figure3(e)
		if err != nil {
			b.Fatal(err)
		}
		summary := tabs[0]
		first := parseBenchF(b, summary.Rows[0][2])
		last := parseBenchF(b, summary.Rows[len(summary.Rows)-1][2])
		b.ReportMetric(first/last, "iteration-reduction")
	}
}

// BenchmarkFigure5 regenerates the parallelism-distribution comparison.
func BenchmarkFigure5(b *testing.B) {
	e := env()
	for i := 0; i < b.N; i++ {
		tab, err := harness.Figure5(e)
		if err != nil {
			b.Fatal(err)
		}
		base := parseBenchF(b, tab.Rows[0][2])
		mid := parseBenchF(b, tab.Rows[2][2])
		b.ReportMetric(mid/base, "median-uplift-midP")
	}
}

// BenchmarkFigure6 regenerates the TK1 performance/power grid (Cal+Wiki).
func BenchmarkFigure6(b *testing.B) {
	e := env()
	for i := 0; i < b.N; i++ {
		tabs, err := harness.Figure6(e)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(bestTunedSpeedup(b, tabs[0]), "cal-best-tuned-speedup")
		b.ReportMetric(bestTunedSpeedup(b, tabs[1]), "wiki-best-tuned-speedup")
	}
}

// BenchmarkFigure7 regenerates the TX1 performance/power grid (Cal+Wiki).
func BenchmarkFigure7(b *testing.B) {
	e := env()
	for i := 0; i < b.N; i++ {
		tabs, err := harness.Figure7(e)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(bestTunedSpeedup(b, tabs[0]), "cal-best-tuned-speedup")
		b.ReportMetric(bestTunedSpeedup(b, tabs[1]), "wiki-best-tuned-speedup")
	}
}

// bestTunedSpeedup extracts the best self-tuning speedup at the automatic
// DVFS setting (comparable to the baseline reference at auto).
func bestTunedSpeedup(b *testing.B, tab *Table) float64 {
	best := 0.0
	for _, r := range tab.Rows {
		if r[0] == "near+far" || r[1] != "auto" {
			continue
		}
		if s := parseBenchF(b, r[2]); s > best {
			best = s
		}
	}
	return best
}

// BenchmarkFigure8 regenerates the power-versus-set-point sweep.
func BenchmarkFigure8(b *testing.B) {
	e := env()
	for i := 0; i < b.N; i++ {
		tab, err := harness.Figure8(e)
		if err != nil {
			b.Fatal(err)
		}
		var lo, hi float64
		for _, r := range tab.Rows {
			if r[0] != "Cal" {
				continue
			}
			w := parseBenchF(b, r[2])
			if lo == 0 {
				lo = w
			}
			hi = w
		}
		b.ReportMetric(hi-lo, "cal-watt-swing")
	}
}

// BenchmarkOverhead regenerates the Section 5.2 controller-overhead
// measurement.
func BenchmarkOverhead(b *testing.B) {
	e := env()
	for i := 0; i < b.N; i++ {
		tab, err := harness.Overhead(e)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(parseBenchF(b, tab.Rows[0][4]), "cal-ctrl-us-per-s")
		b.ReportMetric(parseBenchF(b, tab.Rows[1][4]), "wiki-ctrl-us-per-s")
	}
}

// ---- Solver microbenchmarks (host wall-clock performance of the Go
// implementation itself, one graph edge-scale per op) ----

func benchNearFar(b *testing.B, d gen.Dataset) {
	e := env()
	g := e.Graph(d)
	src := e.Source(d)
	delta := e.BestDelta(d, sim.TK1())
	pool := parallel.NewPool(0)
	defer pool.Close()
	opt := &sssp.Options{Pool: pool}
	b.SetBytes(int64(g.NumEdges()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sssp.NearFar(g, src, delta, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNearFarCal(b *testing.B)  { benchNearFar(b, gen.Cal) }
func BenchmarkNearFarWiki(b *testing.B) { benchNearFar(b, gen.Wiki) }

// BenchmarkFarQueue compares the two far-queue strategies head to head on
// the two dataset substitutes, at each graph's tuned δ*. flat is the paper's
// compact-and-rescan array under the fixed-δ schedule; rho replaces the
// schedule with bucketed lazy deletion and adaptive bucket-batch extraction
// (ρ-stepping).
func BenchmarkFarQueue(b *testing.B) {
	e := env()
	strategies := []sssp.FarQueueStrategy{sssp.FarFlat, sssp.FarRho}
	for _, d := range []gen.Dataset{gen.Cal, gen.Wiki} {
		g := e.Graph(d)
		src := e.Source(d)
		delta := e.BestDelta(d, sim.TK1())
		for _, s := range strategies {
			b.Run(fmt.Sprintf("%s/%s", d, s), func(b *testing.B) {
				pool := parallel.NewPool(0)
				defer pool.Close()
				opt := &sssp.Options{Pool: pool, FarQueue: s}
				b.SetBytes(int64(g.NumEdges()))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := sssp.NearFar(g, src, delta, opt); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// benchAdvance measures one steady-state advance over the full reachable
// frontier (distances pre-converged, so the pass scans every frontier edge
// without mutating state — a repeatable, constant-work iteration). SetBytes
// carries the frontier edge count, so MB/s reads as relaxed edges per
// microsecond; allocs/op must stay 0 once warmed (see
// TestAdvanceSteadyStateAllocs for the hard gate).
func benchAdvance(b *testing.B, g *Graph, workers int, o *obs.Observer) {
	pool := parallel.NewPool(workers)
	defer pool.Close()
	res, err := sssp.Dijkstra(g, 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	dist := res.Dist
	kn := sssp.NewKernels(g, pool, nil, dist)
	defer kn.Release()
	sc := o.NewScope("bench") // nil observer hands out a nil (no-op) scope
	defer sc.Close()
	kn.Observe(sc)
	front := make([]VID, 0, g.NumVertices())
	var edges int64
	for v := 0; v < g.NumVertices(); v++ {
		if dist[v] < Inf {
			front = append(front, VID(v))
			edges += int64(g.OutDegree(VID(v)))
		}
	}
	kn.Advance(front) // warm the scratch buffers to their high-water mark
	b.SetBytes(edges)
	b.ReportAllocs()
	// Collect setup garbage (graph generation, Dijkstra) before timing:
	// otherwise the first sub-benchmark pays the GC debt inside its window,
	// skewing A/B pairs like BenchmarkObsAdvance.
	runtime.GC()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kn.Advance(front)
	}
}

// BenchmarkAdvance measures the advance at pool sizes 1 and 4 on the two
// canonical degree shapes: a hub-heavy scale-free graph and a near-uniform
// road grid. The full reachable frontier is above the sequential cutoff, so
// pool 4 runs the parallel vertex-chunk path.
func BenchmarkAdvance(b *testing.B) {
	graphs := []struct {
		name string
		g    *Graph
	}{
		{"rmat", gen.RMAT(14, 16, 0.57, 0.19, 0.19, 1, 99, 21)},
		{"road", gen.Road(180, 180, 0.1, 1, 100, 21)},
	}
	for _, gc := range graphs {
		for _, workers := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/p%d", gc.name, workers), func(b *testing.B) {
				benchAdvance(b, gc.g, workers, nil)
			})
		}
	}
}

// BenchmarkObsAdvance measures the observability overhead head to head: the
// same steady-state advance with observability off and with a full observer
// attached (phase tracer, counters, X2 histogram), on the hub-heavy input
// at pool 4.
func BenchmarkObsAdvance(b *testing.B) {
	g := gen.RMAT(14, 16, 0.57, 0.19, 0.19, 1, 99, 21)
	b.Run("rmat/p4/off", func(b *testing.B) {
		benchAdvance(b, g, 4, nil)
	})
	b.Run("rmat/p4/on", func(b *testing.B) {
		benchAdvance(b, g, 4, obs.New(obs.DefaultTraceEvents))
	})
}

// benchSpanAdvance measures a driver-shaped iteration: the same steady-state
// advance as benchAdvance, but each op additionally opens and closes an
// iteration span and records a kernel mark — the full per-iteration span
// traffic a real solver generates. Compared
// against the off leg (identical loop, no scope), the delta prices the
// hierarchical tracer itself.
func benchSpanAdvance(b *testing.B, g *Graph, o *obs.Observer) {
	pool := parallel.NewPool(4)
	defer pool.Close()
	res, err := sssp.Dijkstra(g, 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	dist := res.Dist
	kn := sssp.NewKernels(g, pool, nil, dist)
	defer kn.Release()
	sc := o.NewScope("spanbench")
	defer sc.Close()
	kn.Observe(sc)
	tr := kn.Trace()
	front := make([]VID, 0, g.NumVertices())
	var edges int64
	for v := 0; v < g.NumVertices(); v++ {
		if dist[v] < Inf {
			front = append(front, VID(v))
			edges += int64(g.OutDegree(VID(v)))
		}
	}
	spSolve := tr.BeginSolve()
	defer func() { spSolve.End(0) }()
	cycle := func(i int) {
		spIter := tr.BeginIter(i)
		adv := kn.Advance(front)
		tr.Mark(obs.PhaseRebalance, int64(len(front)), 0, 0)
		spIter.End(int64(adv.X2))
	}
	cycle(0) // warm the first span slab and scratch high-water marks
	b.SetBytes(edges)
	b.ReportAllocs()
	runtime.GC()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle(i)
	}
}

// BenchmarkSpanAdvance is the off/on pair for the hierarchical span tracer
// on the hub-heavy input at pool 4. The off leg runs the identical
// driver-shaped loop against a nil scope, so every span call hits the
// nil-safe fast path and the pair isolates slab recording cost alone.
func BenchmarkSpanAdvance(b *testing.B) {
	g := gen.RMAT(14, 16, 0.57, 0.19, 0.19, 1, 99, 21)
	b.Run("rmat/p4/off", func(b *testing.B) {
		benchSpanAdvance(b, g, nil)
	})
	b.Run("rmat/p4/on", func(b *testing.B) {
		benchSpanAdvance(b, g, obs.New(obs.DefaultTraceEvents))
	})
}

// BenchmarkFlightAdvance measures the flight-recorder overhead head to
// head: the same sequential self-tuning solve without and with a recorder
// attached (the recorder is reused across ops, as a long-lived service
// would hold it, so its ring allocation is not charged to the op).
func BenchmarkFlightAdvance(b *testing.B) {
	g := CalLike(0.02, 42)
	cfg := RunConfig{Algorithm: SelfTuning, SetPoint: 500, Workers: 1}
	run := func(b *testing.B, cfg RunConfig) {
		b.SetBytes(int64(g.NumEdges()))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := Run(g, 0, cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("cal/p1/off", func(b *testing.B) { run(b, cfg) })
	b.Run("cal/p1/on", func(b *testing.B) {
		on := cfg
		on.FlightLog = NewFlightRecorder(0)
		run(b, on)
	})
}

// BenchmarkPageRank measures the Section 6 PageRank generalization at a
// controlled set-point on the scale-free input.
func BenchmarkPageRankControlled(b *testing.B) {
	g := WikiLike(0.01, 42)
	b.SetBytes(int64(g.NumEdges()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := PageRank(g, PageRankConfig{SetPoint: 512, Workers: -1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Pushes), "pushes")
	}
}

// BenchmarkKCore measures the Section 6 k-core generalization.
func BenchmarkKCoreControlled(b *testing.B) {
	g := WikiLike(0.01, 42)
	b.SetBytes(int64(g.NumEdges()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := KCore(g, 512, -1)
		b.ReportMetric(float64(res.Degeneracy), "degeneracy")
	}
}

// BenchmarkAblationLearningRate compares the adaptive vSGD controller with
// a fixed-learning-rate variant by measuring how close each holds the
// achieved median parallelism to the set-point (see DESIGN.md, ablations).
func BenchmarkAblationPartitioning(b *testing.B) {
	e := env()
	g := e.Graph(gen.Cal)
	src := e.Source(gen.Cal)
	p := e.SetPoints(gen.Cal)[1]
	for i := 0; i < b.N; i++ {
		for _, disable := range []bool{false, true} {
			var prof metrics.Profile
			mach := sim.NewMachine(sim.TK1())
			_, err := runTunedAblation(g, src, p, disable, mach, &prof)
			if err != nil {
				b.Fatal(err)
			}
			// End-to-end simulated time barely moves at bench scale; the
			// structural benefit of Eq. 7 partitioning is the far-queue
			// scan volume, so report that alongside.
			label := "partitioned"
			if disable {
				label = "flat"
			}
			b.ReportMetric(mach.Now().Seconds()*1e3, label+"-sim-ms")
			b.ReportMetric(float64(mach.Stats(sim.KernelFarQueue).Items), label+"-scans")
		}
	}
}
