package harness

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"energysssp/internal/core"
	"energysssp/internal/gen"
	"energysssp/internal/metrics"
	"energysssp/internal/obs"
	"energysssp/internal/sim"
	"energysssp/internal/sssp"
	"energysssp/internal/trace"
)

// Table1 reproduces the dataset-characteristics table: nodes, edges, and
// maximum degree of both inputs (at the configured scale), plus the
// structural fields used to validate the synthetic substitutes.
func Table1(e *Env) (*trace.Table, error) {
	t := trace.NewTable("table1_datasets",
		"dataset", "nodes", "edges", "max_degree", "avg_degree", "avg_weight", "components")
	for _, d := range []gen.Dataset{gen.Wiki, gen.Cal} {
		s := e.Graph(d).ComputeStats()
		t.AddRow(d.String(), s.Vertices, s.Edges, s.MaxDegree, s.AvgDegree, s.AvgWeight, s.Components)
	}
	return t, nil
}

// Figure1 reproduces the concurrency profiles: the per-iteration available
// parallelism of the baseline (time-minimizing delta) versus the
// self-tuning algorithm on the scale-free network, plus the density
// histograms from the figure's insets. It returns the two profile tables
// and the density table.
func Figure1(e *Env) ([]*trace.Table, error) {
	d := gen.Wiki
	dev := sim.TK1()
	delta := e.BestDelta(d, dev)
	mc := MachineConfig{Device: dev, Auto: true}

	_, baseProf, err := e.RunBaseline(d, delta, mc)
	if err != nil {
		return nil, err
	}
	p := e.SetPoints(d)[1] // the middle set-point, like the figure
	_, tunedProf, err := e.RunTuned(d, p, mc)
	if err != nil {
		return nil, err
	}

	series := trace.NewTable("fig1_profiles", "variant", "iteration", "parallelism")
	for k, x := range baseProf.Parallelism() {
		series.AddRow("baseline", k, x)
	}
	for k, x := range tunedProf.Parallelism() {
		series.AddRow(fmt.Sprintf("selftuning-P%.0f", p), k, x)
	}

	density := trace.NewTable("fig1_density", "variant", "bin_lo", "bin_hi", "count")
	for _, b := range metrics.Histogram(baseProf.Parallelism(), 20) {
		density.AddRow("baseline", b.Lo, b.Hi, b.Count)
	}
	for _, b := range metrics.Histogram(tunedProf.Parallelism(), 20) {
		density.AddRow(fmt.Sprintf("selftuning-P%.0f", p), b.Lo, b.Hi, b.Count)
	}
	return []*trace.Table{series, density}, nil
}

// Figure2 reproduces "Delta versus Parallelism": for each dataset, the
// average available parallelism of the fixed-delta baseline as delta sweeps
// two orders of magnitude.
func Figure2(e *Env) (*trace.Table, error) {
	t := trace.NewTable("fig2_delta_vs_parallelism",
		"dataset", "delta", "avg_parallelism", "median_parallelism", "iterations")
	mcTK1 := MachineConfig{Device: sim.TK1(), Auto: true}
	for _, d := range []gen.Dataset{gen.Wiki, gen.Cal} {
		for _, delta := range e.DeltaSweep(d) {
			res, prof, err := e.RunBaseline(d, delta, mcTK1)
			if err != nil {
				return nil, err
			}
			s := metrics.Summarize(prof.Parallelism())
			t.AddRow(d.String(), int64(delta), s.Mean, s.Median, res.Iterations)
		}
	}
	return t, nil
}

// Figure3 reproduces the Cal performance-versus-delta study: runtime,
// iteration count, and peak frontier size per delta, plus the per-iteration
// frontier-size series for each delta (the figure's curves).
func Figure3(e *Env) ([]*trace.Table, error) {
	d := gen.Cal
	mc := MachineConfig{Device: sim.TK1(), Auto: true}
	summary := trace.NewTable("fig3_cal_delta_summary",
		"delta", "sim_ms", "iterations", "peak_frontier", "edges_relaxed")
	series := trace.NewTable("fig3_cal_frontier_series", "delta", "iteration", "frontier")
	for _, delta := range e.DeltaSweep(d) {
		res, prof, err := e.RunBaseline(d, delta, mc)
		if err != nil {
			return nil, err
		}
		s := metrics.Summarize(prof.Parallelism())
		summary.AddRow(int64(delta), res.SimTime.Seconds()*1e3, res.Iterations, s.Max, res.EdgesRelaxed)
		// Thin the series to at most 512 points per delta for plotting.
		par := prof.Parallelism()
		stride := len(par)/512 + 1
		for k := 0; k < len(par); k += stride {
			series.AddRow(int64(delta), k, par[k])
		}
	}
	return []*trace.Table{summary, series}, nil
}

// Figure5 reproduces the efficacy-of-control distributions on the road
// network: quartiles of available parallelism for the baseline at its
// time-minimizing delta versus the self-tuning algorithm at the three
// set-points.
func Figure5(e *Env) (*trace.Table, error) {
	d := gen.Cal
	dev := sim.TK1()
	mc := MachineConfig{Device: dev, Auto: true}
	t := trace.NewTable("fig5_parallelism_distributions",
		"variant", "q1", "median", "q3", "p95", "mean", "max", "cv", "iterations")

	delta := e.BestDelta(d, dev)
	_, baseProf, err := e.RunBaseline(d, delta, mc)
	if err != nil {
		return nil, err
	}
	bs := metrics.Summarize(baseProf.Parallelism())
	t.AddRow("near+far", bs.Q1, bs.Median, bs.Q3, bs.P95, bs.Mean, bs.Max, bs.CoefOfVar, bs.N)

	for _, p := range e.SetPoints(d) {
		_, prof, err := e.RunTuned(d, p, mc)
		if err != nil {
			return nil, err
		}
		s := metrics.Summarize(prof.Parallelism())
		t.AddRow(fmt.Sprintf("P=%.0f", p), s.Q1, s.Median, s.Q3, s.P95, s.Mean, s.Max, s.CoefOfVar, s.N)
	}
	return t, nil
}

// PerfPower reproduces one panel of Figures 6–7: every (variant, DVFS)
// combination's speedup and relative power, normalized to the baseline
// under the automatic governor. Rows carry the marker grid of the figure.
func PerfPower(e *Env, d gen.Dataset, dev *sim.Device) (*trace.Table, error) {
	t := trace.NewTable(fmt.Sprintf("perfpower_%s_%s", dev.Name, d),
		"variant", "freq", "speedup", "rel_power", "sim_ms", "avg_watts", "energy_j", "rel_energy", "edp")
	delta := e.BestDelta(d, dev)
	configs := MachineConfigs(dev)

	// Reference: baseline at the automatic DVFS policy, averaged over the
	// configured source set.
	refRes, err := e.BaselineAvg(d, delta, configs[0])
	if err != nil {
		return nil, err
	}
	refTime := refRes.SimTime.Seconds()
	refPower := refRes.AvgPowerW
	refEnergy := refRes.EnergyJ

	add := func(variant string, mc MachineConfig, res AvgRun) {
		t.AddRow(variant, mc.Label(),
			refTime/res.SimTime.Seconds(),
			res.AvgPowerW/refPower,
			res.SimTime.Seconds()*1e3, res.AvgPowerW, res.EnergyJ,
			res.EnergyJ/refEnergy,
			res.EnergyJ*res.SimTime.Seconds())
	}
	add("near+far", configs[0], refRes)
	for _, mc := range configs[1:] {
		res, err := e.BaselineAvg(d, delta, mc)
		if err != nil {
			return nil, err
		}
		add("near+far", mc, res)
	}
	for _, p := range e.SetPoints(d) {
		for _, mc := range configs {
			res, err := e.TunedAvg(d, p, mc)
			if err != nil {
				return nil, err
			}
			add(fmt.Sprintf("P=%.0f", p), mc, res)
		}
	}
	return t, nil
}

// Figure6 reproduces the TK1 performance-versus-power panels (Cal and Wiki).
func Figure6(e *Env) ([]*trace.Table, error) {
	return perfPowerPanels(e, sim.TK1())
}

// Figure7 reproduces the TX1 performance-versus-power panels (Cal and Wiki).
func Figure7(e *Env) ([]*trace.Table, error) {
	return perfPowerPanels(e, sim.TX1())
}

func perfPowerPanels(e *Env, dev *sim.Device) ([]*trace.Table, error) {
	var out []*trace.Table
	for _, d := range []gen.Dataset{gen.Cal, gen.Wiki} {
		t, err := PerfPower(e, d, dev)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// Figure8 reproduces the average-power-versus-set-point sweep under the
// default (automatic) DVFS policy.
func Figure8(e *Env) (*trace.Table, error) {
	t := trace.NewTable("fig8_power_vs_setpoint",
		"dataset", "P", "avg_watts", "avg_parallelism", "sim_ms")
	for _, d := range []gen.Dataset{gen.Cal, gen.Wiki} {
		pts := e.SetPoints(d)
		// Extend the three canonical set-points into a denser sweep.
		sweep := []float64{pts[0] / 2, pts[0], pts[1], pts[2], pts[2] * 2}
		for _, p := range sweep {
			if p < 1 {
				continue
			}
			mc := MachineConfig{Device: sim.TK1(), Auto: true}
			res, prof, err := e.RunTuned(d, p, mc)
			if err != nil {
				return nil, err
			}
			s := metrics.Summarize(prof.Parallelism())
			t.AddRow(d.String(), p, res.AvgPowerW, s.Mean, res.SimTime.Seconds()*1e3)
		}
	}
	return t, nil
}

// Overhead reproduces the Section 5.2 controller-overhead measurement:
// wall-clock controller time per second of solver runtime. The controller
// time is the solve's PhaseController span total (the policy's Observe and
// NextDelta calls and the flight snapshot, not the rebalancer); the total
// is the solve's wall time.
func Overhead(e *Env) (*trace.Table, error) {
	t := trace.NewTable("overhead_controller",
		"dataset", "iterations", "controller_us", "total_ms", "us_per_second", "percent")
	o := obs.New(1) // the phase totals are exact however few spans are kept
	for _, d := range []gen.Dataset{gen.Cal, gen.Wiki} {
		sc := o.NewScope("overhead")
		res, err := core.Solve(e.Graph(d), e.Source(d), core.Config{P: e.SetPoints(d)[1]},
			&sssp.Options{Pool: e.Pool, Scope: sc})
		ctrl := time.Duration(sc.Tracer().Totals(obs.PhaseController).HostNs)
		sc.Close()
		if err != nil {
			return nil, err
		}
		total := res.WallTime
		t.AddRow(d.String(),
			res.Iterations,
			ctrl.Microseconds(),
			float64(total.Microseconds())/1e3,
			ctrl.Seconds()*1e6/total.Seconds(),
			100*ctrl.Seconds()/total.Seconds())
	}
	return t, nil
}

// Ablation quantifies the design choices DESIGN.md calls out, on the road
// network at the middle set-point: the full per-iteration controller versus
// the one-shot (KLA-style) frozen policy versus the flat (unpartitioned)
// far queue. Columns report simulated time, work, and how tightly the
// achieved parallelism tracked P (mean absolute deviation).
func Ablation(e *Env) (*trace.Table, error) {
	d := gen.Cal
	g := e.Graph(d)
	src := e.Source(d)
	p := e.SetPoints(d)[1]
	t := trace.NewTable("ablation_controller",
		"variant", "sim_ms", "iterations", "edges_relaxed", "farq_scans", "mean_parallelism", "mad_from_P")

	type variant struct {
		name string
		cfg  core.Config
	}
	variants := []variant{
		{"per-iteration", core.Config{P: p}},
		{"one-shot(KLA-style)", core.Config{Policy: core.NewOneShot(core.NewController(p, 2.5, 1), 0)}},
		{"flat-far-queue", core.Config{P: p, DisablePartitioning: true}},
	}
	for _, v := range variants {
		var prof metrics.Profile
		mach := sim.NewMachine(sim.TK1())
		res, err := core.Solve(g, src, v.cfg, &sssp.Options{Pool: e.Pool, Machine: mach, Profile: &prof})
		if err != nil {
			return nil, fmt.Errorf("ablation %s: %w", v.name, err)
		}
		xs := prof.Parallelism()
		var mad float64
		n := 0
		for i, x := range xs {
			if i < 10 {
				continue // skip ramp-in
			}
			dd := x - p
			if dd < 0 {
				dd = -dd
			}
			mad += dd
			n++
		}
		if n > 0 {
			mad /= float64(n)
		}
		s := metrics.Summarize(xs)
		t.AddRow(v.name, res.SimTime.Seconds()*1e3, res.Iterations, res.EdgesRelaxed,
			mach.Stats(sim.KernelFarQueue).Items, s.Mean, mad)
	}
	return t, nil
}

// Experiment is one named entry of the paper's evaluation: a table or a
// figure and the tables that reproduce it.
type Experiment struct {
	Name string
	Run  func(*Env) ([]*trace.Table, error)
}

// Experiments is the whole evaluation in paper order. The figure names are
// the paper's figure numbers.
var Experiments = []Experiment{
	{"table1", one(Table1)},
	{"1", Figure1},
	{"2", one(Figure2)},
	{"3", Figure3},
	{"5", one(Figure5)},
	{"6", Figure6},
	{"7", Figure7},
	{"8", one(Figure8)},
	{"overhead", one(Overhead)},
	{"ablation", one(Ablation)},
	{"trace", one(ControllerTrace)},
}

func one(f func(*Env) (*trace.Table, error)) func(*Env) ([]*trace.Table, error) {
	return func(e *Env) ([]*trace.Table, error) {
		t, err := f(e)
		if err != nil {
			return nil, err
		}
		return []*trace.Table{t}, nil
	}
}

// Select returns the experiments a comma-separated list of names picks, in
// paper order; "all" picks every experiment. An unknown name is an error
// that lists the valid ones.
func Select(names string) ([]Experiment, error) {
	want := map[string]bool{}
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		if n != "all" && !slices.ContainsFunc(Experiments, func(x Experiment) bool { return x.Name == n }) {
			valid := make([]string, len(Experiments))
			for i, x := range Experiments {
				valid[i] = x.Name
			}
			return nil, fmt.Errorf("unknown experiment %q (want all or a comma-separated list of %s)",
				n, strings.Join(valid, ", "))
		}
		want[n] = true
	}
	if want["all"] {
		return Experiments, nil
	}
	var out []Experiment
	for _, x := range Experiments {
		if want[x.Name] {
			out = append(out, x)
		}
	}
	return out, nil
}

// Run executes the experiments in order and returns their tables.
func Run(e *Env, xs []Experiment) ([]*trace.Table, error) {
	var out []*trace.Table
	for _, x := range xs {
		ts, err := x.Run(e)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", x.Name, err)
		}
		out = append(out, ts...)
	}
	return out, nil
}

// RunAll executes every experiment and returns all result tables in paper
// order.
func RunAll(e *Env) ([]*trace.Table, error) { return Run(e, Experiments) }
