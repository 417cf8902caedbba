// Package harness reproduces the paper's evaluation: one entry point per
// table and figure (Table 1, Figures 1–3, 5–8, and the Section 5.2
// controller-overhead measurement), each returning result tables whose rows
// correspond to the points plotted in the paper. DESIGN.md carries the
// experiment index; EXPERIMENTS.md records paper-vs-measured values.
package harness

import (
	"fmt"
	"math"
	"time"

	"energysssp/internal/core"
	"energysssp/internal/dvfs"
	"energysssp/internal/gen"
	"energysssp/internal/graph"
	"energysssp/internal/metrics"
	"energysssp/internal/parallel"
	"energysssp/internal/sim"
	"energysssp/internal/sssp"
)

// Config parameterizes the whole evaluation.
type Config struct {
	// Scale shrinks the paper's datasets proportionally; 1.0 is paper
	// size. The default 1/8 is the smallest scale at which the paper's
	// performance/power shapes (mid-P speedup peak on Cal, smooth
	// trade-off on Wiki) are preserved, and runs the full suite in
	// minutes.
	Scale float64
	// Seed drives every generator; runs are reproducible bit-for-bit.
	Seed uint64
	// Workers sizes the goroutine pool (0 = all CPUs).
	Workers int
	// Sources is how many distinct source vertices the power/performance
	// experiments (Figures 6–8) average over (default 1: the highest
	// out-degree vertex, always inside the giant component).
	Sources int
}

// DefaultConfig returns the configuration used by the benchmarks.
func DefaultConfig() Config {
	return Config{Scale: 1.0 / 8, Seed: 42}
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 1.0 / 8
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Sources <= 0 {
		c.Sources = 1
	}
	return c
}

// Env caches the generated datasets and worker pool across experiments.
type Env struct {
	Cfg  Config
	Pool *parallel.Pool

	graphs  map[gen.Dataset]*graph.Graph
	sources map[gen.Dataset]graph.VID
	bestD   map[string]graph.Dist
}

// NewEnv prepares an experiment environment.
func NewEnv(cfg Config) *Env {
	cfg = cfg.withDefaults()
	return &Env{
		Cfg:     cfg,
		Pool:    parallel.NewPool(cfg.Workers),
		graphs:  map[gen.Dataset]*graph.Graph{},
		sources: map[gen.Dataset]graph.VID{},
		bestD:   map[string]graph.Dist{},
	}
}

// Close releases the worker pool.
func (e *Env) Close() { e.Pool.Close() }

// Graph returns (and caches) the dataset at the configured scale.
func (e *Env) Graph(d gen.Dataset) *graph.Graph {
	if g, ok := e.graphs[d]; ok {
		return g
	}
	g := d.Generate(e.Cfg.Scale, e.Cfg.Seed)
	e.graphs[d] = g
	return g
}

// Source returns the primary deterministic, well-connected source vertex
// for the dataset: the maximum out-degree vertex, which sits in the giant
// component of both the road and the scale-free generators.
func (e *Env) Source(d gen.Dataset) graph.VID {
	if s, ok := e.sources[d]; ok {
		return s
	}
	s := e.SourceList(d, 1)[0]
	e.sources[d] = s
	return s
}

// SourceList returns the k highest-out-degree vertices of the dataset in
// descending degree order — the deterministic source set the averaged
// experiments run over. High-degree vertices sit inside the giant component
// in both generators.
func (e *Env) SourceList(d gen.Dataset, k int) []graph.VID {
	g := e.Graph(d)
	if k < 1 {
		k = 1
	}
	if k > g.NumVertices() {
		k = g.NumVertices()
	}
	// Partial selection of the top-k by degree (k is tiny).
	type vd struct {
		v   graph.VID
		deg int64
	}
	top := make([]vd, 0, k+1)
	for u := 0; u < g.NumVertices(); u++ {
		deg := g.OutDegree(graph.VID(u))
		pos := len(top)
		for pos > 0 && top[pos-1].deg < deg {
			pos--
		}
		if pos < k {
			top = append(top, vd{})
			copy(top[pos+1:], top[pos:])
			top[pos] = vd{v: graph.VID(u), deg: deg}
			if len(top) > k {
				top = top[:k]
			}
		}
	}
	out := make([]graph.VID, len(top))
	for i, t := range top {
		out[i] = t.v
	}
	return out
}

// SetPoints returns the three parallelism set-points used for the dataset,
// scaled from the paper's values (Cal: 10k/20k/40k; Wiki: 75k/300k/600k at
// full scale), with a floor so tiny test scales stay meaningful.
func (e *Env) SetPoints(d gen.Dataset) []float64 {
	var full []float64
	switch d {
	case gen.Cal:
		full = []float64{10_000, 20_000, 40_000}
	default:
		full = []float64{75_000, 300_000, 600_000}
	}
	out := make([]float64, len(full))
	for i, p := range full {
		v := math.Round(p * e.Cfg.Scale)
		if v < 64 {
			v = 64
		}
		if i > 0 && v <= out[i-1] {
			v = out[i-1] * 2
		}
		out[i] = v
	}
	return out
}

// DeltaSweep returns the fixed-delta grid for the dataset, spanning two
// orders of magnitude around the average edge weight (Figures 2–3's x-axis).
func (e *Env) DeltaSweep(d gen.Dataset) []graph.Dist {
	avg := e.Graph(d).AvgWeight()
	if avg < 1 {
		avg = 1
	}
	mult := []float64{0.25, 0.5, 1, 2, 4, 8, 16, 32}
	out := make([]graph.Dist, 0, len(mult))
	seen := map[graph.Dist]bool{}
	for _, m := range mult {
		v := graph.Dist(math.Max(1, math.Round(avg*m)))
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// MachineConfig names one DVFS configuration of a device.
type MachineConfig struct {
	Device *sim.Device
	// Auto selects the ondemand governor (the paper's "unconstrained"
	// blue markers); otherwise the machine is pinned at Freq.
	Auto bool
	Freq sim.Freq
}

// Label renders the paper's notation: "auto" or "c/m".
func (mc MachineConfig) Label() string {
	if mc.Auto {
		return "auto"
	}
	return mc.Freq.String()
}

// NewMachine builds a machine in this configuration.
func (mc MachineConfig) NewMachine() *sim.Machine {
	m := sim.NewMachine(mc.Device)
	if mc.Auto {
		m.SetGovernor(dvfs.NewOndemand())
	} else {
		if err := dvfs.Pin(m, mc.Freq); err != nil {
			panic(fmt.Sprintf("harness: %v", err)) // static config; cannot happen
		}
	}
	return m
}

// MachineConfigs returns the paper's DVFS grid for a device: the automatic
// policy plus the fixed high and low operating points.
func MachineConfigs(dev *sim.Device) []MachineConfig {
	out := []MachineConfig{{Device: dev, Auto: true}}
	for _, f := range dvfs.StudyPoints(dev) {
		out = append(out, MachineConfig{Device: dev, Freq: f})
	}
	return out
}

// BestDelta sweeps the fixed-delta grid on the device's default (auto)
// configuration and returns the simulated-time-minimizing delta — the
// paper's baseline always runs at this per-input optimum. Results are
// cached per (dataset, device).
func (e *Env) BestDelta(d gen.Dataset, dev *sim.Device) graph.Dist {
	key := fmt.Sprintf("%s/%s", d, dev.Name)
	if v, ok := e.bestD[key]; ok {
		return v
	}
	g := e.Graph(d)
	src := e.Source(d)
	var best graph.Dist = 1
	bestTime := math.Inf(1)
	for _, delta := range e.DeltaSweep(d) {
		mc := MachineConfig{Device: dev, Auto: true}
		mach := mc.NewMachine()
		// δ* is defined on the paper baseline's flat queue (see RunBaseline).
		res, err := sssp.NearFar(g, src, delta, &sssp.Options{Pool: e.Pool, Machine: mach, FarQueue: sssp.FarFlat})
		if err != nil {
			continue
		}
		if t := res.SimTime.Seconds(); t < bestTime {
			bestTime = t
			best = delta
		}
	}
	e.bestD[key] = best
	return best
}

// RunBaseline executes the fixed-delta near-far baseline under a machine
// configuration, returning the result and profile. The flat far queue is
// pinned: the baseline rows reproduce the paper's algorithm (Davidson et
// al.'s rescanning queue), not this library's fastest strategy, and the
// pin also keeps the cached δ* sweep stable across sessions.
func (e *Env) RunBaseline(d gen.Dataset, delta graph.Dist, mc MachineConfig) (sssp.Result, *metrics.Profile, error) {
	var prof metrics.Profile
	mach := mc.NewMachine()
	res, err := sssp.NearFar(e.Graph(d), e.Source(d), delta, &sssp.Options{
		Pool: e.Pool, Machine: mach, Profile: &prof, FarQueue: sssp.FarFlat,
	})
	return res, &prof, err
}

// RunTuned executes the self-tuning solver at set-point p under a machine
// configuration.
func (e *Env) RunTuned(d gen.Dataset, p float64, mc MachineConfig) (sssp.Result, *metrics.Profile, error) {
	var prof metrics.Profile
	mach := mc.NewMachine()
	res, err := core.Solve(e.Graph(d), e.Source(d), core.Config{P: p}, &sssp.Options{
		Pool: e.Pool, Machine: mach, Profile: &prof,
	})
	return res, &prof, err
}

// AvgRun aggregates one configuration's simulated cost over the configured
// source set (Config.Sources): mean time and energy, time-weighted average
// power.
type AvgRun struct {
	SimTime   time.Duration
	EnergyJ   float64
	AvgPowerW float64
	Sources   int
}

func (e *Env) runAvg(d gen.Dataset, mc MachineConfig,
	solve func(src graph.VID, opt *sssp.Options) (sssp.Result, error)) (AvgRun, error) {
	sources := e.SourceList(d, e.Cfg.Sources)
	var totalTime time.Duration
	var totalJ float64
	for _, src := range sources {
		mach := mc.NewMachine()
		res, err := solve(src, &sssp.Options{Pool: e.Pool, Machine: mach})
		if err != nil {
			return AvgRun{}, err
		}
		totalTime += res.SimTime
		totalJ += res.EnergyJ
	}
	out := AvgRun{
		SimTime: totalTime / time.Duration(len(sources)),
		EnergyJ: totalJ / float64(len(sources)),
		Sources: len(sources),
	}
	if totalTime > 0 {
		out.AvgPowerW = totalJ / totalTime.Seconds()
	}
	return out, nil
}

// BaselineAvg is RunBaseline averaged over the configured source set (and
// pins the flat queue for the same paper-fidelity reason).
func (e *Env) BaselineAvg(d gen.Dataset, delta graph.Dist, mc MachineConfig) (AvgRun, error) {
	g := e.Graph(d)
	return e.runAvg(d, mc, func(src graph.VID, opt *sssp.Options) (sssp.Result, error) {
		opt.FarQueue = sssp.FarFlat
		return sssp.NearFar(g, src, delta, opt)
	})
}

// TunedAvg is RunTuned averaged over the configured source set.
func (e *Env) TunedAvg(d gen.Dataset, p float64, mc MachineConfig) (AvgRun, error) {
	g := e.Graph(d)
	return e.runAvg(d, mc, func(src graph.VID, opt *sssp.Options) (sssp.Result, error) {
		return core.Solve(g, src, core.Config{P: p}, opt)
	})
}
