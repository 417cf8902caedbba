// Package energysssp is an energy-efficiency-oriented single-source
// shortest path library: a from-scratch reproduction of "An Energy-Efficient
// Single-Source Shortest Path Algorithm" (Karamati, Young, Vuduc, IPDPS
// 2018).
//
// The library's centerpiece is a self-tuning near-far SSSP solver whose
// delta threshold is retuned every iteration by an online-learning
// controller so that the available parallelism tracks a user-chosen
// set-point P — an algorithmic knob for trading performance against power.
// Around it the package provides the fixed-delta near-far baseline
// (Gunrock-style) and the Dijkstra oracle; deterministic graph generators
// standing in for the paper's datasets; a simulated Jetson TK1/TX1 GPU with
// DVFS and board-power models (the hardware substitute documented in
// DESIGN.md); and an experiment harness that regenerates every table and
// figure of the paper's evaluation.
//
// Quick start:
//
//	g := energysssp.CalLike(0.01, 42)
//	out, err := energysssp.Run(g, 0, energysssp.RunConfig{
//		Algorithm: energysssp.SelfTuning,
//		SetPoint:  1000,
//		Device:    "TK1",
//	})
//
// See examples/ for complete programs.
package energysssp

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"energysssp/internal/core"
	"energysssp/internal/dvfs"
	"energysssp/internal/flight"
	"energysssp/internal/gen"
	"energysssp/internal/graph"
	"energysssp/internal/harness"
	"energysssp/internal/metrics"
	"energysssp/internal/obs"
	"energysssp/internal/parallel"
	"energysssp/internal/power"
	"energysssp/internal/sim"
	"energysssp/internal/sssp"
	"energysssp/internal/trace"
)

// Re-exported core types. The aliases keep user code inside the public
// namespace while the implementation lives in internal packages.
type (
	// Graph is an immutable CSR weighted digraph.
	Graph = graph.Graph
	// Edge is a directed weighted edge for graph construction.
	Edge = graph.Edge
	// VID is a vertex id.
	VID = graph.VID
	// Weight is an edge weight (positive).
	Weight = graph.Weight
	// Dist is a path distance; Inf marks unreachable vertices.
	Dist = graph.Dist
	// Profile is a per-iteration runtime log (frontier sizes X1..X4,
	// delta, simulated time/power).
	Profile = metrics.Profile
	// IterStat is one Profile entry.
	IterStat = metrics.IterStat
	// Summary holds distribution statistics of a profile series.
	Summary = metrics.Summary
	// Result reports one solver run.
	Result = sssp.Result
	// Table is a generic experiment result table (CSV/JSON renderable).
	Table = trace.Table
	// Device describes a simulated CPU+GPU board.
	Device = sim.Device
	// Freq is a GPU core/memory frequency pair (the DVFS knob).
	Freq = sim.Freq
	// PowerSummary holds time-weighted power statistics of a run.
	PowerSummary = power.Summary
	// ExperimentConfig parameterizes the paper-evaluation harness.
	ExperimentConfig = harness.Config
	// Observer is the runtime observability handle: per-solve phase-span
	// tracers plus one energy meter and phase totals shared by every solve
	// under it (see NewObserver, RunConfig.Obs).
	Observer = obs.Observer
	// FlightRecorder captures one fixed-size controller flight record per
	// solver iteration (see NewFlightRecorder, RunConfig.FlightLog).
	FlightRecorder = flight.Recorder
	// FlightLog is a snapshot of a flight recorder: header plus records.
	FlightLog = flight.Log
	// FlightDiff reports the first divergence and per-field deltas between
	// two flight logs (see DiffFlightLogs).
	FlightDiff = flight.DiffReport
	// FlightReplayReport is the outcome of deterministically re-executing a
	// flight log's controller trajectory (see ReplayFlight).
	FlightReplayReport = flight.ReplayReport
	// FlightFinding is one detected controller pathology (see FlightFindings).
	FlightFinding = flight.Finding
)

// Inf is the distance of unreachable vertices.
const Inf = graph.Inf

// NewGraph builds a CSR graph from directed edges (see graph.New).
func NewGraph(n int, edges []Edge) (*Graph, error) { return graph.New(n, edges) }

// LoadGraph reads a graph from a .gr (DIMACS), .mtx (Matrix Market), or
// .tsv (edge list) file.
func LoadGraph(path string) (*Graph, error) { return graph.LoadFile(path) }

// SaveGraph writes a graph to a .gr or .tsv file.
func SaveGraph(path string, g *Graph) error { return graph.SaveFile(path, g) }

// CalLike generates the road-network dataset substitute at the given scale
// (1.0 reproduces the paper's 1.89M-vertex input).
func CalLike(scale float64, seed uint64) *Graph { return gen.CalLike(scale, seed) }

// WikiLike generates the scale-free dataset substitute at the given scale
// (1.0 reproduces the paper's 1.63M-vertex, 19.7M-edge input).
func WikiLike(scale float64, seed uint64) *Graph { return gen.WikiLike(scale, seed) }

// Grid generates a rows×cols lattice with uniform random weights.
func Grid(rows, cols, wmin, wmax int, seed uint64) *Graph {
	return gen.Grid(rows, cols, wmin, wmax, seed)
}

// RMAT generates a scale-free digraph with 2^scale vertices and
// edgeFactor·2^scale arcs (Graph500 partition probabilities).
func RMAT(scale, edgeFactor, wmin, wmax int, seed uint64) *Graph {
	return gen.RMAT(scale, edgeFactor, 0.57, 0.19, 0.19, wmin, wmax, seed)
}

// Algorithm selects an SSSP solver.
type Algorithm int

const (
	// Dijkstra is the sequential heap-based reference oracle.
	Dijkstra Algorithm = iota
	// NearFar is the Gunrock-style fixed-delta baseline of the paper.
	NearFar
	// SelfTuning is the paper's contribution: near-far with the
	// parallelism-set-point controller retuning delta every iteration.
	SelfTuning
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case Dijkstra:
		return "dijkstra"
	case NearFar:
		return "nearfar"
	case SelfTuning:
		return "selftuning"
	default:
		return fmt.Sprintf("algorithm(%d)", int(a))
	}
}

// ParseAlgorithm converts a name (as printed by String) to an Algorithm.
func ParseAlgorithm(s string) (Algorithm, error) {
	switch strings.ToLower(s) {
	case "dijkstra":
		return Dijkstra, nil
	case "nearfar", "near-far", "nf":
		return NearFar, nil
	case "selftuning", "self-tuning", "st":
		return SelfTuning, nil
	default:
		return 0, fmt.Errorf("energysssp: unknown algorithm %q", s)
	}
}

// RunConfig configures one solver run.
type RunConfig struct {
	// Algorithm selects the solver (default Dijkstra).
	Algorithm Algorithm
	// Delta is the fixed threshold for NearFar (0 selects the graph's
	// average edge weight).
	Delta Dist
	// SetPoint is the parallelism target for SelfTuning (required there).
	SetPoint float64
	// Workers sizes the goroutine pool (0 = single-threaded, -1 = all
	// CPUs); Run rejects more than 1024.
	Workers int
	// FarQueue pins the far-queue structure for NearFar: "flat" (the
	// paper baseline's rescanning queue), "rho" (lazy-batched fine
	// buckets), or ""/"auto" (rho). Exact distances either way.
	FarQueue string
	// Device attaches a simulated board ("TK1" or "TX1"; empty disables
	// simulation).
	Device string
	// Freq selects the DVFS setting when a device is attached: "auto"
	// (default, ondemand governor) or a pinned "core/mem" MHz pair such
	// as "852/924".
	Freq string
	// Profile records per-iteration statistics when true.
	Profile bool
	// PowerTrace records the power trace (requires Device) when true.
	PowerTrace bool
	// Paths derives the shortest-path tree (RunOutput.Parents) when true.
	Paths bool
	// Obs attaches a runtime observer (see NewObserver): the solve's phase
	// spans, exportable to Perfetto via WriteTrace, and its joules per
	// phase, added to the observer's totals that WriteEnergyReport writes.
	// Host-side only: simulated time and energy are bit-identical with or
	// without it, and the zero-allocation steady state is preserved. Nil
	// (the default) disables all instrumentation.
	Obs *Observer
	// FlightLog attaches a controller flight recorder (see
	// NewFlightRecorder): one fixed-size record per solver iteration for
	// the SelfTuning and NearFar algorithms, exportable with
	// WriteFlightLog, re-executable with ReplayFlight, and comparable with
	// DiffFlightLogs. A rejected Run leaves the recorder untouched.
	// Host-side only and allocation-free in the steady state, like Obs.
	FlightLog *FlightRecorder
}

// RunOutput bundles a solver result with its optional instrumentation.
type RunOutput struct {
	Result
	// Profile is non-nil when RunConfig.Profile was set.
	Profile *Profile
	// Power summarizes the run's power trace when PowerTrace was set.
	Power *PowerSummary
	// Parallelism summarizes the available-parallelism series when
	// Profile was set.
	Parallelism *Summary
	// Parents is the shortest-path tree (NoParent for the source and
	// unreachable vertices) when RunConfig.Paths was set.
	Parents []VID
}

// NoParent marks the source and unreachable vertices in RunOutput.Parents.
const NoParent = sssp.NoParent

// ShortestPath reconstructs the path to v from a run's parent tree
// (inclusive of both endpoints); it returns nil for unreachable v.
func ShortestPath(out *RunOutput, v VID) ([]VID, error) {
	if out.Parents == nil {
		return nil, fmt.Errorf("energysssp: run was not configured with Paths")
	}
	return sssp.PathTo(out.Parents, out.Dist, v)
}

// ParseFreq parses the paper's "core/mem" MHz notation.
func ParseFreq(s string) (Freq, error) {
	parts := strings.Split(s, "/")
	if len(parts) != 2 {
		return Freq{}, fmt.Errorf("energysssp: frequency %q not in core/mem form", s)
	}
	c, err1 := strconv.Atoi(parts[0])
	m, err2 := strconv.Atoi(parts[1])
	if err1 != nil || err2 != nil {
		return Freq{}, fmt.Errorf("energysssp: frequency %q not numeric", s)
	}
	return Freq{CoreMHz: c, MemMHz: m}, nil
}

// NewObserver constructs a runtime observer whose per-solve span trees hold
// up to traceEvents spans each (0 selects the default, 64Ki). Attach it via
// RunConfig.Obs (or sssp.Options.Obs), export its timeline with WriteTrace
// and its joules with WriteEnergyReport. One observer may be shared across
// many runs — including concurrent ones: each solve gets its own scope, so
// span trees stay disjoint while phase totals and joules add up in the
// observer.
func NewObserver(traceEvents int) *Observer { return obs.New(traceEvents) }

// NewFlightRecorder constructs a controller flight recorder whose
// preallocated ring retains the last capacity iterations (0 selects the
// default, 16Ki — enough for every iteration of paper-scale runs). Attach
// it via RunConfig.FlightLog (or sssp.Options.Flight); one recorder may be
// reused across runs, retaining the last run's log.
func NewFlightRecorder(capacity int) *FlightRecorder { return flight.NewRecorder(capacity) }

// WriteFlightLog serializes a flight log as versioned JSONL. Floats are
// written in shortest round-tripping decimal form, so ReadFlightLog
// recovers bit-identical values.
func WriteFlightLog(w io.Writer, l *FlightLog) error { return flight.WriteJSONL(w, l) }

// ReadFlightLog parses a JSONL flight log written by WriteFlightLog.
func ReadFlightLog(r io.Reader) (*FlightLog, error) { return flight.ReadJSONL(r) }

// ReplayFlight re-executes the controller trajectory recorded in l and
// reports every bit-level mismatch between the recorded and re-executed
// decisions — the determinism gate for the self-tuning controller (and the
// near-far phase schedule). An empty report means the log replays
// bit-identically.
func ReplayFlight(l *FlightLog) (*FlightReplayReport, error) { return core.ReplayFlight(l) }

// DiffFlightLogs aligns two flight logs iteration by iteration and reports
// the first divergence, per-field deltas, and each run's set-point tracking
// error.
func DiffFlightLogs(a, b *FlightLog) *FlightDiff { return flight.DiffLogs(a, b) }

// FlightFindings scans a flight log for controller pathologies — δ
// sign-flip oscillation, α collapse onto its clamp floor, sustained
// set-point escape — with the default detector thresholds.
func FlightFindings(l *FlightLog) []FlightFinding { return flight.Detect(l, flight.DetectOptions{}) }

// WriteFlightDashboard renders an ASCII convergence dashboard of a flight
// log: trajectory sparklines, tracking statistics, and detector findings.
func WriteFlightDashboard(w io.Writer, l *FlightLog) error { return flight.WriteDashboard(w, l) }

// WriteTrace writes o's recorded span timeline as Chrome trace-event JSON
// loadable in ui.perfetto.dev: one process per solve scope, each with a
// host wall-clock track (solve → iteration → phase → kernel nesting) and a
// simulated-device track of the intervals those spans charged.
func WriteTrace(w io.Writer, o *Observer) error {
	if o == nil {
		return fmt.Errorf("energysssp: WriteTrace requires a non-nil Observer")
	}
	return obs.WriteTraceJSON(w, o.TraceSnapshot())
}

// WriteEnergyReport writes o's energy-attribution artifact as JSON:
// simulated joules per solver phase and the total. The per-phase
// figures reconcile with the simulator's own energy accounting to within
// one ULP per charge.
func WriteEnergyReport(w io.Writer, o *Observer) error {
	if o == nil {
		return fmt.Errorf("energysssp: WriteEnergyReport requires a non-nil Observer")
	}
	return o.WriteEnergyJSON(w)
}

// maxPoolWorkers bounds the worker count of every entry point. The
// kernels size per-worker buffers by the pool size, and the first parallel
// advance starts that many goroutines, so an unbounded count is an
// unbounded allocation.
const maxPoolWorkers = 1024

// newPool builds the goroutine pool for a workers setting: negative
// selects all CPUs, 0 and 1 run single-threaded (a nil pool), and n > 1
// sizes the pool to n. A count above maxPoolWorkers is an error. The
// caller closes a non-nil pool.
func newPool(workers int) (*parallel.Pool, error) {
	if err := checkWorkers(workers); err != nil {
		return nil, err
	}
	switch {
	case workers < 0:
		return parallel.NewPool(0), nil
	case workers > 1:
		return parallel.NewPool(workers), nil
	}
	return nil, nil
}

// checkWorkers rejects a worker count above maxPoolWorkers.
func checkWorkers(workers int) error {
	if workers > maxPoolWorkers {
		return fmt.Errorf("energysssp: %d workers exceeds the limit of %d", workers, maxPoolWorkers)
	}
	return nil
}

// Run executes one SSSP computation per cfg and returns its result and
// instrumentation.
func Run(g *Graph, src VID, cfg RunConfig) (*RunOutput, error) {
	opt := &sssp.Options{Obs: cfg.Obs, Flight: cfg.FlightLog}
	fq, err := sssp.ParseFarQueue(cfg.FarQueue)
	if err != nil {
		return nil, err
	}
	opt.FarQueue = fq
	pool, err := newPool(cfg.Workers)
	if err != nil {
		return nil, err
	}
	if pool != nil {
		opt.Pool = pool
		defer pool.Close()
	}

	var mach *sim.Machine
	if cfg.Device != "" {
		dev, err := sim.DeviceByName(cfg.Device)
		if err != nil {
			return nil, err
		}
		mach = sim.NewMachine(dev)
		freq := cfg.Freq
		if freq == "" || freq == "auto" {
			mach.SetGovernor(dvfs.NewOndemand())
		} else {
			f, err := ParseFreq(freq)
			if err != nil {
				return nil, err
			}
			if err := dvfs.Pin(mach, f); err != nil {
				return nil, err
			}
		}
		if cfg.PowerTrace {
			mach.EnableTrace()
		}
		opt.Machine = mach
	} else if cfg.PowerTrace {
		return nil, fmt.Errorf("energysssp: PowerTrace requires a Device")
	}

	var prof *metrics.Profile
	if cfg.Profile {
		prof = &metrics.Profile{}
		opt.Profile = prof
	}

	delta := cfg.Delta
	if delta <= 0 {
		delta = Dist(g.AvgWeight())
		if delta < 1 {
			delta = 1
		}
	}

	var res sssp.Result
	switch cfg.Algorithm {
	case Dijkstra:
		res, err = sssp.Dijkstra(g, src, opt)
	case NearFar:
		res, err = sssp.NearFar(g, src, delta, opt)
	case SelfTuning:
		res, err = core.Solve(g, src, core.Config{P: cfg.SetPoint}, opt)
	default:
		return nil, fmt.Errorf("energysssp: unknown algorithm %v", cfg.Algorithm)
	}
	if err != nil {
		return nil, err
	}

	out := &RunOutput{Result: res, Profile: prof}
	if prof != nil {
		s := metrics.Summarize(prof.Parallelism())
		out.Parallelism = &s
	}
	if mach != nil && cfg.PowerTrace {
		ps := power.Summarize(mach.Trace())
		out.Power = &ps
	}
	if cfg.Paths {
		out.Parents = sssp.BuildParents(g, src, res.Dist)
	}
	return out, nil
}

// PowerCapConfig re-exports the power-feedback solver configuration
// (the Section 6 extension: close the loop on measured power).
type PowerCapConfig = core.PowerCapConfig

// RunPowerCapped runs the self-tuning solver with its set-point driven by
// measured board power toward the cap (requires a Device; the DVFS
// governor participates in the loop). It returns the run output and the
// trace of set-point adjustments. workers follows RunConfig.Workers.
func RunPowerCapped(g *Graph, src VID, pc PowerCapConfig, device string, workers int) (*RunOutput, []float64, error) {
	dev, err := sim.DeviceByName(device)
	if err != nil {
		return nil, nil, err
	}
	pool, err := newPool(workers)
	if err != nil {
		return nil, nil, err
	}
	if pool != nil {
		defer pool.Close()
	}
	mach := sim.NewMachine(dev)
	mach.SetGovernor(dvfs.NewOndemand())
	opt := &sssp.Options{Machine: mach, Pool: pool}
	var prof metrics.Profile
	opt.Profile = &prof
	res, pTrace, err := core.SolveWithPowerCap(g, src, pc, opt)
	if err != nil {
		return nil, nil, err
	}
	s := metrics.Summarize(prof.Parallelism())
	return &RunOutput{Result: res, Profile: &prof, Parallelism: &s}, pTrace, nil
}

// Experiments runs the complete paper evaluation (every table and figure)
// and returns the result tables in paper order. Pass a zero ExperimentConfig
// for the defaults (1/8 scale, seed 42, all CPUs).
func Experiments(cfg ExperimentConfig) ([]*Table, error) {
	env := harness.NewEnv(cfg)
	defer env.Close()
	return harness.RunAll(env)
}

// Devices lists the available simulated device presets.
func Devices() []*Device { return []*Device{sim.TK1(), sim.TX1()} }

// LoadDevice parses a custom board description (JSON, see
// sim.ReadDeviceJSON) — the extension point for modeling hardware beyond
// the TK1/TX1 presets.
func LoadDevice(r io.Reader) (*Device, error) { return sim.ReadDeviceJSON(r) }

// SaveDevice serializes a device description; start from a preset and edit.
func SaveDevice(w io.Writer, d *Device) error { return sim.WriteDeviceJSON(w, d) }

// TuneDelta sweeps fixed deltas spanning two orders of magnitude around the
// average edge weight and returns the simulated-time-minimizing value on
// the named device — how the baseline's per-input δ* is chosen throughout
// the evaluation (the knob the paper replaces with the set-point P).
//
// Each distinct grid delta is solved once, on the sequential kernel, and
// the points run side by side on up to GOMAXPROCS goroutines; the first
// minimum in grid order wins, so a tie goes to the smaller delta. δ* is
// therefore a pure function of (g, src, device): workers does not change
// the result or the sweep, and is only checked against the entry points'
// limit of 1024.
func TuneDelta(g *Graph, src VID, device string, workers int) (Dist, error) {
	dev, err := sim.DeviceByName(device)
	if err != nil {
		return 0, err
	}
	if err := checkWorkers(workers); err != nil {
		return 0, err
	}
	deltas := tuneGrid(g.AvgWeight())
	times := make([]time.Duration, len(deltas))
	errs := make([]error, len(deltas))
	// Whole solves, not kernel chunks, so plain goroutines rather than a
	// kernel pool; each claims the next grid index until none is left.
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(len(deltas), parallel.MaxWorkers()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(deltas); i = int(next.Add(1) - 1) {
				mach := sim.NewMachine(dev)
				mach.SetGovernor(dvfs.NewOndemand())
				// The sweep pins the paper baseline's flat queue: δ* is the
				// paper's per-input tuning knob, so it must be chosen on the
				// paper's algorithm shape regardless of the session default
				// strategy.
				res, err := sssp.NearFar(g, src, deltas[i], &sssp.Options{Machine: mach, FarQueue: sssp.FarFlat})
				if err != nil {
					errs[i] = err
					continue
				}
				times[i] = res.SimTime
			}
		}()
	}
	wg.Wait()
	best := 0
	for i := range deltas {
		if errs[i] != nil {
			return 0, errs[i]
		}
		if times[i] < times[best] {
			best = i
		}
	}
	return deltas[best], nil
}

// tuneGrid returns TuneDelta's sweep points: the average weight (at least
// 1) times 1/4, 1/2, 1, 2, …, 32, each truncated and raised to at least 1.
// The points are non-decreasing, so a repeat, which the clamp makes below
// a mean weight of 4, is adjacent to its first occurrence and dropped.
func tuneGrid(avg float64) []Dist {
	avg = max(avg, 1)
	var grid []Dist
	for _, mult := range []float64{0.25, 0.5, 1, 2, 4, 8, 16, 32} {
		d := max(Dist(avg*mult), 1)
		if len(grid) == 0 || d != grid[len(grid)-1] {
			grid = append(grid, d)
		}
	}
	return grid
}

// ScalingStudy measures how the self-tuning speedup depends on input scale
// (see EXPERIMENTS.md).
func ScalingStudy(cfg ExperimentConfig, scales []float64) (*Table, error) {
	return harness.ScalingStudy(cfg, scales)
}

// StabilityStudy measures the across-seed spread of the controlled
// parallelism medians.
func StabilityStudy(cfg ExperimentConfig, seeds []uint64) (*Table, error) {
	return harness.StabilityStudy(cfg, seeds)
}
