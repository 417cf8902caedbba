// Command bench is the repository benchmark. It drives one closed-loop
// workload of energysssp.Run calls, checks every solve against a Dijkstra
// oracle, and prints each metric by name with its unit. The last line of
// standard output is one JSON object with the keys correct, attempted,
// failed and metrics. The exit code is 1 if any solve failed or was wrong,
// and 2 for a bad command line.
//
// With --trace 0 the metrics are the end-to-end ones, from untraced solves.
// With --trace 1 they are the per-layer ones, from a separate phase that
// runs the same solves with an Observer attached, plus reference lanes
// (Dijkstra, one worker) and probes of layer entry points.
//
// Run it from the repository root; run.sh builds it first:
//
//	bash bench/run.sh --workload road-nearfar --seed 1 --seconds 20 --trace 0
//
// See README.md for the workloads and what each metric should respond to.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	es "energysssp"
	"energysssp/internal/obs"
)

func main() {
	w := bufio.NewWriter(os.Stdout)
	code := run(os.Args[1:], w)
	if err := w.Flush(); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		code = 1
	}
	os.Exit(code)
}

func run(args []string, stdout *bufio.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (see README.md)")
	seed := fs.Uint64("seed", 1, "seed the sources are drawn from")
	seconds := fs.Float64("seconds", 20, "measured time of the run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced phase")
	outDir := fs.String("out", "", "directory for the JSON result, the text report and, with --trace 1, a Perfetto trace")
	quick := fs.Bool("quick", false, "smoke-test size: 1/32 of each scale and set-point, four sources")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds < 0 {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		fmt.Fprintf(os.Stderr, "bench: want --workload {%s} --seed N --seconds S --trace 0|1\n", strings.Join(names, ","))
		return 2
	}
	if *quick {
		w = w.quick()
	}
	rep, err := measure(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *outDir != "")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	if *outDir != "" {
		if err := rep.write(*outDir); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	}
	if err := rep.print(stdout); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	if rep.failed > 0 {
		return 1
	}
	return 0
}

// Budget shares of a traced run's --seconds. The three solve lanes run in
// traceRounds interleaved blocks, so a drift in machine speed over the run
// shifts them alike and cancels out of their ratios.
const (
	shareUntraced = 35 // untraced solves, the base of api.trace_overhead_pct
	shareTraced   = 35
	shareP1       = 20 // the same solves at Workers: 1
	shareForkJoin = 2
	shareAdvance  = 4 // per pool size
	traceRounds   = 5
)

func measure(w workload, seed uint64, budget time.Duration, traced, keepTrace bool) (*report, error) {
	// The oracle doubles as the Dijkstra lane; a traced run times it alone.
	oracleWorkers := runtime.NumCPU()
	if traced {
		oracleWorkers = 1
	}
	in, err := prepare(w, seed, oracleWorkers)
	if err != nil {
		return nil, err
	}
	rep := newReport(w, seed, traced, in)
	cfg := w.config(in.delta)
	clients := w.clients()
	share := func(pct int) time.Duration { return budget * time.Duration(pct) / 100 }
	// runBlock runs one block of l, continuing its source cycle.
	runBlock := func(l *lane, cfg es.RunConfig, clients int, budget time.Duration, minSolves int, traced bool) *lane {
		runtime.GC() // collect set-up and earlier blocks' garbage outside the window
		b := runLane(in, cfg, clients, l.attempted(), budget, minSolves, traced)
		rep.attempted += b.attempted()
		rep.failed += b.failed
		l.add(b)
		return l
	}

	runBlock(&lane{}, cfg, clients, 0, 2*clients, false) // warm-up: pools, scratch, page faults
	if !traced {
		// One full cycle at least, so the sim medians cover every source.
		rep.endToEnd(in, runBlock(&lane{}, cfg, clients, budget, len(in.sources), false))
		return rep, nil
	}
	p1cfg := cfg
	p1cfg.Workers = 1
	var untraced, tl, p1 lane
	for range traceRounds {
		runBlock(&untraced, cfg, clients, share(shareUntraced)/traceRounds, 1, false)
		runBlock(&tl, cfg, clients, share(shareTraced)/traceRounds, 1, true)
		runBlock(&p1, p1cfg, 1, share(shareP1)/traceRounds, 1, false)
	}
	fj := forkJoinNs(share(shareForkJoin))
	adv, err := advanceNsPerEdge(in.g, in.sources[0], []int{1, runtime.NumCPU()}, share(shareAdvance))
	if err != nil {
		return nil, err
	}
	rep.perLayer(in, cfg, &untraced, &tl, &p1, fj, adv)
	if keepTrace {
		if err := rep.traceOneSolve(in, cfg); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// metric is one reported value.
type metric struct {
	name  string
	value float64
	unit  string
}

type report struct {
	workload  string
	header    [][2]string // machine stamp and input digests
	metrics   []metric
	attempted int
	failed    int
	trace     []byte // Perfetto JSON of one traced solve
}

func newReport(w workload, seed uint64, traced bool, in *inputs) *report {
	mode := "0"
	if traced {
		mode = "1"
	}
	return &report{
		workload: w.name,
		header: [][2]string{
			{"run.workload", w.name},
			{"run.seed", fmt.Sprint(seed)},
			{"run.trace", mode},
			{"machine.nproc", fmt.Sprint(runtime.NumCPU())},
			{"machine.gomaxprocs", fmt.Sprint(runtime.GOMAXPROCS(0))},
			{"machine.go", runtime.Version()},
			{"machine.cpu", cpuModel()},
			{"input.graph", fmt.Sprintf("%s vertices=%d arcs=%d digest=%016x",
				in.g.Name(), in.g.NumVertices(), in.g.NumEdges(), graphDigest(in.g))},
			{"input.sources", fmt.Sprintf("count=%d digest=%016x", len(in.sources), digest(digestSeed, in.sources))},
			{"input.delta", fmt.Sprint(in.delta)},
		},
	}
}

func (r *report) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name, value, unit})
}

func (r *report) endToEnd(in *inputs, l *lane) {
	// Simulated cost is a function of (graph, source), so its medians are
	// taken over the first cycle: one solve per source.
	var simMJ, simMs []float64
	for _, s := range l.solves {
		if s.idx < len(in.sources) {
			simMJ = append(simMJ, s.simMJ)
			simMs = append(simMs, s.simMs)
		}
	}
	ms := l.ms()
	r.add("solve_ms_p50", quantile(ms, 0.5), "ms")
	r.add("solve_ms_p90", quantile(ms, 0.9), "ms")
	r.add("solves_per_s", l.solvesPerS(), "1/s")
	r.add("sim_energy_mj_p50", quantile(simMJ, 0.5), "mJ")
	r.add("sim_time_ms_p50", quantile(simMs, 0.5), "ms")
	r.add("alloc_mb_per_solve", float64(l.allocBytes)/1e6/float64(len(l.solves)), "MB")
	r.add("setup_s", in.setupS, "s")
}

// perLayer reports per-solve means over the traced lane, the probes, and
// the reference lanes. Layers absent from a workload (the pool and scan on
// road-batch, the controller under NearFar) read 0, so their time is given
// as a share of the traced solve wall time rather than in ms.
func (r *report) perLayer(in *inputs, cfg es.RunConfig, untraced, tl, p1 *lane, forkJoin float64, advProbe []float64) {
	var sum obsTotals
	var wallNs, iters, edges, updates int64
	var trackErr, converge []float64
	for _, s := range tl.solves {
		sum = sum.plus(s.layer.obsTotals, 1)
		wallNs += s.layer.wallNs
		iters += int64(s.iters)
		edges += s.edges
		updates += s.updates
		trackErr = append(trackErr, s.layer.trackErr)
		converge = append(converge, s.layer.convergeIter)
	}
	n := float64(len(tl.solves))
	perSolveMs := func(ns int64) float64 { return float64(ns) / n / 1e6 }
	pctOfWall := func(ns int64) float64 { return 100 * float64(ns) / float64(wallNs) }
	var phaseNs int64
	for _, p := range sum.phase {
		phaseNs += p.HostNs
	}
	adv, fil, reb, ctl, scan := sum.phase[obs.PhaseAdvance], sum.phase[obs.PhaseFilter],
		sum.phase[obs.PhaseRebalance], sum.phase[obs.PhaseController], sum.phase[obs.PhaseScan]
	idle := 0.0
	if sum.launchNs > 0 {
		idle = 1 - float64(sum.busyNs)/(float64(sum.launchNs)*float64(max(cfg.Workers, 1)))
	}
	untracedP50 := quantile(untraced.ms(), 0.5)
	dijkstraP50 := quantile(in.dijkstraMs, 0.5)

	r.add("parallel.pool.launches", float64(sum.launches)/n, "count")
	r.add("parallel.pool.launch_pct", pctOfWall(sum.launchNs), "%")
	r.add("parallel.pool.idle_frac", idle, "ratio")
	r.add("parallel.probe.fork_join_ns", forkJoin, "ns")
	r.add("parallel.scan.calls", float64(scan.Count)/n, "count")
	r.add("parallel.scan.pct", pctOfWall(scan.HostNs), "%")
	r.add("sssp.advance.ms", perSolveMs(adv.HostNs), "ms")
	r.add("sssp.advance.ns_per_edge", float64(adv.HostNs)/float64(adv.Items), "ns")
	r.add("sssp.filter.ms", perSolveMs(fil.HostNs), "ms")
	r.add("sssp.probe.advance_ns_per_edge.p1", advProbe[0], "ns")
	r.add("sssp.probe.advance_ns_per_edge.pN", advProbe[1], "ns")
	r.add("sssp.iterations", float64(iters)/n, "count")
	r.add("sssp.us_per_iter", float64(wallNs)/float64(iters)/1e3, "us")
	r.add("sssp.work_ratio", float64(edges)/n/float64(in.g.NumEdges()), "ratio")
	r.add("sssp.update_ratio", float64(updates)/float64(edges), "ratio")
	r.add("frontier.rebalance.ms", perSolveMs(reb.HostNs), "ms")
	r.add("frontier.rebalance.items", float64(reb.Items)/n, "count")
	r.add("core.controller.pct", pctOfWall(ctl.HostNs), "%")
	r.add("core.tracking_err_p50", quantile(trackErr, 0.5), "ratio")
	r.add("core.converge_iter", quantile(converge, 0.5), "count")
	r.add("sim.advance_mj", sum.joules[obs.PhaseAdvance]*1e3/n, "mJ")
	r.add("sim.filter_mj", sum.joules[obs.PhaseFilter]*1e3/n, "mJ")
	r.add("sim.rebalance_mj", sum.joules[obs.PhaseRebalance]*1e3/n, "mJ")
	r.add("sim.controller_mj", sum.joules[obs.PhaseController]*1e3/n, "mJ")
	r.add("api.other.ms", perSolveMs(wallNs-phaseNs), "ms")
	r.add("api.trace_overhead_pct", 100*(quantile(tl.ms(), 0.5)/untracedP50-1), "%")
	r.add("baseline.dijkstra_ms_p50", dijkstraP50, "ms")
	r.add("baseline.speedup_vs_dijkstra", dijkstraP50/untracedP50, "x")
	r.add("scaling.p1_solve_ms_p50", quantile(p1.ms(), 0.5), "ms")
	r.add("scaling.speedup_vs_p1", untraced.solvesPerS()/p1.solvesPerS(), "x")
	r.add("setup.gen_s", in.genS, "s")
	r.add("setup.tune_delta_s", in.tuneS, "s")
	r.add("setup.oracle_s", in.oracleS, "s")
}

// traceOneSolve runs one more traced solve on a fresh Observer and keeps its
// Perfetto trace, so the artifact holds exactly one solve.
func (r *report) traceOneSolve(in *inputs, cfg es.RunConfig) error {
	o := es.NewObserver(0)
	cfg.Obs = o
	out, err := es.Run(in.g, in.sources[0], cfg)
	r.attempted++
	if err != nil || distDigest(out.Dist) != in.digests[0] {
		r.failed++
		return nil
	}
	var b bytes.Buffer
	if err := es.WriteTrace(&b, o); err != nil {
		return err
	}
	r.trace = b.Bytes()
	return nil
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func (r *report) result() jsonResult {
	m := make(map[string]jsonMetric, len(r.metrics))
	for _, x := range r.metrics {
		m[x.name] = jsonMetric{x.value, x.unit}
	}
	return jsonResult{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: m}
}

// print writes the header, one line per metric, the solve counts, and the
// JSON result as the last line.
func (r *report) print(w *bufio.Writer) error {
	for _, kv := range r.header {
		fmt.Fprintf(w, "%-36s %s\n", kv[0], kv[1])
	}
	for _, m := range r.metrics {
		fmt.Fprintf(w, "%-36s %14.6g %s\n", m.name, m.value, m.unit)
	}
	fmt.Fprintf(w, "%-36s %14d\n%-36s %14d\n", "run.solves", r.attempted, "run.failed", r.failed)
	js, err := json.Marshal(r.result())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", js)
	return nil
}

// write stores the report under dir: <workload>.json (header and result),
// <workload>.txt (the printed report), and for traced runs
// <workload>-trace.json.
func (r *report) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	header := make(map[string]string, len(r.header))
	for _, kv := range r.header {
		header[kv[0]] = kv[1]
	}
	js, err := json.MarshalIndent(struct {
		Header map[string]string `json:"header"`
		Result jsonResult        `json:"result"`
	}{header, r.result()}, "", "  ")
	if err != nil {
		return err
	}
	var txt bytes.Buffer
	bw := bufio.NewWriter(&txt)
	if err := r.print(bw); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	files := map[string][]byte{r.workload + ".json": append(js, '\n'), r.workload + ".txt": txt.Bytes()}
	if r.trace != nil {
		files[r.workload+"-trace.json"] = r.trace
	}
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
