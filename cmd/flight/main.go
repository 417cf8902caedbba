// Command flight records, replays, diffs, and visualizes controller flight
// logs — the black-box recorder for the self-tuning SSSP controller.
//
//	flight record -dataset cal -scale 0.01 -P 500 -device TK1 -o run.jsonl
//	flight replay run.jsonl          # re-execute; exit 1 on any bit mismatch
//	flight diff a.jsonl b.jsonl      # exit 0 identical, 1 diverged, 2 error
//	flight show run.jsonl            # ASCII convergence dashboard + findings
package main

import (
	"flag"
	"fmt"
	"os"

	"energysssp/internal/core"
	"energysssp/internal/dvfs"
	"energysssp/internal/flight"
	"energysssp/internal/gen"
	"energysssp/internal/graph"
	"energysssp/internal/parallel"
	"energysssp/internal/sim"
	"energysssp/internal/sssp"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "record":
		err = cmdRecord(os.Args[2:])
	case "replay":
		err = cmdReplay(os.Args[2:])
	case "diff":
		err = cmdDiff(os.Args[2:])
	case "show":
		err = cmdShow(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "flight: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "flight:", err)
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: flight <command> [flags]

commands:
  record   run a solver with the flight recorder attached and write the log
  replay   re-execute a log's controller trajectory; fail on any bit mismatch
  diff     align two logs and report the first divergence and field deltas
  show     render an ASCII convergence dashboard with divergence findings

run 'flight <command> -h' for that command's flags.
`)
}

func cmdRecord(args []string) error {
	fs := flag.NewFlagSet("flight record", flag.ExitOnError)
	var (
		graphPath = fs.String("graph", "", "graph file (.gr/.mtx/.tsv); overrides -dataset")
		dataset   = fs.String("dataset", "cal", "generated dataset: cal or wiki")
		scale     = fs.Float64("scale", 0.01, "dataset scale (1.0 = paper size)")
		seed      = fs.Uint64("seed", 42, "generator seed")
		algo      = fs.String("algo", "selftuning", "selftuning or nearfar")
		setPoint  = fs.Float64("P", 500, "parallelism set-point for selftuning")
		delta     = fs.Int64("delta", 0, "fixed delta for nearfar (0 = avg edge weight)")
		source    = fs.Int("source", 0, "source vertex id")
		workers   = fs.Int("workers", 1, "worker goroutines (-1 = all CPUs, 0/1 = sequential)")
		device    = fs.String("device", "", "simulated board: TK1 or TX1 (empty = no simulation)")
		capacity  = fs.Int("capacity", 1<<16, "recorder ring capacity in records")
		out       = fs.String("o", "flight.jsonl", "output log path (- for stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	g, err := loadOrGenerate(*graphPath, *dataset, *scale, *seed)
	if err != nil {
		return err
	}
	rec := flight.NewRecorder(*capacity)
	opt := &sssp.Options{Flight: rec}
	if *workers < 0 || *workers > 1 {
		pool := parallel.NewPool(max(*workers, 0))
		defer pool.Close()
		opt.Pool = pool
	}
	if *device != "" {
		dev, err := sim.DeviceByName(*device)
		if err != nil {
			return err
		}
		mach := sim.NewMachine(dev)
		mach.SetGovernor(dvfs.NewOndemand())
		opt.Machine = mach
	}

	src := graph.VID(*source)
	var res sssp.Result
	switch *algo {
	case "selftuning":
		res, err = core.Solve(g, src, core.Config{P: *setPoint}, opt)
	case "nearfar":
		d := graph.Dist(*delta)
		if d <= 0 {
			if d = graph.Dist(g.AvgWeight()); d < 1 {
				d = 1
			}
		}
		res, err = sssp.NearFar(g, src, d, opt)
	default:
		return fmt.Errorf("record supports selftuning and nearfar, not %q", *algo)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "recorded %d iterations (%s): reached %d/%d vertices, %d edges relaxed\n",
		rec.Len(), *algo, res.Reached, g.NumVertices(), res.EdgesRelaxed)
	if dropped := rec.Dropped(); dropped > 0 {
		fmt.Fprintf(os.Stderr, "warning: ring wrapped, %d oldest records dropped — the log will not replay; raise -capacity\n", dropped)
	}

	l := rec.Log()
	l.Header.Label = fmt.Sprintf("dataset=%s scale=%g seed=%d device=%s workers=%d",
		*dataset, *scale, *seed, *device, *workers)
	if *graphPath != "" {
		l.Header.Label = fmt.Sprintf("graph=%s device=%s workers=%d", *graphPath, *device, *workers)
	}
	rec.SetHeader(l.Header) // keep the served/live header consistent too

	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer closeFile(f, &err)
		w = f
	}
	return flight.WriteJSONL(w, l)
}

func cmdReplay(args []string) error {
	fs := flag.NewFlagSet("flight replay", flag.ExitOnError)
	quiet := fs.Bool("q", false, "suppress the per-mismatch listing")
	if err := fs.Parse(args); err != nil {
		return err
	}
	l, err := readLogArg(fs)
	if err != nil {
		return err
	}
	rep, err := core.ReplayFlight(l)
	if err != nil {
		return err
	}
	if rep.OK() {
		fmt.Printf("replay OK: %d iterations reproduced bit-identically (%s)\n",
			rep.Iterations, l.Header.Algorithm)
		return nil
	}
	fmt.Printf("replay FAILED: %d mismatch(es) over %d iterations\n", len(rep.Mismatches), rep.Iterations)
	if !*quiet {
		for _, m := range rep.Mismatches {
			fmt.Printf("  k=%d %s: recorded %v, re-executed %v\n", m.K, m.Field, m.Want, m.Got)
		}
		if rep.Truncated {
			fmt.Println("  ... (truncated)")
		}
	}
	os.Exit(1)
	return nil
}

func cmdDiff(args []string) error {
	fs := flag.NewFlagSet("flight diff", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("diff needs exactly two log paths, got %d", fs.NArg())
	}
	a, err := readLog(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := readLog(fs.Arg(1))
	if err != nil {
		return err
	}
	d := flight.DiffLogs(a, b)
	if d.Identical() {
		fmt.Printf("identical: %d iterations match bit-for-bit\n", d.Compared)
		fmt.Printf("tracking error: A %.4f, B %.4f\n", d.TrackErrA, d.TrackErrB)
		return nil
	}
	fmt.Printf("diverged: %d/%d compared iterations differ (lengths %d vs %d)\n",
		d.DivergentIters, d.Compared, d.LenA, d.LenB)
	if d.FirstDivergence >= 0 {
		fmt.Printf("first divergence at iteration %d\n", d.FirstDivergence)
	}
	for _, f := range d.Fields {
		fmt.Printf("  %-14s A=%v B=%v (max |Δ| %g)\n", f.Field, f.A, f.B, f.MaxAbs)
	}
	fmt.Printf("tracking error: A %.4f, B %.4f\n", d.TrackErrA, d.TrackErrB)
	os.Exit(1)
	return nil
}

func cmdShow(args []string) error {
	fs := flag.NewFlagSet("flight show", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	l, err := readLogArg(fs)
	if err != nil {
		return err
	}
	return flight.WriteDashboard(os.Stdout, l)
}

func readLogArg(fs *flag.FlagSet) (*flight.Log, error) {
	if fs.NArg() != 1 {
		return nil, fmt.Errorf("need exactly one log path, got %d", fs.NArg())
	}
	return readLog(fs.Arg(0))
}

func readLog(path string) (*flight.Log, error) {
	if path == "-" {
		return flight.ReadJSONL(os.Stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	l, err := flight.ReadJSONL(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return l, nil
}

func loadOrGenerate(path, dataset string, scale float64, seed uint64) (*graph.Graph, error) {
	if path != "" {
		return graph.LoadFile(path)
	}
	switch dataset {
	case "cal":
		return gen.CalLike(scale, seed), nil
	case "wiki":
		return gen.WikiLike(scale, seed), nil
	default:
		return nil, fmt.Errorf("unknown dataset %q (want cal or wiki)", dataset)
	}
}

func closeFile(f *os.File, err *error) {
	if cerr := f.Close(); cerr != nil && *err == nil {
		*err = cerr
	}
}
