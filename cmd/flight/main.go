// Command flight replays, diffs, and visualizes controller flight logs —
// the black-box recorder for the self-tuning SSSP controller. Record a log
// with `sssp -flight-out run.jsonl`.
//
//	flight replay run.jsonl          # re-execute; exit 1 on any bit mismatch
//	flight diff a.jsonl b.jsonl      # exit 0 identical, 1 diverged, 2 error
//	flight show run.jsonl            # ASCII convergence dashboard + findings
package main

import (
	"flag"
	"fmt"
	"os"

	"energysssp/internal/core"
	"energysssp/internal/flight"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
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
  replay   re-execute a log's controller trajectory; fail on any bit mismatch
  diff     align two logs and report the first divergence and field deltas
  show     render an ASCII convergence dashboard with divergence findings

run 'flight <command> -h' for that command's flags.
`)
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
