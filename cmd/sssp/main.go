// Command sssp runs one single-source shortest path computation on a
// generated or loaded graph with any of the library's algorithms,
// optionally on a simulated TK1/TX1 board, and reports timing, energy, and
// parallelism statistics.
//
// Examples:
//
//	sssp -dataset cal -scale 0.01 -algo selftuning -P 1000 -device TK1
//	sssp -graph road.gr -algo nearfar -delta 2048 -workers 8
//	sssp -dataset wiki -scale 0.05 -algo nearfar -delta 25 -device TK1 -freq 852/924 -profile out.csv
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	energysssp "energysssp"
	"energysssp/internal/trace"
)

func main() {
	var (
		graphPath = flag.String("graph", "", "graph file (.gr/.mtx/.tsv); overrides -dataset")
		dataset   = flag.String("dataset", "cal", "generated dataset: cal or wiki")
		scale     = flag.Float64("scale", 0.01, "dataset scale (1.0 = paper size)")
		seed      = flag.Uint64("seed", 42, "generator seed")
		algo      = flag.String("algo", "selftuning", "dijkstra|nearfar|selftuning")
		delta     = flag.Int64("delta", 0, "fixed delta for nearfar (0 = avg edge weight)")
		setPoint  = flag.Float64("P", 1000, "parallelism set-point for selftuning")
		source    = flag.Int("source", 0, "source vertex id")
		workers   = flag.Int("workers", -1, "worker goroutines (-1 = all CPUs, 0/1 = sequential)")
		farQueue  = flag.String("farqueue", "auto", "far-queue strategy for nearfar: auto|flat|rho")
		device    = flag.String("device", "", "simulated board: TK1 or TX1 (empty = no simulation)")
		freq      = flag.String("freq", "auto", "DVFS setting: auto or core/mem MHz (e.g. 852/924)")
		profile   = flag.String("profile", "", "write the per-iteration profile to this path (.json for JSON, CSV otherwise)")
		check     = flag.Bool("check", false, "verify distances against the Dijkstra oracle")
		tune      = flag.Bool("tune", false, "sweep fixed deltas and report the simulated-time-minimizing one on -device (TK1 if unset); the answer does not depend on -workers")
		obsListen = flag.String("obs-listen", "", "serve observability on this address while the solve runs (e.g. :9090): /metrics, /trace, /flight")
		traceOut  = flag.String("trace-out", "", "write the solve's phase timeline as Perfetto/Chrome trace JSON to this path")
		flightOut = flag.String("flight-out", "", "write the controller flight log as JSONL to this path (replay with 'flight replay')")
		energyOut = flag.String("energy-out", "", "write the per-phase energy attribution and total as JSON to this path (requires -device)")
	)
	flag.Parse()

	g, err := loadOrGenerate(*graphPath, *dataset, *scale, *seed)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("graph: %v\n", g)

	if *tune {
		dev := *device
		if dev == "" {
			dev = "TK1"
		}
		best, err := energysssp.TuneDelta(g, energysssp.VID(*source), dev, *workers)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("time-minimizing delta on %s: %d\n", dev, best)
		if *delta == 0 {
			*delta = int64(best)
		}
	}

	a, err := energysssp.ParseAlgorithm(*algo)
	if err != nil {
		fatal(err)
	}
	cfg := energysssp.RunConfig{
		Algorithm: a,
		Delta:     energysssp.Dist(*delta),
		SetPoint:  *setPoint,
		Workers:   *workers,
		Device:    *device,
		Freq:      *freq,
		FarQueue:  *farQueue,
		Profile:   true,
	}

	var o *energysssp.Observer
	if *obsListen != "" || *traceOut != "" || *energyOut != "" {
		o = energysssp.NewObserver(0)
		cfg.Obs = o
	}
	var rec *energysssp.FlightRecorder
	label := fmt.Sprintf("dataset=%s scale=%g seed=%d device=%s workers=%d", *dataset, *scale, *seed, *device, *workers)
	if *graphPath != "" {
		label = fmt.Sprintf("graph=%s device=%s workers=%d", *graphPath, *device, *workers)
	}
	if *flightOut != "" {
		// 64Ki records: replay needs every iteration from 0, and the largest
		// configurations recorded here run a few thousand.
		rec = energysssp.NewFlightRecorder(1 << 16)
		cfg.FlightLog = rec
	}
	var srv *energysssp.MetricsServer
	if *obsListen != "" {
		srv, err = energysssp.ServeMetrics(*obsListen, o)
		if err != nil {
			fatal(err)
		}
		defer func() {
			if err := srv.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "sssp: metrics server:", err)
			}
		}()
		fmt.Printf("observability: http://%s/metrics (Perfetto timeline at /trace, flight log at /flight)\n",
			srv.Addr())
	}

	// On SIGINT/SIGTERM, flush whatever partial outputs exist — the flight
	// log and phase trace are exactly the artifacts needed to diagnose a
	// run bad enough to kill — then exit with the conventional 128+signum.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	//lint:ignore leakspawn one-off signal handler; lives for the process lifetime by design
	go func() {
		sig := <-sigc
		fmt.Fprintf(os.Stderr, "\nsssp: %v: flushing partial outputs\n", sig)
		flushOutputs(*traceOut, *flightOut, *energyOut, label, o, rec)
		if srv != nil {
			if err := srv.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "sssp: metrics server:", err)
			}
		}
		code := 130 // SIGINT
		if sig == syscall.SIGTERM {
			code = 143
		}
		os.Exit(code)
	}()

	out, err := energysssp.Run(g, energysssp.VID(*source), cfg)
	if err != nil {
		fatal(err)
	}
	signal.Stop(sigc) // solve done: flush happens on the normal path below
	if dropped := rec.Dropped(); dropped > 0 {
		fmt.Fprintf(os.Stderr, "sssp: warning: flight ring wrapped, %d oldest records dropped — the log will not replay\n", dropped)
	}

	fmt.Printf("result: %v\n", out.Result)
	if *check {
		ref, err := energysssp.Run(g, energysssp.VID(*source), energysssp.RunConfig{Algorithm: energysssp.Dijkstra})
		if err != nil {
			fatal(err)
		}
		for v := range out.Dist {
			if out.Dist[v] != ref.Dist[v] {
				fatal(fmt.Errorf("distance mismatch at vertex %d: %d vs oracle %d", v, out.Dist[v], ref.Dist[v]))
			}
		}
		fmt.Println("verified against Dijkstra ✓")
	}
	if out.Parallelism != nil {
		fmt.Printf("parallelism: %v\n", *out.Parallelism)
	}
	if a == energysssp.SelfTuning && out.Profile != nil {
		_, mean := out.Profile.TrackingError(*setPoint)
		conv := "never"
		if k := out.Profile.ConvergenceIter(); k >= 0 {
			conv = fmt.Sprintf("at iteration %d", k)
		}
		fmt.Printf("controller: mean tracking error %.3f (|X2-P|/P), models converged %s\n", mean, conv)
	}
	if *device != "" {
		fmt.Printf("simulated: time=%v energy=%.3fJ avg-power=%.2fW\n",
			out.SimTime, out.EnergyJ, out.AvgPowerW)
	}
	if *profile != "" && out.Profile != nil {
		f, err := os.Create(*profile)
		if err != nil {
			fatal(err)
		}
		write := trace.WriteProfileCSV
		if strings.HasSuffix(*profile, ".json") {
			write = trace.WriteProfileJSON
		}
		if err := write(f, out.Profile); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("profile written to %s (%d iterations)\n", *profile, out.Profile.Len())
	}
	flushOutputs(*traceOut, *flightOut, *energyOut, label, o, rec)
	if o != nil {
		fmt.Println(o.SummaryLine())
	}
}

// flushOutputs writes the Perfetto trace, energy attribution, and flight
// log (its header labeled with the run's inputs) to their requested paths.
// It is shared between the normal exit path and the signal handler, so it
// reports failures instead of fataling.
func flushOutputs(traceOut, flightOut, energyOut, label string, o *energysssp.Observer, rec *energysssp.FlightRecorder) {
	if traceOut != "" && o != nil {
		if err := writeFile(traceOut, func(f *os.File) error { return energysssp.WriteTrace(f, o) }); err != nil {
			fmt.Fprintln(os.Stderr, "sssp: trace:", err)
		} else {
			fmt.Printf("trace written to %s (load it in ui.perfetto.dev)\n", traceOut)
		}
	}
	if energyOut != "" && o != nil {
		if err := writeFile(energyOut, func(f *os.File) error { return energysssp.WriteEnergyReport(f, o) }); err != nil {
			fmt.Fprintln(os.Stderr, "sssp: energy report:", err)
		} else {
			fmt.Printf("energy attribution written to %s\n", energyOut)
		}
	}
	if flightOut != "" && rec != nil {
		l := rec.Log()
		l.Header.Label = label
		if err := writeFile(flightOut, func(f *os.File) error { return energysssp.WriteFlightLog(f, l) }); err != nil {
			fmt.Fprintln(os.Stderr, "sssp: flight log:", err)
		} else {
			fmt.Printf("flight log written to %s (%d iterations; replay with 'flight replay %s')\n",
				flightOut, len(l.Records), flightOut)
		}
	}
}

func writeFile(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		_ = f.Close() //lint:ignore errcheck write error takes precedence
		return err
	}
	return f.Close()
}

func loadOrGenerate(path, dataset string, scale float64, seed uint64) (*energysssp.Graph, error) {
	if path != "" {
		return energysssp.LoadGraph(path)
	}
	switch dataset {
	case "cal":
		return energysssp.CalLike(scale, seed), nil
	case "wiki":
		return energysssp.WikiLike(scale, seed), nil
	default:
		return nil, fmt.Errorf("unknown dataset %q (want cal or wiki)", dataset)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sssp:", err)
	os.Exit(1)
}
