// Command experiments runs the paper evaluation — Table 1, the profile
// figures (1–3, 5), the power/performance figures (6–8), the Section 5.2
// controller-overhead measurement, the controller ablation and the
// controller trace — printing every result table and optionally saving
// CSVs for replotting. -fig picks a subset by name (the figure numbers,
// table1, overhead, ablation, trace); -plot renders ASCII charts instead of
// tables. EXPERIMENTS.md records the expected shapes.
//
// Example:
//
//	experiments -scale 0.125 -out results/
//	experiments -fig 5,overhead -plot
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"energysssp/internal/harness"
	"energysssp/internal/plot"
	"energysssp/internal/trace"
)

func main() {
	var (
		fig     = flag.String("fig", "all", "comma-separated experiments to run: table1, 1, 2, 3, 5, 6, 7, 8, overhead, ablation, trace, or all")
		scale   = flag.Float64("scale", 1.0/8, "dataset scale (1.0 = paper size)")
		seed    = flag.Uint64("seed", 42, "generator seed")
		workers = flag.Int("workers", 0, "worker goroutines (0 = all CPUs)")
		out     = flag.String("out", "", "directory for CSV output (empty prints only)")
		md      = flag.String("md", "", "write a consolidated markdown report to this path")
		sources = flag.Int("sources", 1, "sources to average the power/perf figures over")
		studies = flag.Bool("studies", false, "also run the scaling and seed-stability studies")
		quiet   = flag.Bool("quiet", false, "suppress table printing (with -out)")
		asPlot  = flag.Bool("plot", false, "render ASCII charts instead of tables")
	)
	flag.Parse()

	xs, err := harness.Select(*fig)
	if err != nil {
		fail(err)
	}
	start := time.Now()
	e := harness.NewEnv(harness.Config{Scale: *scale, Seed: *seed, Workers: *workers, Sources: *sources})
	defer e.Close()

	fmt.Printf("running %d experiment(s) at scale %g (seed %d)...\n", len(xs), *scale, *seed)
	tables, err := harness.Run(e, xs)
	if err != nil {
		fail(err)
	}
	if *studies {
		cfg := harness.Config{Scale: *scale, Seed: *seed, Workers: *workers}
		sc, err := harness.ScalingStudy(cfg, nil)
		if err != nil {
			fail(fmt.Errorf("scaling: %w", err))
		}
		st, err := harness.StabilityStudy(cfg, nil)
		if err != nil {
			fail(fmt.Errorf("stability: %w", err))
		}
		tables = append(tables, sc, st)
	}
	for _, t := range tables {
		if !*quiet {
			if *asPlot {
				err = plot.Table(os.Stdout, t)
			} else {
				err = t.Fprint(os.Stdout)
			}
			if err != nil {
				fail(err)
			}
			fmt.Println()
		}
		if *out != "" {
			path, err := t.SaveCSV(*out)
			if err != nil {
				fail(err)
			}
			fmt.Printf("wrote %s (%d rows)\n", path, len(t.Rows))
		}
	}
	if *md != "" {
		if err := writeMarkdown(*md, *scale, *seed, *sources, tables); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %s\n", *md)
	}
	fmt.Printf("completed %d tables in %v\n", len(tables), time.Since(start).Round(time.Millisecond))
}

func writeMarkdown(path string, scale float64, seed uint64, sources int, tables []*trace.Table) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	if _, err := fmt.Fprintf(f, "# Evaluation report\n\nscale %g, seed %d, %d source(s); see EXPERIMENTS.md for paper-vs-measured analysis.\n\n",
		scale, seed, sources); err != nil {
		return err
	}
	for _, t := range tables {
		if err := t.WriteMarkdown(f); err != nil {
			return err
		}
	}
	return nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
