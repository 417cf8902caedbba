package harness

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"energysssp/internal/gen"
	"energysssp/internal/sim"
)

// tinyEnv builds a fast environment (~2k-vertex Cal, ~4k-vertex Wiki).
func tinyEnv(t *testing.T) *Env {
	t.Helper()
	e := NewEnv(Config{Scale: 0.002, Seed: 7, Workers: 4})
	t.Cleanup(e.Close)
	return e
}

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Scale != 1.0/8 || c.Seed == 0 {
		t.Fatalf("defaults: %+v", c)
	}
	if DefaultConfig().Scale != 1.0/8 {
		t.Fatal("DefaultConfig scale")
	}
}

func TestEnvCachesGraphsAndSources(t *testing.T) {
	e := tinyEnv(t)
	g1 := e.Graph(gen.Cal)
	g2 := e.Graph(gen.Cal)
	if g1 != g2 {
		t.Fatal("graph not cached")
	}
	s1 := e.Source(gen.Cal)
	if s1 != e.Source(gen.Cal) {
		t.Fatal("source not cached")
	}
	// Source must be in the giant component (positive out-degree).
	if g1.OutDegree(s1) <= 0 {
		t.Fatal("source has no out-edges")
	}
}

func TestSetPointsScaleWithDataset(t *testing.T) {
	e := tinyEnv(t)
	for _, d := range []gen.Dataset{gen.Cal, gen.Wiki} {
		pts := e.SetPoints(d)
		if len(pts) != 3 {
			t.Fatalf("%s: %d set-points", d, len(pts))
		}
		if !(pts[0] < pts[1] && pts[1] < pts[2]) {
			t.Fatalf("%s: set-points not ascending: %v", d, pts)
		}
		if pts[0] < 1 {
			t.Fatalf("%s: degenerate set-point %v", d, pts)
		}
	}
}

func TestDeltaSweepAscendingUnique(t *testing.T) {
	e := tinyEnv(t)
	sweep := e.DeltaSweep(gen.Cal)
	if len(sweep) < 4 {
		t.Fatalf("sweep too small: %v", sweep)
	}
	for i := 1; i < len(sweep); i++ {
		if sweep[i] <= sweep[i-1] {
			t.Fatalf("sweep not strictly ascending: %v", sweep)
		}
	}
}

func TestMachineConfigs(t *testing.T) {
	cfgs := MachineConfigs(sim.TK1())
	if len(cfgs) != 3 {
		t.Fatalf("%d machine configs", len(cfgs))
	}
	if !cfgs[0].Auto || cfgs[0].Label() != "auto" {
		t.Fatal("first config should be the automatic governor")
	}
	if cfgs[1].Label() != "852/924" {
		t.Fatalf("high pin label %s", cfgs[1].Label())
	}
	m := cfgs[1].NewMachine()
	if m.Freq().CoreMHz != 852 {
		t.Fatal("pin not applied by NewMachine")
	}
}

func TestSourceList(t *testing.T) {
	e := tinyEnv(t)
	g := e.Graph(gen.Wiki)
	list := e.SourceList(gen.Wiki, 4)
	if len(list) != 4 {
		t.Fatalf("sources: %v", list)
	}
	// Descending degree, all distinct.
	seen := map[int32]bool{}
	for i, v := range list {
		if seen[v] {
			t.Fatalf("duplicate source %d", v)
		}
		seen[v] = true
		if i > 0 && g.OutDegree(list[i-1]) < g.OutDegree(v) {
			t.Fatalf("not degree-ordered: %v", list)
		}
	}
	if list[0] != e.Source(gen.Wiki) {
		t.Fatal("primary source is not the top of the list")
	}
	// Clamp to graph size.
	if got := e.SourceList(gen.Wiki, 1<<30); len(got) != g.NumVertices() {
		t.Fatalf("clamped list %d", len(got))
	}
}

func TestMultiSourceAveraging(t *testing.T) {
	e := NewEnv(Config{Scale: 0.002, Seed: 7, Workers: 2, Sources: 3})
	t.Cleanup(e.Close)
	mc := MachineConfig{Device: sim.TK1(), Auto: true}
	avg, err := e.BaselineAvg(gen.Cal, 2048, mc)
	if err != nil {
		t.Fatal(err)
	}
	if avg.Sources != 3 || avg.SimTime <= 0 || avg.AvgPowerW <= 0 {
		t.Fatalf("avg run: %+v", avg)
	}
	tuned, err := e.TunedAvg(gen.Cal, 128, mc)
	if err != nil {
		t.Fatal(err)
	}
	if tuned.Sources != 3 || tuned.SimTime <= 0 {
		t.Fatalf("tuned avg: %+v", tuned)
	}
}

func TestBestDeltaCachedAndPositive(t *testing.T) {
	e := tinyEnv(t)
	d1 := e.BestDelta(gen.Cal, sim.TK1())
	d2 := e.BestDelta(gen.Cal, sim.TK1())
	if d1 != d2 || d1 < 1 {
		t.Fatalf("best delta: %d then %d", d1, d2)
	}
}

func TestTable1Shape(t *testing.T) {
	e := tinyEnv(t)
	tab, err := Table1(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Wiki must have far higher max degree than Cal (scale-free vs road).
	wikiMax := parseF(t, tab.Rows[0][3])
	calMax := parseF(t, tab.Rows[1][3])
	if wikiMax <= calMax {
		t.Fatalf("wiki max degree %v <= cal %v", wikiMax, calMax)
	}
	if calMax > 4 {
		t.Fatalf("cal max degree %v exceeds lattice bound", calMax)
	}
}

func TestFigure1ProducesBothSeries(t *testing.T) {
	e := tinyEnv(t)
	tabs, err := Figure1(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 2 {
		t.Fatalf("tables = %d", len(tabs))
	}
	variants := map[string]bool{}
	for _, r := range tabs[0].Rows {
		variants[r[0]] = true
	}
	if len(variants) != 2 {
		t.Fatalf("profile variants: %v", variants)
	}
	if len(tabs[1].Rows) == 0 {
		t.Fatal("empty density table")
	}
}

func TestFigure2ParallelismGrowsWithDelta(t *testing.T) {
	e := tinyEnv(t)
	tab, err := Figure2(e)
	if err != nil {
		t.Fatal(err)
	}
	// Within each dataset, average parallelism at the largest delta must
	// exceed that at the smallest delta (the paper's Figure 2 trend).
	for _, ds := range []string{"Wiki", "Cal"} {
		var first, last float64
		seen := false
		for _, r := range tab.Rows {
			if r[0] != ds {
				continue
			}
			v := parseF(t, r[2])
			if !seen {
				first = v
				seen = true
			}
			last = v
		}
		if !seen {
			t.Fatalf("no rows for %s", ds)
		}
		if last <= first {
			t.Fatalf("%s: parallelism did not grow with delta (%.1f -> %.1f)", ds, first, last)
		}
	}
}

func TestFigure3IterationsShrinkWithDelta(t *testing.T) {
	e := tinyEnv(t)
	tabs, err := Figure3(e)
	if err != nil {
		t.Fatal(err)
	}
	summary := tabs[0]
	n := len(summary.Rows)
	if n < 3 {
		t.Fatalf("too few deltas: %d", n)
	}
	firstIters := parseF(t, summary.Rows[0][2])
	lastIters := parseF(t, summary.Rows[n-1][2])
	if lastIters >= firstIters {
		t.Fatalf("iterations did not shrink with delta: %v -> %v", firstIters, lastIters)
	}
	if len(tabs[1].Rows) == 0 {
		t.Fatal("empty frontier series")
	}
}

func TestFigure5MediansTrackSetPoints(t *testing.T) {
	e := tinyEnv(t)
	tab, err := Figure5(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Tuned medians must track their set-points (within a factor-3 band)
	// and ascend with P. (Whether they exceed the baseline median depends
	// on where the baseline's best delta lands, which at tiny test scales
	// can sit above the smallest scaled set-point.)
	pts := e.SetPoints(gen.Cal)
	prev := 0.0
	for i, r := range tab.Rows[1:] {
		med := parseF(t, r[2])
		if med < pts[i]/3 || med > pts[i]*3 {
			t.Fatalf("tuned median %.1f far from set-point %.0f", med, pts[i])
		}
		if med <= prev {
			t.Fatalf("tuned medians not ascending: %v then %v", prev, med)
		}
		prev = med
	}
}

func TestPerfPowerGridComplete(t *testing.T) {
	e := tinyEnv(t)
	tab, err := PerfPower(e, gen.Cal, sim.TK1())
	if err != nil {
		t.Fatal(err)
	}
	// 3 baseline rows + 3 set-points x 3 configs = 12 rows.
	if len(tab.Rows) != 12 {
		t.Fatalf("rows = %d, want 12", len(tab.Rows))
	}
	// The reference row must be exactly (1, 1).
	if sp := parseF(t, tab.Rows[0][2]); sp != 1 {
		t.Fatalf("reference speedup %v", sp)
	}
	if rp := parseF(t, tab.Rows[0][3]); rp != 1 {
		t.Fatalf("reference rel power %v", rp)
	}
	for _, r := range tab.Rows {
		if parseF(t, r[2]) <= 0 || parseF(t, r[3]) <= 0 {
			t.Fatalf("non-positive point: %v", r)
		}
	}
	// The low-frequency baseline must be slower and lower power than the
	// reference (the DVFS trade-off).
	var lowSpeed, lowPower float64
	found := false
	for _, r := range tab.Rows {
		if r[0] == "near+far" && strings.Contains(r[1], "/") && r[1] != "852/924" {
			lowSpeed, lowPower = parseF(t, r[2]), parseF(t, r[3])
			found = true
		}
	}
	if !found {
		t.Fatal("missing low-frequency baseline row")
	}
	if lowSpeed >= 1 || lowPower >= 1 {
		t.Fatalf("low-freq baseline not slower/lower-power: speedup=%.2f relpower=%.2f", lowSpeed, lowPower)
	}
}

func TestFigure8PowerGrowsWithSetPoint(t *testing.T) {
	e := tinyEnv(t)
	tab, err := Figure8(e)
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range []string{"Cal", "Wiki"} {
		var first, last float64
		seen := false
		for _, r := range tab.Rows {
			if r[0] != ds {
				continue
			}
			w := parseF(t, r[2])
			if !seen {
				first = w
				seen = true
			}
			last = w
		}
		if !seen {
			t.Fatalf("no rows for %s", ds)
		}
		if last <= first {
			t.Fatalf("%s: avg power did not grow with P (%.3f -> %.3f)", ds, first, last)
		}
	}
}

// TestOverheadSmall checks the span-based overhead table: one row per
// dataset for the solve at the middle set-point, whose controller span
// total is a positive share of its wall time, below half of it.
func TestOverheadSmall(t *testing.T) {
	e := tinyEnv(t)
	tab, err := Overhead(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 || tab.Rows[0][0] != "Cal" || tab.Rows[1][0] != "Wiki" {
		t.Fatalf("rows %v, want Cal and Wiki", tab.Rows)
	}
	for i, d := range []gen.Dataset{gen.Cal, gen.Wiki} {
		r := tab.Rows[i]
		res, _, err := e.RunTuned(d, e.SetPoints(d)[1], MachineConfig{Device: sim.TK1(), Auto: true})
		if err != nil {
			t.Fatal(err)
		}
		if iters := parseF(t, r[1]); iters != float64(res.Iterations) {
			t.Fatalf("%s: %v iterations, the tuned solve takes %d", d, iters, res.Iterations)
		}
		ctrlUs, totalMs, usPerS, pct := parseF(t, r[2]), parseF(t, r[3]), parseF(t, r[4]), parseF(t, r[5])
		if totalMs <= 0 || ctrlUs > totalMs*1e3 {
			t.Fatalf("%s: controller %v us of %v ms", d, ctrlUs, totalMs)
		}
		if pct <= 0 || pct > 50 {
			t.Fatalf("%s: controller overhead %v%% implausible", d, pct)
		}
		if math.Abs(usPerS/1e4-pct) > 1e-9*usPerS {
			t.Fatalf("%s: %v us/s disagrees with %v%%", d, usPerS, pct)
		}
	}
}

func TestRunAllProducesEveryTable(t *testing.T) {
	e := tinyEnv(t)
	tabs, err := RunAll(e)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, tab := range tabs {
		names[tab.Name] = true
		if len(tab.Rows) == 0 {
			t.Fatalf("table %s is empty", tab.Name)
		}
	}
	want := []string{
		"table1_datasets", "fig1_profiles", "fig1_density",
		"fig2_delta_vs_parallelism", "fig3_cal_delta_summary",
		"fig3_cal_frontier_series", "fig5_parallelism_distributions",
		"perfpower_TK1_Cal", "perfpower_TK1_Wiki",
		"perfpower_TX1_Cal", "perfpower_TX1_Wiki",
		"fig8_power_vs_setpoint", "overhead_controller",
		"ablation_controller", "controller_trace",
	}
	for _, n := range want {
		if !names[n] {
			t.Fatalf("missing table %s (have %v)", n, names)
		}
	}
}
