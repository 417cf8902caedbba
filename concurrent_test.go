package energysssp

import (
	"bytes"
	"encoding/json"
	"math"
	"sync"
	"testing"

	"energysssp/internal/obs"
)

// TestConcurrentSolvesIsolated is the acceptance test of the per-solve
// observability plane: two solves racing on one shared Observer must (a)
// produce bit-identical results to their sequential runs, (b) record
// disjoint span trees — one solve root per scope, iteration spans matching
// each run's own iteration count, never interleaved — and (c) leave the
// observer's advance spans and joules as the exact sums over both runs.
func TestConcurrentSolvesIsolated(t *testing.T) {
	g := CalLike(0.01, 42)
	srcs := []VID{0, VID(g.NumVertices() / 2)}
	cfg := func(o *Observer) RunConfig {
		return RunConfig{Algorithm: SelfTuning, SetPoint: 200, Device: "TK1", Obs: o}
	}

	// Sequential ground truth, observability off.
	seq := make([]*RunOutput, len(srcs))
	for i, src := range srcs {
		out, err := Run(g, src, cfg(nil))
		if err != nil {
			t.Fatal(err)
		}
		seq[i] = out
	}

	o := NewObserver(0)
	conc := make([]*RunOutput, len(srcs))
	errs := make([]error, len(srcs))
	var wg sync.WaitGroup
	for i, src := range srcs {
		wg.Add(1)
		go func(i int, src VID) {
			defer wg.Done()
			conc[i], errs[i] = Run(g, src, cfg(o))
		}(i, src)
	}
	wg.Wait()

	// (a) Bit-identical results under racing instrumentation.
	for i := range srcs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if conc[i].Iterations != seq[i].Iterations {
			t.Errorf("src %d: iterations %d concurrent vs %d sequential", srcs[i], conc[i].Iterations, seq[i].Iterations)
		}
		if math.Float64bits(conc[i].EnergyJ) != math.Float64bits(seq[i].EnergyJ) {
			t.Errorf("src %d: energy %v concurrent vs %v sequential", srcs[i], conc[i].EnergyJ, seq[i].EnergyJ)
		}
		for v := range seq[i].Dist {
			if conc[i].Dist[v] != seq[i].Dist[v] {
				t.Fatalf("src %d: dist[%d] = %d concurrent vs %d sequential", srcs[i], v, conc[i].Dist[v], seq[i].Dist[v])
			}
		}
	}

	// (b) Disjoint span trees: one scope per solve, each with exactly one
	// solve root whose iteration children match that run's count.
	snap := o.TraceSnapshot()
	if len(snap) != len(srcs) {
		t.Fatalf("TraceSnapshot has %d scopes, want %d", len(snap), len(srcs))
	}
	iterCounts := map[int64]int{}
	for _, run := range conc {
		iterCounts[int64(run.Iterations)]++
	}
	names := map[string]bool{}
	for _, sc := range snap {
		if names[sc.Name] {
			t.Fatalf("duplicate scope name %q", sc.Name)
		}
		names[sc.Name] = true
		ids := map[int32]bool{}
		var roots, iters int
		for _, ev := range sc.Spans {
			ids[ev.ID] = true
			switch ev.Kind {
			case obs.SpanSolve:
				roots++
				if ev.Parent != -1 {
					t.Errorf("scope %s: solve span has parent %d", sc.Name, ev.Parent)
				}
			case obs.SpanIter:
				iters++
			}
		}
		for _, ev := range sc.Spans {
			if ev.Parent >= 0 && !ids[ev.Parent] {
				t.Fatalf("scope %s: span %d references parent %d outside its own tree", sc.Name, ev.ID, ev.Parent)
			}
		}
		if roots != 1 {
			t.Errorf("scope %s: %d solve roots, want 1", sc.Name, roots)
		}
		if iterCounts[int64(iters)] == 0 {
			t.Errorf("scope %s: %d iteration spans match no run (want one of %v)", sc.Name, iters, iterCounts)
		}
		iterCounts[int64(iters)]--
	}

	// (c) One advance span per iteration of either run, and both runs'
	// charges on the one energy meter: each solve's own energy is exact,
	// so the observer's total matches their sum to rounding.
	wantSpans := int64(conc[0].Iterations + conc[1].Iterations)
	if got := o.PhaseTotals(obs.PhaseAdvance).Count; got != wantSpans {
		t.Errorf("advance spans %d, want %d (sum of iterations)", got, wantSpans)
	}
	wantJ := conc[0].EnergyJ + conc[1].EnergyJ
	ulp := math.Nextafter(wantJ, math.Inf(1)) - wantJ
	if got := o.Energy().TotalJoules(); math.Abs(got-wantJ) > 4*ulp {
		t.Errorf("observer joules %v, want %v (sum of solves)", got, wantJ)
	}
}

// TestEnergyReportReconciles: the per-phase energy attribution written by
// WriteEnergyReport must telescope back to the machine's own end-minus-start
// figure for the solve within 1 ULP. The report carries phases and the
// total only: which strategy spent the joules is the flight header's to say.
func TestEnergyReportReconciles(t *testing.T) {
	g := CalLike(0.01, 7)
	o := NewObserver(0)
	out, err := Run(g, 0, RunConfig{Algorithm: SelfTuning, SetPoint: 200, Device: "TK1", Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteEnergyReport(&buf, o); err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Phases map[string]float64 `json:"phases"`
		TotalJ float64            `json:"total_joules"`
	}
	dec := json.NewDecoder(bytes.NewReader(buf.Bytes()))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rep); err != nil {
		t.Fatalf("energy report not JSON: %v\n%s", err, buf.String())
	}

	ulp := math.Nextafter(out.EnergyJ, math.Inf(1)) - out.EnergyJ
	if diff := math.Abs(rep.TotalJ - out.EnergyJ); diff > ulp {
		t.Errorf("report total %v vs machine %v: diff %g exceeds 1 ULP", rep.TotalJ, out.EnergyJ, diff)
	}
	var phaseSum float64
	for _, v := range rep.Phases {
		phaseSum += v
	}
	if diff := math.Abs(phaseSum - out.EnergyJ); diff > 8*ulp {
		t.Errorf("phase sum %v vs machine %v: diff %g", phaseSum, out.EnergyJ, diff)
	}
	if len(rep.Phases) < 2 {
		t.Errorf("energy attribution covers %d phases, want several: %v", len(rep.Phases), rep.Phases)
	}
	if err := WriteEnergyReport(&buf, nil); err == nil {
		t.Fatal("WriteEnergyReport(nil observer) should error")
	}
}
