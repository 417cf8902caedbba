package harness

import (
	"bytes"
	"testing"

	"energysssp/internal/gen"
	"energysssp/internal/sim"
	"energysssp/internal/trace"
)

// Reproducibility is a stated design goal (DESIGN.md): identical config
// must yield bit-identical experiment tables, across fresh environments and
// regardless of worker count (the simulated clock depends only on
// algorithmic work, not host scheduling).
func TestExperimentsDeterministic(t *testing.T) {
	type table func(*Env) (*trace.Table, error)
	perfPowerCal := func(e *Env) (*trace.Table, error) { return PerfPower(e, gen.Cal, sim.TK1()) }
	render := func(workers int, tables ...table) string {
		e := NewEnv(Config{Scale: 0.002, Seed: 7, Workers: workers})
		defer e.Close()
		var buf bytes.Buffer
		for _, tab := range tables {
			tt, err := tab(e)
			if err != nil {
				t.Fatal(err)
			}
			tt.Fprint(&buf)
		}
		return buf.String()
	}
	if render(1, Figure2, Figure5, perfPowerCal) != render(1, Figure2, Figure5, perfPowerCal) {
		t.Fatal("same config produced different tables")
	}
	// Across worker counts, compare only the tables whose advances never
	// depend on scheduling. Figure 2 and the Wiki table take parallel
	// advances whose X2 counts atomic-min wins, which depend on how the
	// races resolve (ROADMAP: deterministic advance), so they can differ
	// at 2 and 4 workers.
	want := render(1, Figure5, perfPowerCal)
	for _, w := range []int{2, 4} {
		if got := render(w, Figure5, perfPowerCal); got != want {
			t.Errorf("Figure 5 and the TK1 Cal table differ at %d workers from 1 worker:\n%s\nwant:\n%s", w, got, want)
		}
	}
}

func TestAblationTable(t *testing.T) {
	e := NewEnv(Config{Scale: 0.002, Seed: 7, Workers: 2})
	defer e.Close()
	tab, err := Ablation(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("ablation rows: %d", len(tab.Rows))
	}
	// Per-iteration tracking must be tighter than one-shot.
	perIter := parseF(t, tab.Rows[0][6])
	oneShot := parseF(t, tab.Rows[1][6])
	if perIter >= oneShot {
		t.Fatalf("per-iteration MAD %.1f not tighter than one-shot %.1f", perIter, oneShot)
	}
}
