package core

import (
	"bytes"
	"testing"
	"time"

	"energysssp/internal/flight"
	"energysssp/internal/gen"
	"energysssp/internal/metrics"
	"energysssp/internal/sim"
	"energysssp/internal/sssp"
)

// TestSolveInstrumented covers the controller-overhead measurement path:
// the controller time, measured inside the solve's own policy calls, must
// be positive, bounded by the total, and small relative to it (the paper's
// Section 5.2 claim is controller cost in the tens-of-microseconds-per-
// second range; we assert the far looser property that it is a minority of
// the solve). The stopwatch is host-side only, so the instrumented solve
// must equal a plain Solve in distances, iterations, simulated time and
// flight log — which also proves the timed policy keeps the Eq. 7
// boundaries the log records.
func TestSolveInstrumented(t *testing.T) {
	g := gen.CalLike(0.01, 42)
	prof := &metrics.Profile{}
	rec := flight.NewRecorder(1 << 14)
	res, ov, err := SolveInstrumented(g, 0, Config{P: 300},
		&sssp.Options{Profile: prof, Machine: sim.NewMachine(sim.TK1()), Flight: rec})
	if err != nil {
		t.Fatal(err)
	}
	plainRec := flight.NewRecorder(1 << 14)
	plain, err := Solve(g, 0, Config{P: 300},
		&sssp.Options{Machine: sim.NewMachine(sim.TK1()), Flight: plainRec})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != plain.Iterations || res.SimTime != plain.SimTime {
		t.Fatalf("instrumented solve: %d iterations, sim %v; plain: %d, %v",
			res.Iterations, res.SimTime, plain.Iterations, plain.SimTime)
	}
	for v := range plain.Dist {
		if res.Dist[v] != plain.Dist[v] {
			t.Fatalf("instrumented dist[%d] = %d, plain %d", v, res.Dist[v], plain.Dist[v])
		}
	}
	var got, want bytes.Buffer
	if err := flight.WriteJSONL(&got, rec.Log()); err != nil {
		t.Fatal(err)
	}
	if err := flight.WriteJSONL(&want, plainRec.Log()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("instrumented solve's flight log differs from the plain solve's")
	}
	assertSameDistances(t, g, 0, res.Dist, "instrumented solve")
	if res.Iterations <= 0 || prof.Len() != res.Iterations {
		t.Fatalf("iterations=%d profile=%d", res.Iterations, prof.Len())
	}
	if ov.TotalTime <= 0 {
		t.Fatalf("total time %v, want > 0", ov.TotalTime)
	}
	if ov.ControllerTime <= 0 || ov.ControllerTime > ov.TotalTime {
		t.Fatalf("controller time %v not in (0, %v]", ov.ControllerTime, ov.TotalTime)
	}
	perIter := ov.ControllerTime / time.Duration(res.Iterations)
	if perIter > time.Millisecond {
		t.Fatalf("controller overhead %v per iteration; the O(1) decision should be microseconds", perIter)
	}
}

// TestSolveInstrumentedErrors: a failing solve must propagate its error and
// report no overhead (measuring a run that never happened would be noise).
func TestSolveInstrumentedErrors(t *testing.T) {
	g := gen.Grid(5, 5, 1, 9, 1)
	if _, ov, err := SolveInstrumented(g, 999, Config{P: 10}, nil); err == nil {
		t.Fatal("out-of-range source accepted")
	} else if ov.ControllerTime != 0 || ov.TotalTime != 0 {
		t.Fatalf("failed solve reported overhead %+v", ov)
	}
	if _, _, err := SolveInstrumented(g, 0, Config{}, nil); err == nil {
		t.Fatal("missing set-point accepted")
	}
	if _, _, err := SolveInstrumented(g, 0, Config{P: 10, Policy: NewController(10, 4, 1)}, nil); err == nil {
		t.Fatal("custom policy accepted; only the paper's controller is timed")
	}
}
