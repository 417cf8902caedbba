package core

import (
	"bytes"
	"testing"

	"energysssp/internal/flight"
	"energysssp/internal/gen"
	"energysssp/internal/graph"
	"energysssp/internal/obs"
	"energysssp/internal/sim"
	"energysssp/internal/sssp"
)

// calRebalanceItems is Totals(PhaseRebalance).Items of the traced solve in
// TestControllerSpan: the bisect's filter-output items plus the far-queue
// entries the rebalancer scanned. It was recorded before the rebalancer
// got its own span, when the far-queue scans were a Mark outside any span;
// moving the work between spans must not change what the phase counts.
const calRebalanceItems = 179025

// tracedSolve runs a self-tuning solve from vertex 0 at set-point p on a
// TK1 with a fresh scope and flight recorder, and fails the test on an
// error or a dropped span.
func tracedSolve(t *testing.T, g *graph.Graph, p float64) (sssp.Result, *obs.Tracer, *sim.Machine, *flight.Recorder) {
	t.Helper()
	sc := obs.New(0).NewScope("span")
	t.Cleanup(sc.Close)
	mach := sim.NewMachine(sim.TK1())
	rec := flight.NewRecorder(1 << 14)
	res, err := Solve(g, 0, Config{P: p}, &sssp.Options{Machine: mach, Scope: sc, Flight: rec})
	if err != nil {
		t.Fatal(err)
	}
	tr := sc.Tracer()
	if tr.Dropped() != 0 {
		t.Fatalf("%d spans dropped; the phase totals need them all", tr.Dropped())
	}
	return res, tr, mach, rec
}

// TestControllerSpan checks that the controller span holds only the
// controller's own work on a traced self-tuning solve (CalLike(0.01, 42),
// P = 500, TK1): exactly one controller phase span per iteration, and a
// rebalance phase that keeps every item it counted.
func TestControllerSpan(t *testing.T) {
	res, tr, mach, _ := tracedSolve(t, gen.CalLike(0.01, 42), 500)
	perIter := make([]int, res.Iterations)
	for _, ev := range tr.Snapshot(nil) {
		if ev.Kind == obs.SpanPhase && ev.Phase == obs.PhaseController {
			perIter[ev.Iter]++
		}
	}
	for k, n := range perIter {
		if n != 1 {
			t.Fatalf("iteration %d has %d controller spans, want 1", k, n)
		}
	}
	if ctrl := tr.Totals(obs.PhaseController); ctrl.SimNs <= 0 {
		t.Fatalf("controller sim time %d ns: the host-step charge was not marked", ctrl.SimNs)
	}
	reb := tr.Totals(obs.PhaseRebalance)
	charged := mach.Stats(sim.KernelBisect).Items + mach.Stats(sim.KernelFarQueue).Items
	if reb.Items != calRebalanceItems || reb.Items != charged {
		t.Fatalf("rebalance items %d, want %d (charged to the machine: %d)", reb.Items, calRebalanceItems, charged)
	}
}

// TestSolveInstrumented checks that tracing is host-side only: a traced
// self-tuning solve (CalLike(0.01, 42), P = 500, TK1) equals an untraced
// one in iterations, simulated time, energy, flight log and distances.
func TestSolveInstrumented(t *testing.T) {
	g := gen.CalLike(0.01, 42)
	res, _, _, rec := tracedSolve(t, g, 500)
	plainRec := flight.NewRecorder(1 << 14)
	plain, err := Solve(g, 0, Config{P: 500}, &sssp.Options{Machine: sim.NewMachine(sim.TK1()), Flight: plainRec})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != plain.Iterations || res.SimTime != plain.SimTime || res.EnergyJ != plain.EnergyJ {
		t.Fatalf("traced: %d iterations, %v, %v J; untraced: %d, %v, %v J",
			res.Iterations, res.SimTime, res.EnergyJ, plain.Iterations, plain.SimTime, plain.EnergyJ)
	}
	var got, want bytes.Buffer
	if err := flight.WriteJSONL(&got, rec.Log()); err != nil {
		t.Fatal(err)
	}
	if err := flight.WriteJSONL(&want, plainRec.Log()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("traced solve's flight log differs from the untraced solve's")
	}
	assertSameDistances(t, g, 0, res.Dist, "traced solve")
}

// TestSolveInstrumentedOverhead checks the controller clock on traced
// solves of a road-like and a grid graph: the controller span's host total
// is positive and within the solve's wall time.
func TestSolveInstrumentedOverhead(t *testing.T) {
	for _, c := range []struct {
		g *graph.Graph
		p float64
	}{
		{gen.CalLike(0.01, 42), 500},
		{gen.Grid(15, 15, 1, 20, 46), 200},
	} {
		res, tr, _, _ := tracedSolve(t, c.g, c.p)
		ctrl := tr.Totals(obs.PhaseController)
		if ctrl.HostNs <= 0 || ctrl.HostNs > res.WallTime.Nanoseconds() {
			t.Fatalf("P=%v: controller host time %d ns not in (0, wall %d ns]", c.p, ctrl.HostNs, res.WallTime.Nanoseconds())
		}
		assertSameDistances(t, c.g, 0, res.Dist, "traced solve")
	}
}
