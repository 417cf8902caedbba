package core

import (
	"bytes"
	"strings"
	"testing"

	"energysssp/internal/dvfs"
	"energysssp/internal/flight"
	"energysssp/internal/gen"
	"energysssp/internal/graph"
	"energysssp/internal/parallel"
	"energysssp/internal/sim"
	"energysssp/internal/sssp"
)

// replayOK runs ReplayFlight and fails the test with the first mismatches
// if the log does not reproduce bit-identically.
func replayOK(t *testing.T, l *flight.Log) {
	t.Helper()
	rep, err := ReplayFlight(l)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if rep.Iterations != len(l.Records) {
		t.Fatalf("replay covered %d iterations, log has %d", rep.Iterations, len(l.Records))
	}
	if !rep.OK() {
		n := len(rep.Mismatches)
		if n > 5 {
			n = 5
		}
		t.Fatalf("replay diverged: %d mismatch(es), first %v", len(rep.Mismatches), rep.Mismatches[:n])
	}
}

// TestFlightReplayBitIdentical is the flight recorder's central acceptance
// gate: for the self-tuning solver on a road-like and a scale-free input,
// under both advance scheduling strategies, re-executing the controller
// from the recorded log alone reproduces every δ decision and every model
// internal to the bit — including after a JSONL serialization round trip.
func TestFlightReplayBitIdentical(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"cal", gen.CalLike(0.01, 42)},
		{"wiki", gen.WikiLike(0.01, 7)},
	}
	for _, tc := range graphs {
		for _, strat := range []sssp.Strategy{sssp.StrategyVertex, sssp.StrategyEdge} {
			t.Run(tc.name+"/"+strat.String(), func(t *testing.T) {
				pool := parallel.NewPool(4)
				defer pool.Close()
				rec := flight.NewRecorder(1 << 16)
				opt := &sssp.Options{Pool: pool, Advance: strat, Flight: rec}
				res, err := Solve(tc.g, 0, Config{P: 500}, opt)
				if err != nil {
					t.Fatal(err)
				}
				assertSameDistances(t, tc.g, 0, res.Dist, "flight-recorded solve")

				l := rec.Log()
				if l.Header.Algorithm != "selftuning" {
					t.Fatalf("header algorithm %q, want selftuning", l.Header.Algorithm)
				}
				if len(l.Records) != res.Iterations {
					t.Fatalf("recorded %d iterations, solver reports %d", len(l.Records), res.Iterations)
				}
				if !l.Contiguous() {
					t.Fatal("log not contiguous from iteration 0")
				}
				replayOK(t, l)

				// JSONL round trip must preserve every float bit, so the
				// decoded log replays too and diffs clean against the
				// in-memory one.
				var buf bytes.Buffer
				if err := flight.WriteJSONL(&buf, l); err != nil {
					t.Fatal(err)
				}
				decoded, err := flight.ReadJSONL(&buf)
				if err != nil {
					t.Fatal(err)
				}
				replayOK(t, decoded)
				if d := flight.DiffLogs(l, decoded); !d.Identical() {
					t.Fatalf("JSONL round trip changed the log: first divergence at %d, fields %v",
						d.FirstDivergence, d.Fields)
				}
			})
		}
	}
}

// TestFlightReplayNearFar covers the baseline's log under every far-queue
// strategy: flat and lazy recompute the fixed-delta phase schedule exactly
// from the header delta and the recorded (X⁴, farLen, jumpMin) inputs; rho
// validates its bucket-batch trajectory invariants. The default (auto)
// resolves to rho and must record that in the header.
func TestFlightReplayNearFar(t *testing.T) {
	g := gen.CalLike(0.01, 42)
	rec := flight.NewRecorder(1 << 16)
	res, err := sssp.NearFar(g, 0, 32, &sssp.Options{Flight: rec})
	if err != nil {
		t.Fatal(err)
	}
	l := rec.Log()
	if l.Header.Algorithm != "nearfar" || l.Header.FixedDelta != 32 {
		t.Fatalf("header = %+v, want nearfar with fixedDelta 32", l.Header)
	}
	if l.Header.FarQueue != "rho" || l.Header.FarWidth < 1 {
		t.Fatalf("header = %+v, want the resolved auto strategy rho with its bucket width", l.Header)
	}
	if len(l.Records) != res.Iterations {
		t.Fatalf("recorded %d iterations, solver reports %d", len(l.Records), res.Iterations)
	}
	replayOK(t, l)

	for _, s := range []sssp.FarQueueStrategy{sssp.FarFlat, sssp.FarLazy, sssp.FarRho} {
		rec := flight.NewRecorder(1 << 16)
		if _, err := sssp.NearFar(g, 0, 32, &sssp.Options{Flight: rec, FarQueue: s}); err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		l := rec.Log()
		if l.Header.FarQueue != s.String() {
			t.Fatalf("header strategy %q, want %q", l.Header.FarQueue, s)
		}
		replayOK(t, l)
	}

	// A corrupted rho trajectory must be caught by the invariant checks.
	rec2 := flight.NewRecorder(1 << 16)
	if _, err := sssp.NearFar(g, 0, 32, &sssp.Options{Flight: rec2, FarQueue: sssp.FarRho}); err != nil {
		t.Fatal(err)
	}
	bad := rec2.Log()
	for i := range bad.Records {
		if r := &bad.Records[i]; r.X4 == 0 && r.FarLen > 0 {
			r.DeltaOut = r.DeltaIn // forge: threshold failed to advance
			break
		}
	}
	rep, err := ReplayFlight(bad)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("forged rho trajectory replayed clean")
	}

	// An unknown strategy name must be rejected, not silently replayed.
	bad.Header.FarQueue = "mystery"
	if _, err := ReplayFlight(bad); err == nil {
		t.Fatal("unknown far-queue strategy accepted by replay")
	}
}

// TestFlightReplayPowerCapped: the power-capped solver retunes P between
// iterations; each record carries the P in effect at its decision, which is
// exactly what makes the trajectory replayable.
func TestFlightReplayPowerCapped(t *testing.T) {
	g := gen.CalLike(0.01, 13)
	mach := sim.NewMachine(sim.TK1())
	mach.SetGovernor(dvfs.NewOndemand())
	rec := flight.NewRecorder(1 << 16)
	_, pTrace, err := SolveWithPowerCap(g, 0, PowerCapConfig{CapWatts: 3.8},
		&sssp.Options{Machine: mach, Flight: rec})
	if err != nil {
		t.Fatal(err)
	}
	if len(pTrace) == 0 {
		t.Fatal("no set-point adjustments recorded; test would not exercise P restoration")
	}
	l := rec.Log()
	if l.Header.Algorithm != "selftuning" {
		t.Fatalf("header algorithm %q, want selftuning (powerCapPolicy embeds the Controller)", l.Header.Algorithm)
	}
	replayOK(t, l)
}

// TestFlightReplayRejections: logs that cannot be replayed must say so
// rather than report vacuous success.
func TestFlightReplayRejections(t *testing.T) {
	g := gen.Grid(20, 20, 1, 9, 3)

	// A custom policy's decision function is not in the log.
	rec := flight.NewRecorder(256)
	one := NewOneShot(NewController(64, 2, 1), 5)
	if _, err := Solve(g, 0, Config{Policy: one}, &sssp.Options{Flight: rec}); err != nil {
		t.Fatal(err)
	}
	l := rec.Log()
	if l.Header.Algorithm != "policy" {
		t.Fatalf("OneShot log algorithm %q, want policy", l.Header.Algorithm)
	}
	if _, err := ReplayFlight(l); err == nil || !strings.Contains(err.Error(), "not replayable") {
		t.Fatalf("replay of a custom-policy log: err = %v, want not-replayable", err)
	}

	// A wrapped ring lost the prefix the model state depends on.
	small := flight.NewRecorder(8)
	if _, err := Solve(g, 0, Config{P: 64}, &sssp.Options{Flight: small}); err != nil {
		t.Fatal(err)
	}
	if small.Dropped() == 0 {
		t.Skip("run too short to wrap an 8-record ring")
	}
	if _, err := ReplayFlight(small.Log()); err == nil || !strings.Contains(err.Error(), "not contiguous") {
		t.Fatalf("replay of a wrapped log: err = %v, want not-contiguous", err)
	}

	// An empty log has nothing to assert.
	if _, err := ReplayFlight(&flight.Log{}); err == nil {
		t.Fatal("replay of an empty log succeeded")
	}
}

// TestFlightSteadyStateAllocs gates the recorder's hot path: one full
// controller iteration — Observe, NextDelta, model checkpoint, SetApplied,
// ring append — performs zero allocations, so the recorder can default-on
// in long experiments without perturbing them (the same invariant
// TestObsSteadyStateAllocs enforces for the observer).
func TestFlightSteadyStateAllocs(t *testing.T) {
	rec := flight.NewRecorder(1 << 12)
	rec.SetHeader(flight.Header{Algorithm: "selftuning"})
	ctrl := NewController(500, 8, 1)
	var fpol flightRecording = ctrl
	var fr flight.Record
	k := 0
	allocs := testing.AllocsPerRun(1000, func() {
		k++
		delta := float64(k%1024 + 1)
		ctrl.Observe(k%700+1, (k%700+1)*8)
		raw := ctrl.NextDelta(QueueState{
			X4: k % 500, Delta: delta, FarLen: k % 2048,
			PartBound: graph.Dist(k%4096 + 128), PartSize: k % 256,
		})
		fr = flight.Record{
			K:  int64(k),
			X1: int64(k%700 + 1), X2: int64((k%700 + 1) * 8), X4: int64(k % 500),
			DeltaIn: delta, RawDelta: raw, JumpMin: -1,
		}
		fpol.flightModels(&fr)
		ctrl.SetApplied(raw-delta, float64(k%500))
		rec.Append(&fr)
	})
	if allocs != 0 {
		t.Fatalf("recorded controller iteration allocates %.1f per run, want 0", allocs)
	}
}

// TestFlightSolveAllocDelta measures the whole-solve view: running the same
// solve with and without a recorder attached must not change the result,
// and the recording path adds no per-iteration allocations beyond the
// recorder's own preallocated ring.
func TestFlightSolveAllocDelta(t *testing.T) {
	g := gen.CalLike(0.005, 9)
	base, err := Solve(g, 0, Config{P: 200}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := flight.NewRecorder(1 << 14)
	got, err := Solve(g, 0, Config{P: 200}, &sssp.Options{Flight: rec})
	if err != nil {
		t.Fatal(err)
	}
	if base.Iterations != got.Iterations || base.EdgesRelaxed != got.EdgesRelaxed {
		t.Fatalf("recording changed the run: base %d iters / %d edges, recorded %d / %d",
			base.Iterations, base.EdgesRelaxed, got.Iterations, got.EdgesRelaxed)
	}
	for i := range base.Dist {
		if base.Dist[i] != got.Dist[i] {
			t.Fatalf("recording changed dist[%d]: %d != %d", i, base.Dist[i], got.Dist[i])
		}
	}
	if rec.Len() != got.Iterations {
		t.Fatalf("recorder holds %d records, want %d", rec.Len(), got.Iterations)
	}
}
