package energysssp

import (
	"bytes"
	"math"
	"testing"
)

// TestSequentialAdvanceWorkerIndependent runs one road solve at Workers 1,
// 2 and 4 and requires bit-identical simulated time, energy and flight
// logs. The input is chosen so that every advance falls below the auto
// chooser's sequential cutoff, and the test asserts that each one took the
// sequential path, so it cannot pass through a lucky interleaving.
//
// Iterations above the cutoff still run the parallel atomic-min kernels.
// They walk the frontier in ascending vertex order, so each chunk's
// contents are fixed, but which worker claims a chunk and how the races
// resolve are not, and X² (successful updates, duplicates included)
// depends on them; the filter charge and the controller read X², so solves
// with such iterations are not yet worker-count independent. That is the
// ROADMAP item "deterministic advance", which stays open. This input's
// bisect and far-queue scans also stay below frontier.PoolScanMin, so the
// zero pool launches below cover them too.
func TestSequentialAdvanceWorkerIndependent(t *testing.T) {
	g := CalLike(0.01, 42)
	type run struct {
		out *RunOutput
		log []byte
	}
	var runs []run
	for _, workers := range []int{1, 2, 4} {
		o := NewObserver(0)
		rec := NewFlightRecorder(1 << 16)
		out, err := Run(g, 0, RunConfig{
			Algorithm: SelfTuning,
			SetPoint:  500,
			Device:    "TK1",
			Workers:   workers,
			Obs:       o,
			FlightLog: rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		if par := o.PoolStats().Launches(); par != 0 {
			t.Fatalf("workers %d: %d of %d advances ran on the pool, want none",
				workers, par, out.Iterations)
		}
		var buf bytes.Buffer
		if err := WriteFlightLog(&buf, rec.Log()); err != nil {
			t.Fatal(err)
		}
		runs = append(runs, run{out, buf.Bytes()})
	}
	base := runs[0]
	for i, r := range runs[1:] {
		workers := []int{2, 4}[i]
		if r.out.SimTime != base.out.SimTime {
			t.Errorf("workers %d: SimTime %v, workers 1: %v", workers, r.out.SimTime, base.out.SimTime)
		}
		if math.Float64bits(r.out.EnergyJ) != math.Float64bits(base.out.EnergyJ) {
			t.Errorf("workers %d: EnergyJ %v, workers 1: %v", workers, r.out.EnergyJ, base.out.EnergyJ)
		}
		if !bytes.Equal(r.log, base.log) {
			t.Errorf("workers %d: flight log differs from the workers 1 log", workers)
		}
	}
}
