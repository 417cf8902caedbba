package sssp

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"energysssp/internal/dvfs"
	"energysssp/internal/flight"
	"energysssp/internal/gen"
	"energysssp/internal/graph"
	"energysssp/internal/sim"
)

// TestNearFarFlightLogsPinned pins both near-far schedules: a fresh record
// of NearFar on CalLike(0.01, 42) from vertex 0 at the mean edge weight, on
// a TK1 under the ondemand governor with one worker (the configuration
// `flight record -algo nearfar -dataset cal -scale 0.01 -seed 42 -device
// TK1` runs, plus the flat far queue) must match the committed JSONL log
// byte for byte. Every simulated figure, threshold and queue length of the
// schedule is in the log, so a change to the near-far loop or its far
// queues that moves any of them fails here. On a mismatch the fresh log is
// written to a temporary file to `flight diff` against the pin; copy it
// over the pin only when the move is intended.
func TestNearFarFlightLogsPinned(t *testing.T) {
	g := gen.CalLike(0.01, 42)
	delta := graph.Dist(g.AvgWeight())
	for _, kind := range []FarQueueStrategy{FarFlat, FarRho} {
		t.Run(kind.String(), func(t *testing.T) {
			mach := sim.NewMachine(sim.TK1())
			mach.SetGovernor(dvfs.NewOndemand())
			rec := flight.NewRecorder(1 << 16)
			if _, err := NearFar(g, 0, delta, &Options{Machine: mach, Flight: rec, FarQueue: kind}); err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := flight.WriteJSONL(&got, rec.Log()); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "nearfar_"+kind.String()+"_cal_tk1.jsonl")
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				f, err := os.CreateTemp("", "nearfar_"+kind.String()+"_*.jsonl")
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				if _, err := f.Write(got.Bytes()); err != nil {
					t.Fatal(err)
				}
				t.Fatalf("near-far %s flight log differs from %s; fresh log in %s", kind, path, f.Name())
			}
		})
	}
}
