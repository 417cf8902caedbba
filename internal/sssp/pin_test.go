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
// queues that moves any of them fails here. The rho log on CalLike never
// holds more than 245 vertices in a frontier, below the rho extraction
// batch target (rhoBatchMin = 512 at one worker), so a third pin runs rho
// on WikiLike(0.002, 7), whose frontiers cross it: a change to the batch
// target moves that log. On a mismatch the fresh log is written to a
// temporary file to `flight diff` against the pin; copy it over the pin
// only when the move is intended.
func TestNearFarFlightLogsPinned(t *testing.T) {
	cal, wiki := gen.CalLike(0.01, 42), gen.WikiLike(0.002, 7)
	for _, tc := range []struct {
		name, file string
		g          *graph.Graph
		kind       FarQueueStrategy
	}{
		{"flat", "nearfar_flat_cal_tk1.jsonl", cal, FarFlat},
		{"rho", "nearfar_rho_cal_tk1.jsonl", cal, FarRho},
		{"wiki/rho", "nearfar_rho_wiki_tk1.jsonl", wiki, FarRho},
	} {
		t.Run(tc.name, func(t *testing.T) {
			delta := graph.Dist(tc.g.AvgWeight())
			if delta < 1 {
				delta = 1
			}
			mach := sim.NewMachine(sim.TK1())
			mach.SetGovernor(dvfs.NewOndemand())
			rec := flight.NewRecorder(1 << 16)
			if _, err := NearFar(tc.g, 0, delta, &Options{Machine: mach, Flight: rec, FarQueue: tc.kind}); err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := flight.WriteJSONL(&got, rec.Log()); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", tc.file)
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				f, err := os.CreateTemp("", "nearfar_"+tc.kind.String()+"_*.jsonl")
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				if _, err := f.Write(got.Bytes()); err != nil {
					t.Fatal(err)
				}
				t.Fatalf("near-far %s flight log differs from %s; fresh log in %s", tc.name, path, f.Name())
			}
		})
	}
}
