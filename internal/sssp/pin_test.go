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
	"energysssp/internal/parallel"
	"energysssp/internal/sim"
)

// TestNearFarFlightLogsPinned pins both near-far schedules: a fresh record
// of NearFar on CalLike(0.01, 42) from vertex 0 at the mean edge weight, on
// a TK1 under the ondemand governor with one worker (the configuration
// `sssp -algo nearfar -dataset cal -scale 0.01 -seed 42 -device TK1
// -workers 1 -flight-out` runs, plus the flat far queue) must match the committed JSONL log
// byte for byte. Every simulated figure, threshold and queue length of the
// schedule is in the log, so a change to the near-far loop or its far
// queues that moves any of them fails here. The rho log on CalLike never
// holds more than 245 vertices in a frontier, below the rho extraction
// batch target (rhoBatchMin = 512 at one worker), so two more pins run rho
// on WikiLike(0.002, 7), whose frontiers cross it: one with one worker and
// one with a 4-worker pool, whose target is 1024, and the two logs must
// differ. The 4-worker pin catches its target falling to the one-worker
// floor (rhoBatchPerWorker = 2·advanceGrain, target 512, moves the log).
// It does not catch a retune of rhoBatchPerWorker anywhere from 3× to 8×
// advanceGrain (targets 768 to 2048): WikiLike's buckets are coarser than
// those targets, so all of them record the same log. Every frontier of
// the 4-worker solve stays at or below the advance's sequential cutoff
// (seqCutoffEdges·n/m vertices), so each advance runs inline and the log
// does not depend on scheduling; the test fails if that stops holding.
// On a mismatch the fresh log is written to a temporary file to `flight
// diff` against the pin; copy it over the pin only when the move is
// intended.
func TestNearFarFlightLogsPinned(t *testing.T) {
	cal, wiki := gen.CalLike(0.01, 42), gen.WikiLike(0.002, 7)
	for _, tc := range []struct {
		name, file string
		g          *graph.Graph
		kind       FarQueueStrategy
		workers    int
	}{
		{"flat", "nearfar_flat_cal_tk1.jsonl", cal, FarFlat, 1},
		{"rho", "nearfar_rho_cal_tk1.jsonl", cal, FarRho, 1},
		{"wiki/rho", "nearfar_rho_wiki_tk1.jsonl", wiki, FarRho, 1},
		{"wiki/rho/4w", "nearfar_rho_wiki_4w_tk1.jsonl", wiki, FarRho, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			delta := graph.Dist(tc.g.AvgWeight())
			if delta < 1 {
				delta = 1
			}
			pool := parallel.NewPool(tc.workers)
			defer pool.Close()
			mach := sim.NewMachine(sim.TK1())
			mach.SetGovernor(dvfs.NewOndemand())
			rec := flight.NewRecorder(1 << 16)
			if _, err := NearFar(tc.g, 0, delta, &Options{Pool: pool, Machine: mach, Flight: rec, FarQueue: tc.kind}); err != nil {
				t.Fatal(err)
			}
			if tc.workers > 1 {
				cutoff := seqCutoffEdges * int64(tc.g.NumVertices()) / tc.g.NumEdges()
				for _, r := range rec.Log().Records {
					if r.X1 > cutoff {
						t.Fatalf("iteration %d advances %d vertices, above the sequential cutoff %d: the log now depends on scheduling", r.K, r.X1, cutoff)
					}
				}
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
			if tc.workers > 1 {
				one, err := os.ReadFile(filepath.Join("testdata", "nearfar_rho_wiki_tk1.jsonl"))
				if err != nil {
					t.Fatal(err)
				}
				if bytes.Equal(got.Bytes(), one) {
					t.Fatal("the 4-worker rho log equals the 1-worker one: the batch target did not move it")
				}
			}
		})
	}
}
