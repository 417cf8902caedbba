package core

import (
	"errors"
	"math"
	"testing"
	"time"

	"energysssp/internal/flight"
	"energysssp/internal/gen"
	"energysssp/internal/graph"
	"energysssp/internal/metrics"
	"energysssp/internal/obs"
	"energysssp/internal/parallel"
	"energysssp/internal/sim"
	"energysssp/internal/sssp"
)

// TestPublishedViewsAgree checks that every solver path derives its
// Profile and live stats from the one flight record it publishes per
// iteration: each IterStat field equals the record field it comes from,
// AvgWatts is the energy delta over the sim-time delta of consecutive
// records, and the scope's live stats equal the last record, both after
// the solve and when a solve is stopped halfway.
func TestPublishedViewsAgree(t *testing.T) {
	g := gen.CalLike(0.01, 42)
	pool := parallel.NewPool(2)
	defer pool.Close()
	type solveFunc func(*sssp.Options) (sssp.Result, error)
	nearFar := func(fq sssp.FarQueueStrategy) solveFunc {
		return func(opt *sssp.Options) (sssp.Result, error) {
			opt.FarQueue = fq
			return sssp.NearFar(g, 0, graph.Dist(math.Max(1, g.AvgWeight())), opt)
		}
	}
	runs := []struct {
		name  string
		solve solveFunc
	}{
		{"selftuning/auto", func(opt *sssp.Options) (sssp.Result, error) {
			return Solve(g, 0, Config{P: 200}, opt)
		}},
		{"nearfar/flat", nearFar(sssp.FarFlat)},
		{"nearfar/rho", nearFar(sssp.FarRho)},
		{"powercap", func(opt *sssp.Options) (sssp.Result, error) {
			res, _, err := SolveWithPowerCap(g, 0, PowerCapConfig{CapWatts: 4, InitialP: 200}, opt)
			return res, err
		}},
	}
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			sc := obs.New(0).NewScope(r.name)
			defer sc.Close()
			rec := flight.NewRecorder(1 << 16)
			var prof metrics.Profile
			opt := &sssp.Options{
				Pool: pool, Machine: sim.NewMachine(sim.TK1()),
				Profile: &prof, Flight: rec, Scope: sc,
			}
			res, err := r.solve(opt)
			if err != nil {
				t.Fatal(err)
			}
			recs := rec.Log().Records
			if len(recs) == 0 || len(recs) != prof.Len() {
				t.Fatalf("%d flight records, %d profile entries", len(recs), prof.Len())
			}
			var prevSim int64
			var prevJ float64
			for i, st := range prof.Iters {
				fr := &recs[i]
				var want metrics.IterStat
				want.K, want.X1, want.X2, want.X3, want.X4 = int(fr.K), int(fr.X1), int(fr.X2), int(fr.X3), int(fr.X4)
				want.Delta, want.DHat, want.AlphaHat = fr.DeltaOut, fr.D, fr.Alpha
				want.FarSize, want.Edges = int(fr.FarSize), st.Edges
				want.SimTime, want.EnergyJ = time.Duration(fr.SimTimeNs), fr.EnergyJ
				if dt := fr.SimTimeNs - prevSim; dt > 0 {
					want.AvgWatts = (fr.EnergyJ - prevJ) / time.Duration(dt).Seconds()
				}
				prevSim, prevJ = fr.SimTimeNs, fr.EnergyJ
				if st != want {
					t.Fatalf("iteration %d: profile %+v, derived from record %+v", i, st, want)
				}
			}
			if prof.TotalEdges() != res.EdgesRelaxed {
				t.Fatalf("profile relaxed %d edges, solve %d", prof.TotalEdges(), res.EdgesRelaxed)
			}
			if r.name == "powercap" && prof.Iters[0].DHat <= 0 {
				t.Fatal("power-capped profile lacks the wrapped controller's estimates")
			}

			checkLive(t, sc, &recs[len(recs)-1])

			// Stopped mid-solve, the live stats hold an iteration whose far
			// queue is not yet drained.
			sc2 := obs.New(0).NewScope(r.name)
			defer sc2.Close()
			rec2 := flight.NewRecorder(1 << 16)
			opt = &sssp.Options{
				Pool: pool, Machine: sim.NewMachine(sim.TK1()),
				Flight: rec2, Scope: sc2, MaxIters: len(recs) / 2,
			}
			if _, err := r.solve(opt); !errors.Is(err, sssp.ErrLivelock) {
				t.Fatalf("solve capped at %d iterations: err %v, want ErrLivelock", opt.MaxIters, err)
			}
			recs2 := rec2.Log().Records
			checkLive(t, sc2, &recs2[len(recs2)-1])
		})
	}
}

// checkLive asserts that the scope's live stats equal the last published
// record.
func checkLive(t *testing.T, sc *obs.Scope, last *flight.Record) {
	t.Helper()
	live := sc.Live()
	if live.Iter() != last.K || live.Frontier() != last.X1 || live.FarLen() != last.FarSize ||
		live.X2() != last.X2 || math.Float64bits(live.Delta()) != math.Float64bits(last.DeltaOut) ||
		live.SimNs() != last.SimTimeNs {
		t.Fatalf("live stats (iter %d frontier %d far %d x2 %d delta %v sim %d) != last record %+v",
			live.Iter(), live.Frontier(), live.FarLen(), live.X2(), live.Delta(), live.SimNs(), *last)
	}
}
