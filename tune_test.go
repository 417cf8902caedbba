package energysssp

import (
	"testing"
	"time"

	"energysssp/internal/dvfs"
	"energysssp/internal/sim"
	"energysssp/internal/sssp"
)

// tuneDeltaOracle is the one-at-a-time sweep TuneDelta replaced: every
// grid point solved in turn on the sequential kernel, repeats included,
// keeping the first minimum.
func tuneDeltaOracle(t *testing.T, g *Graph, src VID, device string) Dist {
	t.Helper()
	dev, err := sim.DeviceByName(device)
	if err != nil {
		t.Fatal(err)
	}
	avg := g.AvgWeight()
	if avg < 1 {
		avg = 1
	}
	best := Dist(1)
	bestTime := time.Duration(1<<62 - 1)
	for _, mult := range []float64{0.25, 0.5, 1, 2, 4, 8, 16, 32} {
		delta := Dist(avg * mult)
		if delta < 1 {
			delta = 1
		}
		mach := sim.NewMachine(dev)
		mach.SetGovernor(dvfs.NewOndemand())
		res, err := sssp.NearFar(g, src, delta, &sssp.Options{Machine: mach, FarQueue: sssp.FarFlat})
		if err != nil {
			t.Fatal(err)
		}
		if res.SimTime < bestTime {
			bestTime = res.SimTime
			best = delta
		}
	}
	return best
}

// TestTuneDeltaWorkerIndependent: δ* is the sequential sweep's answer at
// every worker count, on a road graph and on a scale-free graph whose mean
// weight is small enough that the grid repeats a point.
func TestTuneDeltaWorkerIndependent(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
	}{
		{"cal", CalLike(1.0/64, 42)},
		{"wiki", WikiLike(0.002, 7)},
		{"wiki-unit", RMAT(9, 8, 1, 3, 5)},
	}
	for _, c := range cases {
		src := VID(0)
		for u := range c.g.NumVertices() {
			if c.g.OutDegree(VID(u)) > c.g.OutDegree(src) {
				src = VID(u)
			}
		}
		want := tuneDeltaOracle(t, c.g, src, "TK1")
		for _, workers := range []int{1, 2, -1} {
			got, err := TuneDelta(c.g, src, "TK1", workers)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("%s workers %d: δ* = %d, sequential sweep %d", c.name, workers, got, want)
			}
		}
	}
	if _, err := TuneDelta(CalLike(0.002, 9), 0, "TK1", maxPoolWorkers+1); err == nil {
		t.Fatal("worker count above the limit accepted")
	}
}
