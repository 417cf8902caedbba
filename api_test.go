package energysssp

import (
	"bytes"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"testing"
)

func TestAlgorithmStringsRoundTrip(t *testing.T) {
	for _, a := range []Algorithm{Dijkstra, NearFar, SelfTuning} {
		back, err := ParseAlgorithm(a.String())
		if err != nil || back != a {
			t.Fatalf("round trip %v: %v %v", a, back, err)
		}
	}
	if _, err := ParseAlgorithm("bogus"); err == nil {
		t.Fatal("bogus algorithm accepted")
	}
	if Algorithm(99).String() == "" {
		t.Fatal("unknown algorithm String")
	}
	// Short names.
	for s, want := range map[string]Algorithm{"nf": NearFar, "st": SelfTuning} {
		got, err := ParseAlgorithm(s)
		if err != nil || got != want {
			t.Fatalf("short name %q: %v %v", s, got, err)
		}
	}
	// Names of the removed Bellman-Ford and delta-stepping solvers.
	for _, s := range []string{"bellmanford", "bellman-ford", "bf", "deltastepping", "delta-stepping", "ds"} {
		if _, err := ParseAlgorithm(s); err == nil {
			t.Fatalf("removed algorithm %q accepted", s)
		}
	}
}

func TestParseFreq(t *testing.T) {
	f, err := ParseFreq("852/924")
	if err != nil || f.CoreMHz != 852 || f.MemMHz != 924 {
		t.Fatalf("ParseFreq: %v %v", f, err)
	}
	for _, bad := range []string{"852", "a/b", "852/924/1", ""} {
		if _, err := ParseFreq(bad); err == nil {
			t.Fatalf("bad freq %q accepted", bad)
		}
	}
}

func TestRunAllAlgorithmsAgree(t *testing.T) {
	g := Grid(15, 15, 1, 40, 3)
	ref, err := Run(g, 0, RunConfig{Algorithm: Dijkstra})
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []Algorithm{NearFar, SelfTuning} {
		cfg := RunConfig{Algorithm: algo, Workers: 4, SetPoint: 100}
		out, err := Run(g, 0, cfg)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		for v := range out.Dist {
			if out.Dist[v] != ref.Dist[v] {
				t.Fatalf("%v: dist[%d] = %d, want %d", algo, v, out.Dist[v], ref.Dist[v])
			}
		}
	}
}

func TestRunWithDeviceAndInstrumentation(t *testing.T) {
	g := CalLike(0.001, 7)
	out, err := Run(g, 0, RunConfig{
		Algorithm: SelfTuning, SetPoint: 128,
		Device: "TK1", Freq: "852/924",
		Profile: true, PowerTrace: true, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.SimTime <= 0 || out.EnergyJ <= 0 {
		t.Fatalf("no simulation accounting: %+v", out.Result)
	}
	if out.Profile == nil || out.Profile.Len() != out.Iterations {
		t.Fatal("profile missing or wrong length")
	}
	if out.Parallelism == nil || out.Parallelism.N == 0 {
		t.Fatal("parallelism summary missing")
	}
	if out.Power == nil || out.Power.AvgWatts <= 0 {
		t.Fatal("power summary missing")
	}
}

func TestRunErrors(t *testing.T) {
	g := Grid(4, 4, 1, 9, 1)
	if _, err := Run(g, 0, RunConfig{Algorithm: Algorithm(42)}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if _, err := Run(g, 0, RunConfig{Device: "RTX"}); err == nil {
		t.Fatal("unknown device accepted")
	}
	if _, err := Run(g, 0, RunConfig{Device: "TK1", Freq: "9/9"}); err == nil {
		t.Fatal("invalid freq accepted")
	}
	if _, err := Run(g, 0, RunConfig{PowerTrace: true}); err == nil {
		t.Fatal("PowerTrace without device accepted")
	}
	if _, err := Run(g, 0, RunConfig{Algorithm: SelfTuning}); err == nil {
		t.Fatal("SelfTuning without SetPoint accepted")
	}
	if _, err := Run(g, 99, RunConfig{}); err == nil {
		t.Fatal("bad source accepted")
	}
	if _, err := Run(g, 0, RunConfig{Algorithm: NearFar, FarQueue: "lazy"}); err == nil {
		t.Fatal("removed far-queue strategy lazy accepted")
	}
	if _, err := Run(g, 0, RunConfig{Algorithm: NearFar, Workers: maxPoolWorkers + 1}); err == nil {
		t.Fatalf("Workers %d accepted", maxPoolWorkers+1)
	}

	// A Run that fails its config or input checks leaves the observer's
	// /flight on the recorder it had.
	o := NewObserver(0)
	recA, recB := NewFlightRecorder(0), NewFlightRecorder(0)
	if _, err := Run(g, 0, RunConfig{Algorithm: NearFar, Obs: o, FlightLog: recA}); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []struct {
		src VID
		cfg RunConfig
	}{
		{0, RunConfig{Algorithm: NearFar, FarQueue: "lazy"}},
		{0, RunConfig{Algorithm: NearFar, Workers: maxPoolWorkers + 1}},
		{0, RunConfig{Algorithm: NearFar, Device: "RTX"}},
		{0, RunConfig{Algorithm: NearFar, Device: "TK1", Freq: "9/9"}},
		{0, RunConfig{Algorithm: NearFar, PowerTrace: true}},
		{0, RunConfig{Algorithm: Algorithm(42)}},
		{0, RunConfig{Algorithm: SelfTuning, SetPoint: math.NaN()}},
		{99, RunConfig{Algorithm: SelfTuning, SetPoint: 200}},
		{99, RunConfig{Algorithm: NearFar}},
	} {
		bad.cfg.Obs, bad.cfg.FlightLog = o, recB
		if _, err := Run(g, bad.src, bad.cfg); err == nil {
			t.Fatalf("source %d, %+v accepted", bad.src, bad.cfg)
		}
		if got := o.Flight(); got != recA {
			t.Fatalf("failing Run (source %d, %+v) re-pointed /flight to %p, want recorder A %p", bad.src, bad.cfg, got, recA)
		}
	}
}

// TestNewPoolBounds: every entry point's workers setting goes through
// newPool, which keeps the documented semantics and refuses a count above
// maxPoolWorkers without building a pool.
func TestNewPoolBounds(t *testing.T) {
	for _, tc := range []struct{ workers, size int }{
		{-1, runtime.GOMAXPROCS(0)}, {0, 0}, {1, 0}, {2, 2}, {maxPoolWorkers, maxPoolWorkers},
	} {
		pool, err := newPool(tc.workers)
		if err != nil {
			t.Fatalf("workers %d: %v", tc.workers, err)
		}
		size := 0
		if pool != nil {
			size = pool.Size()
			pool.Close()
		}
		if size != tc.size {
			t.Errorf("workers %d: pool size %d, want %d (0 = no pool)", tc.workers, size, tc.size)
		}
	}
	pool, err := newPool(maxPoolWorkers + 1)
	if err == nil || pool != nil {
		t.Fatalf("workers %d: pool %v, err %v; want no pool and an error", maxPoolWorkers+1, pool, err)
	}
}

// TestRunSetPointValidation: SelfTuning rejects every set-point that is
// non-finite or below 1 with an error (never a panic) and solves at P = 1.
func TestRunSetPointValidation(t *testing.T) {
	g := Grid(6, 6, 1, 9, 1)
	for _, tc := range []struct {
		p      float64
		wantOK bool
	}{
		{math.NaN(), false},
		{math.Inf(1), false},
		{math.Inf(-1), false},
		{0, false},
		{0.5, false},
		{-1, false},
		{1, true},
	} {
		t.Run(fmt.Sprint(tc.p), func(t *testing.T) {
			out, err := Run(g, 0, RunConfig{Algorithm: SelfTuning, SetPoint: tc.p, Workers: 2, Device: "TK1"})
			if !tc.wantOK {
				if err == nil {
					t.Fatalf("SetPoint %v accepted", tc.p)
				}
				return
			}
			if err != nil {
				t.Fatalf("SetPoint %v rejected: %v", tc.p, err)
			}
			if out.Dist[len(out.Dist)-1] == Inf {
				t.Fatal("grid corner unreachable")
			}
		})
	}
}

func TestGraphFactoriesAndIO(t *testing.T) {
	g, err := NewGraph(3, []Edge{{U: 0, V: 1, W: 2}, {U: 1, V: 2, W: 3}})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.gr")
	if err := SaveGraph(path, g); err != nil {
		t.Fatal(err)
	}
	h, err := LoadGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(h) {
		t.Fatal("save/load changed graph")
	}
	if WikiLike(0.001, 1).NumVertices() == 0 || RMAT(6, 4, 1, 99, 1).NumVertices() != 64 {
		t.Fatal("generator factories broken")
	}
}

func TestRunWithPaths(t *testing.T) {
	g := Grid(10, 10, 1, 20, 4)
	out, err := Run(g, 0, RunConfig{Algorithm: SelfTuning, SetPoint: 64, Paths: true})
	if err != nil {
		t.Fatal(err)
	}
	if out.Parents == nil || out.Parents[0] != NoParent {
		t.Fatal("parent tree missing or source has a parent")
	}
	path, err := ShortestPath(out, 99)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) < 2 || path[0] != 0 || path[len(path)-1] != 99 {
		t.Fatalf("path: %v", path)
	}
	// Sum of gaps along the path equals the distance.
	var sum Dist
	for i := 1; i < len(path); i++ {
		sum += out.Dist[path[i]] - out.Dist[path[i-1]]
	}
	if sum != out.Dist[99] {
		t.Fatalf("path distance %d != %d", sum, out.Dist[99])
	}
	// Without Paths, ShortestPath must refuse.
	out2, _ := Run(g, 0, RunConfig{})
	if _, err := ShortestPath(out2, 5); err == nil {
		t.Fatal("ShortestPath without Paths accepted")
	}
}

func TestRunPowerCapped(t *testing.T) {
	g := CalLike(0.005, 5)
	out, pTrace, err := RunPowerCapped(g, 0, PowerCapConfig{CapWatts: 3.8}, "TK1", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(pTrace) == 0 {
		t.Fatal("no set-point trace")
	}
	if out.AvgPowerW <= 0 || out.AvgPowerW > 3.8*1.15 {
		t.Fatalf("avg power %.2f out of band", out.AvgPowerW)
	}
	if _, _, err := RunPowerCapped(g, 0, PowerCapConfig{CapWatts: 4}, "nope", 1); err == nil {
		t.Fatal("bad device accepted")
	}
}

func TestDevicesList(t *testing.T) {
	devs := Devices()
	if len(devs) != 2 || devs[0].Name != "TK1" || devs[1].Name != "TX1" {
		t.Fatalf("devices: %v", devs)
	}
}

func TestDeviceJSONAPI(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveDevice(&buf, Devices()[0]); err != nil {
		t.Fatal(err)
	}
	dev, err := LoadDevice(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if dev.Name != "TK1" {
		t.Fatalf("device: %+v", dev)
	}
}

func TestTuneDeltaAPI(t *testing.T) {
	g := CalLike(0.002, 9)
	delta, err := TuneDelta(g, 0, "TK1", 2)
	if err != nil {
		t.Fatal(err)
	}
	if delta < 1 {
		t.Fatalf("delta = %d", delta)
	}
	if _, err := TuneDelta(g, 0, "bogus", 1); err == nil {
		t.Fatal("bad device accepted")
	}
}

func TestStudiesAPI(t *testing.T) {
	tab, err := ScalingStudy(ExperimentConfig{Seed: 3, Workers: 2}, []float64{0.001})
	if err != nil || len(tab.Rows) != 1 {
		t.Fatalf("scaling: %v %v", tab, err)
	}
	tab, err = StabilityStudy(ExperimentConfig{Scale: 0.001, Workers: 2}, []uint64{1, 2})
	if err != nil || len(tab.Rows) != 3 {
		t.Fatalf("stability: %v %v", tab, err)
	}
}

func TestExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation suite")
	}
	tabs, err := Experiments(ExperimentConfig{Scale: 0.002, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) < 13 {
		t.Fatalf("tables = %d", len(tabs))
	}
}

// The FarQueue knob is plumbed through RunConfig; every strategy agrees
// with the oracle, and unknown names are rejected.
func TestRunFarQueueConfig(t *testing.T) {
	g := Grid(13, 13, 1, 30, 5)
	ref, err := Run(g, 0, RunConfig{Algorithm: Dijkstra})
	if err != nil {
		t.Fatal(err)
	}
	for _, fq := range []string{"auto", "flat", "rho"} {
		out, err := Run(g, 0, RunConfig{Algorithm: NearFar, Workers: 2, FarQueue: fq})
		if err != nil {
			t.Fatalf("%s: %v", fq, err)
		}
		for v := range out.Dist {
			if out.Dist[v] != ref.Dist[v] {
				t.Fatalf("%s: dist[%d] = %d, want %d", fq, v, out.Dist[v], ref.Dist[v])
			}
		}
	}
	if _, err := Run(g, 0, RunConfig{FarQueue: "bogus"}); err == nil {
		t.Fatal("unknown far-queue strategy accepted")
	}
}
