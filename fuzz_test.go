package energysssp

import (
	"math"
	"testing"

	"energysssp/internal/sssp"
)

// fuzzGraph builds a small digraph from raw bytes: the first byte picks
// 1–32 vertices, and every following triple is one edge (u, v, weight
// 1–64). Self-loops and parallel edges are kept; they are valid input.
func fuzzGraph(shape []byte) (*Graph, error) {
	n := 1
	if len(shape) > 0 {
		n = 1 + int(shape[0])%32
		shape = shape[1:]
	}
	var edges []Edge
	for len(shape) >= 3 && len(edges) < 256 {
		edges = append(edges, Edge{
			U: VID(int(shape[0]) % n),
			V: VID(int(shape[1]) % n),
			W: Weight(1 + int(shape[2])%64),
		})
		shape = shape[3:]
	}
	return NewGraph(n, edges)
}

// FuzzRunConfig drives Run with arbitrary configurations on small random
// graphs: every Algorithm value and out-of-range ones, any Delta, SetPoint
// including NaN, ±Inf, 0 and negatives, Workers in [-1, 4], and arbitrary
// FarQueue, Device and Freq strings, with and without Paths.
// RunConfig is caller input, so every call must either return an error or
// return Dijkstra's distances — never panic.
func FuzzRunConfig(f *testing.F) {
	grid := []byte{8, 0, 1, 3, 1, 2, 5, 2, 3, 1, 3, 0, 9, 0, 4, 2, 4, 5, 7, 5, 6, 1, 6, 7, 4}
	seeds := []struct {
		algo     int
		delta    int64
		p        float64
		workers  int8
		src      int16
		farQueue string
		device   string
		freq     string
		paths    bool
	}{
		{int(Dijkstra), 0, 0, 0, 0, "", "", "", false},
		{int(NearFar), 0, 0, 1, 0, "auto", "", "", true},
		{int(NearFar), 3, 0, 3, 2, "flat", "TK1", "auto", false},
		{int(NearFar), -5, 0, 4, 1, "rho", "TX1", "852/924", true},
		{int(SelfTuning), 0, 4, 2, 0, "", "TK1", "", false},
		{int(SelfTuning), 0, math.NaN(), 0, 0, "", "", "", false},
		{int(SelfTuning), 0, math.Inf(1), 0, 0, "", "", "", false},
		{int(SelfTuning), 0, math.Inf(-1), 0, 0, "", "", "", false},
		{int(SelfTuning), 0, -3, 0, 0, "", "", "", false},
		{int(SelfTuning), 0, 1e300, 5, 0, "", "", "", true},
		{42, 0, 1, 0, 0, "lazy", "RTX", "9/9", false},
		{-1, 0, 1, 0, -7, "", "", "", false},
	}
	for _, s := range seeds {
		f.Add(grid, s.algo, s.delta, s.p, s.workers, s.src, s.farQueue, s.device, s.freq, s.paths)
	}
	f.Fuzz(func(t *testing.T, shape []byte, algo int, delta int64, p float64, workers int8, src int16,
		farQueue, device, freq string, paths bool) {
		g, err := fuzzGraph(shape)
		if err != nil {
			t.Fatalf("fuzz graph rejected: %v", err)
		}
		cfg := RunConfig{
			Algorithm: Algorithm(algo),
			Delta:     Dist(delta),
			SetPoint:  p,
			Workers:   int(uint8(workers))%6 - 1, // [-1, 4]
			FarQueue:  farQueue,
			Device:    device,
			Freq:      freq,
			Paths:     paths,
		}
		out, err := Run(g, VID(src), cfg)
		if err != nil {
			return // rejecting a config is fine; panicking is not
		}
		want, err := sssp.Dijkstra(g, VID(src), nil)
		if err != nil {
			t.Fatalf("Run accepted source %d that Dijkstra rejects: %v", src, err)
		}
		if len(out.Dist) != len(want.Dist) {
			t.Fatalf("%d distances, want %d", len(out.Dist), len(want.Dist))
		}
		for v := range want.Dist {
			if out.Dist[v] != want.Dist[v] {
				t.Fatalf("%+v: dist[%d] = %d, Dijkstra %d", cfg, v, out.Dist[v], want.Dist[v])
			}
		}
		if paths && len(out.Parents) != g.NumVertices() {
			t.Fatalf("Paths: %d parents for %d vertices", len(out.Parents), g.NumVertices())
		}
	})
}
