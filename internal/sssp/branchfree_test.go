package sssp

import (
	"math/rand/v2"
	"slices"
	"testing"

	"energysssp/internal/frontier"
	"energysssp/internal/graph"
	"energysssp/internal/parallel"
)

// relaxBranchy is the sequential relax kernel as it was written before its
// loop was predicated: one data-dependent branch for the relax test and
// one for the dedup bit. It is the oracle of
// TestSequentialRelaxMatchesBranchyOracle. seen must be all false; the
// entries of the returned out are left true.
func relaxBranchy(g *graph.Graph, dist []graph.Dist, front []graph.VID, seen []bool) (out []graph.VID, x2, edges int64) {
	for _, u := range front {
		du := dist[u]
		vs, ws := g.Neighbors(u)
		edges += int64(len(vs))
		for j, v := range vs {
			if nd := du + graph.Dist(ws[j]); nd < dist[v] {
				dist[v] = nd
				x2++
				if !seen[v] {
					seen[v] = true
					out = append(out, v)
				}
			}
		}
	}
	return out, x2, edges
}

// bisectBranchy is the bisect-frontier loop as the solvers wrote it before
// Kernels.Bisect: near vertices are appended in order and every other
// vertex is pushed, at its current distance, as it is met. It returns the
// near list and the push sequence.
func bisectBranchy(src []graph.VID, thr graph.Dist, dist []graph.Dist) (near []graph.VID, pushed []frontier.Entry) {
	for _, v := range src {
		if dist[v] <= thr {
			near = append(near, v)
		} else {
			pushed = append(pushed, frontier.Entry{V: v, D: dist[v]})
		}
	}
	return near, pushed
}

// randomMultigraph draws a small graph with zero-degree vertices,
// self-loops and parallel edges, and weights from a narrow range so that
// ties are common.
func randomMultigraph(rng *rand.Rand) *graph.Graph {
	n := 1 + rng.IntN(60)
	var edges []graph.Edge
	for u := 0; u < n; u++ {
		if rng.IntN(5) == 0 {
			continue // zero out-degree
		}
		for k := rng.IntN(7); k > 0; k-- {
			v := rng.IntN(n)
			switch rng.IntN(6) {
			case 0:
				v = u // self-loop
			case 1:
				if len(edges) > 0 && int(edges[len(edges)-1].U) == u {
					v = int(edges[len(edges)-1].V) // parallel edge
				}
			}
			edges = append(edges, graph.Edge{U: graph.VID(u), V: graph.VID(v), W: graph.Weight(1 + rng.IntN(12))})
		}
	}
	return graph.MustNew(n, edges)
}

// TestSequentialRelaxMatchesBranchyOracle runs the predicated sequential
// kernel and the branching oracle side by side over random multigraphs for
// several rounds each. After every round the two must agree on dist, X²,
// Edges and the Out order.
func TestSequentialRelaxMatchesBranchyOracle(t *testing.T) {
	pool := parallel.NewPool(1)
	defer pool.Close()
	for seed := uint64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewPCG(seed, seed^0xb1a5))
		g := randomMultigraph(rng)
		n := g.NumVertices()
		dist := make([]graph.Dist, n)
		for v := range dist {
			dist[v] = graph.Inf
			if rng.IntN(3) == 0 {
				dist[v] = graph.Dist(rng.IntN(40))
			}
		}
		src := graph.VID(rng.IntN(n))
		dist[src] = 0
		want := slices.Clone(dist)
		seen := make([]bool, n)
		kn := NewKernels(g, pool, nil, dist)
		front := []graph.VID{src}
		for v := 0; v < n; v++ {
			if dist[v] < graph.Inf && rng.IntN(2) == 0 {
				front = append(front, graph.VID(v)) // src may repeat
			}
		}
		for round := 0; round < 6 && len(front) > 0; round++ {
			wantOut, wantX2, wantEdges := relaxBranchy(g, want, front, seen)
			for _, v := range wantOut {
				seen[v] = false
			}
			adv := kn.Advance(front)
			if !adv.Sequential {
				t.Fatalf("seed %d: advance on a one-worker pool left the sequential path", seed)
			}
			if !slices.Equal(dist, want) {
				t.Fatalf("seed %d round %d: dist %v, oracle %v", seed, round, dist, want)
			}
			if int64(adv.X2) != wantX2 || adv.Edges != wantEdges {
				t.Fatalf("seed %d round %d: X2 %d Edges %d, oracle X2 %d Edges %d",
					seed, round, adv.X2, adv.Edges, wantX2, wantEdges)
			}
			if !slices.Equal(adv.Out, wantOut) {
				t.Fatalf("seed %d round %d: Out %v, oracle %v", seed, round, adv.Out, wantOut)
			}
			front = slices.Clone(adv.Out)
		}
		kn.Release()
	}
}

// TestBisectMatchesBranchyOracle checks Kernels.Bisect against the
// branching loop on random frontiers and thresholds: the same near order
// and the same far-push sequence, distances included, whether near is a separate buffer too
// small for the result or shares the input's backing array (the solvers'
// in-place shrink of the frontier). It runs at pool sizes 1 to 4, on short
// inputs and on inputs just below, at and above frontier.PoolScanMin, and
// checks that exactly the inputs of at least the cutoff ran on a pool of
// more than one worker.
func TestBisectMatchesBranchyOracle(t *testing.T) {
	g := line(64)
	rng := rand.New(rand.NewPCG(3, 5))
	long := []int{frontier.PoolScanMin - 1, frontier.PoolScanMin, frontier.PoolScanMin + 1, 2*frontier.PoolScanMin + 3}
	for ps := 1; ps <= 4; ps++ {
		pool := parallel.NewPool(ps)
		var stats parallel.PoolStats
		pool.Observe(&stats)
		dist := make([]graph.Dist, g.NumVertices())
		kn := NewKernels(g, pool, nil, dist)
		for trial := 0; trial < 500+len(long); trial++ {
			for v := range dist {
				dist[v] = graph.Dist(rng.IntN(20))
			}
			size := rng.IntN(100)
			if trial >= 500 {
				size = long[trial-500]
			}
			src := make([]graph.VID, size)
			for i := range src {
				src[i] = graph.VID(rng.IntN(len(dist)))
			}
			thr := graph.Dist(rng.IntN(22) - 1)
			wantNear, wantFar := bisectBranchy(src, thr, dist)

			launches := stats.Launches()
			near, far := kn.Bisect(src, thr, make([]graph.VID, 0, rng.IntN(4)))
			if !slices.Equal(near, wantNear) || !slices.Equal(far, wantFar) {
				t.Fatalf("pool %d trial %d size %d thr %d: near/far differ from the oracle (%d/%d, want %d/%d)",
					ps, trial, size, thr, len(near), len(far), len(wantNear), len(wantFar))
			}
			inPlace := slices.Clone(src)
			near, far = kn.Bisect(inPlace, thr, inPlace)
			if !slices.Equal(near, wantNear) || !slices.Equal(far, wantFar) {
				t.Fatalf("pool %d trial %d size %d thr %d in place: near/far differ from the oracle (%d/%d, want %d/%d)",
					ps, trial, size, thr, len(near), len(far), len(wantNear), len(wantFar))
			}
			wantRuns := int64(0)
			if ps > 1 && size >= frontier.PoolScanMin {
				wantRuns = 2
			}
			if got := stats.Launches() - launches; got != wantRuns {
				t.Fatalf("pool %d size %d: %d pool launches for two bisects, want %d", ps, size, got, wantRuns)
			}
		}
		kn.Release()
		pool.Unobserve(&stats)
		pool.Close()
	}
}
