// Package gen provides deterministic synthetic graph generators that stand
// in for the paper's datasets (see DESIGN.md, "substitutions"): a
// road-network-like random geometric graph for the Cal DIMACS input and an
// RMAT scale-free digraph for wikipedia-20051105, plus classic generators
// (grid, Erdős–Rényi, Barabási–Albert, Watts–Strogatz) used by tests,
// examples, and ablations.
//
// Every generator is a pure function of its parameters including the seed,
// so experiment outputs are reproducible bit-for-bit.
package gen

import (
	"fmt"
	"math"
	"math/rand/v2"

	"energysssp/internal/graph"
)

func newRNG(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed^0x51_7cc1b727220a95))
}

// uniformWeight draws an integer weight in [lo, hi].
func uniformWeight(rng *rand.Rand, lo, hi int) graph.Weight {
	if hi <= lo {
		return graph.Weight(lo)
	}
	return graph.Weight(lo + rng.IntN(hi-lo+1))
}

// Grid generates a rows×cols 4-connected grid with uniform random integer
// weights in [wmin, wmax]; each undirected lattice edge becomes two arcs.
// Grids are the simplest high-diameter road-network proxy and are used
// heavily in tests because their shortest paths are easy to reason about.
func Grid(rows, cols, wmin, wmax int, seed uint64) *graph.Graph {
	rng := newRNG(seed)
	n := rows * cols
	edges := make([]graph.Edge, 0, int64(4*n))
	id := func(r, c int) graph.VID { return graph.VID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				w := uniformWeight(rng, wmin, wmax)
				edges = append(edges,
					graph.Edge{U: id(r, c), V: id(r, c+1), W: w},
					graph.Edge{U: id(r, c+1), V: id(r, c), W: w})
			}
			if r+1 < rows {
				w := uniformWeight(rng, wmin, wmax)
				edges = append(edges,
					graph.Edge{U: id(r, c), V: id(r+1, c), W: w},
					graph.Edge{U: id(r+1, c), V: id(r, c), W: w})
			}
		}
	}
	g := graph.MustNew(n, edges)
	g.SetName(fmt.Sprintf("grid-%dx%d", rows, cols))
	return g
}

// RandomGeometric places n points uniformly in the unit square and connects
// pairs within the given radius, weighting each edge by the rounded
// Euclidean distance scaled by wscale (minimum 1). Neighbor search uses a
// spatial hash grid, so generation is O(n · expected-degree). Each
// undirected edge becomes two arcs. Road networks are approximately
// geometric: high diameter, small and uniform degree — exactly the traits
// the paper attributes to Cal.
func RandomGeometric(n int, radius float64, wscale int, seed uint64) *graph.Graph {
	rng := newRNG(seed)
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64()
		ys[i] = rng.Float64()
	}
	cell := radius
	if cell <= 0 {
		cell = 1
	}
	cols := int(1/cell) + 1
	buckets := make(map[int][]int32, n)
	key := func(x, y float64) int {
		return int(y/cell)*cols + int(x/cell)
	}
	for i := 0; i < n; i++ {
		k := key(xs[i], ys[i])
		buckets[k] = append(buckets[k], int32(i))
	}
	var edges []graph.Edge
	r2 := radius * radius
	for i := 0; i < n; i++ {
		cx, cy := int(xs[i]/cell), int(ys[i]/cell)
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				bx, by := cx+dx, cy+dy
				if bx < 0 || by < 0 || bx >= cols {
					continue
				}
				for _, j := range buckets[by*cols+bx] {
					if int(j) <= i {
						continue // handle each unordered pair once
					}
					ddx, ddy := xs[i]-xs[j], ys[i]-ys[j]
					d2 := ddx*ddx + ddy*ddy
					if d2 > r2 {
						continue
					}
					w := graph.Weight(math.Sqrt(d2) * float64(wscale))
					if w < 1 {
						w = 1
					}
					edges = append(edges,
						graph.Edge{U: graph.VID(i), V: j, W: w},
						graph.Edge{U: j, V: graph.VID(i), W: w})
				}
			}
		}
	}
	g := graph.MustNew(n, edges)
	g.SetName(fmt.Sprintf("rgg-%d", n))
	return g
}

// Road generates a connected road-network-like graph on a rows×cols lattice:
// a uniform random spanning tree (maze via randomized DFS) guarantees
// connectivity and a high, road-like diameter, and each remaining lattice
// edge is added independently with probability extra, tuning the average
// degree. Weights are uniform in [wmin, wmax]; every undirected edge becomes
// two arcs. This matches the structural profile of the DIMACS Cal input:
// high diameter, degree ≤ 4, average out-degree ≈ 2 + 4·extra·(1 − 1/... )
// (in practice ≈ 2(1 − 1/n) + 2·extra·(#non-tree lattice edges)/n).
func Road(rows, cols int, extra float64, wmin, wmax int, seed uint64) *graph.Graph {
	rng := newRNG(seed)
	return roadWeighted(rows, cols, extra, rng, uniformWeights(rng, wmin, wmax))
}

// RoadLogWeights is Road with log-uniform weights in [wmin, wmax]: most
// segments are short with a heavy tail of long ones, matching the travel
// times of DIMACS road networks (the Cal input mixes city blocks and
// highways). The weight spread is what makes one fixed delta a bad
// compromise — the property the paper's self-tuning exploits.
func RoadLogWeights(rows, cols int, extra float64, wmin, wmax int, seed uint64) *graph.Graph {
	rng := newRNG(seed)
	return roadWeighted(rows, cols, extra, rng, logWeights(rng, wmin, wmax))
}

// uniformWeights draws Road's weights: uniform in [wmin, wmax].
func uniformWeights(rng *rand.Rand, wmin, wmax int) func() graph.Weight {
	return func() graph.Weight { return uniformWeight(rng, wmin, wmax) }
}

// logWeights draws RoadLogWeights' weights: log-uniform in [wmin, wmax].
func logWeights(rng *rand.Rand, wmin, wmax int) func() graph.Weight {
	lo, hi := math.Log(float64(wmin)), math.Log(float64(wmax)+1)
	return func() graph.Weight {
		w := graph.Weight(math.Exp(lo + rng.Float64()*(hi-lo)))
		if w < graph.Weight(wmin) {
			w = graph.Weight(wmin)
		}
		return w
	}
}

// roadWeighted builds Road's lattice. The maze's tree edges are recorded
// per cell: treeRight[id(r, c)] for the edge to (r, c+1) and
// treeDown[id(r, c)] for the edge to (r+1, c). Each step orders the four
// directions with an in-place Shuffle, which makes the same draws as
// rng.Perm(4) and yields the same order without allocating.
func roadWeighted(rows, cols int, extra float64, rng *rand.Rand, weight func() graph.Weight) *graph.Graph {
	n := rows * cols
	id := func(r, c int) int { return r*cols + c }

	treeRight := make([]bool, n)
	treeDown := make([]bool, n)
	visited := make([]bool, n)
	// Iterative randomized DFS from a random cell.
	type cell struct{ r, c int }
	stack := []cell{{rng.IntN(rows), rng.IntN(cols)}}
	visited[id(stack[0].r, stack[0].c)] = true
	dirs := [4][2]int{{0, 1}, {0, -1}, {1, 0}, {-1, 0}}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		perm := [4]int{0, 1, 2, 3}
		rng.Shuffle(4, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		advanced := false
		for _, pi := range perm {
			nr, nc := cur.r+dirs[pi][0], cur.c+dirs[pi][1]
			if nr < 0 || nc < 0 || nr >= rows || nc >= cols || visited[id(nr, nc)] {
				continue
			}
			visited[id(nr, nc)] = true
			// The edge is filed under its upper-left end.
			switch {
			case nc > cur.c:
				treeRight[id(cur.r, cur.c)] = true
			case nc < cur.c:
				treeRight[id(nr, nc)] = true
			case nr > cur.r:
				treeDown[id(cur.r, cur.c)] = true
			default:
				treeDown[id(nr, nc)] = true
			}
			stack = append(stack, cell{nr, nc})
			advanced = true
			break
		}
		if !advanced {
			stack = stack[:len(stack)-1]
		}
	}

	edges := make([]graph.Edge, 0, int(float64(n)*2.6))
	addUndirected := func(u, v int) {
		w := weight()
		edges = append(edges,
			graph.Edge{U: graph.VID(u), V: graph.VID(v), W: w},
			graph.Edge{U: graph.VID(v), V: graph.VID(u), W: w})
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols && (treeRight[id(r, c)] || rng.Float64() < extra) {
				addUndirected(id(r, c), id(r, c+1))
			}
			if r+1 < rows && (treeDown[id(r, c)] || rng.Float64() < extra) {
				addUndirected(id(r, c), id(r+1, c))
			}
		}
	}
	g := graph.MustNew(n, edges)
	g.SetName(fmt.Sprintf("road-%dx%d", rows, cols))
	return g
}

// RMAT generates a recursive-matrix scale-free digraph with 2^scale
// vertices and edgeFactor·2^scale arcs using partition probabilities
// (a, b, c, d); weights are uniform in [wmin, wmax]. With the Graph500
// parameters (0.57, 0.19, 0.19, 0.05) the degree distribution is heavy
// tailed like the Wiki hyperlink network.
func RMAT(scale, edgeFactor int, a, b, c float64, wmin, wmax int, seed uint64) *graph.Graph {
	g := graph.MustNew(1<<uint(scale), rmatEdges(scale, edgeFactor, a, b, c, wmin, wmax, seed))
	g.SetName(fmt.Sprintf("rmat-%d-%d", scale, edgeFactor))
	return g
}

// rmatEdges draws RMAT's arc list. Each level takes one uniform draw r and
// picks a quadrant: r < a top-left (no bit), r < a+b top-right (v bit),
// r < a+b+c bottom-left (u bit), otherwise bottom-right (both bits). The
// quadrant is decoded without a branch, since the draw mispredicts one: u
// is set exactly when r >= a+b, and v exactly when r lands in [a, a+b) or
// at or above a+b+c. The sums are formed once, in the same order as the
// comparisons they replace, so the edges are bit-identical to the switch.
func rmatEdges(scale, edgeFactor int, a, b, c float64, wmin, wmax int, seed uint64) []graph.Edge {
	rng := newRNG(seed)
	n := 1 << uint(scale)
	m := edgeFactor * n
	ab := a + b
	abc := ab + c
	edges := make([]graph.Edge, 0, m)
	for k := 0; k < m; k++ {
		u, v := 0, 0
		for bit := n >> 1; bit > 0; bit >>= 1 {
			r := rng.Float64()
			geA, geAB, geABC := b2i(r >= a), b2i(r >= ab), b2i(r >= abc)
			u |= bit & -geAB
			v |= bit & -((geA ^ geAB) | geABC)
		}
		edges = append(edges, graph.Edge{
			U: graph.VID(u), V: graph.VID(v),
			W: uniformWeight(rng, wmin, wmax),
		})
	}
	return edges
}

// b2i converts a predicate to 0 or 1. The compiler lowers it to a flag
// set (SETcc), not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// ErdosRenyi generates a G(n, m) digraph: m arcs drawn uniformly with
// replacement, weights uniform in [wmin, wmax].
func ErdosRenyi(n, m, wmin, wmax int, seed uint64) *graph.Graph {
	rng := newRNG(seed)
	edges := make([]graph.Edge, m)
	for i := range edges {
		edges[i] = graph.Edge{
			U: graph.VID(rng.IntN(n)),
			V: graph.VID(rng.IntN(n)),
			W: uniformWeight(rng, wmin, wmax),
		}
	}
	g := graph.MustNew(n, edges)
	g.SetName(fmt.Sprintf("er-%d-%d", n, m))
	return g
}

// BarabasiAlbert generates a preferential-attachment graph: each new vertex
// attaches k undirected edges to existing vertices chosen proportionally to
// degree (implemented with the repeated-endpoint trick). Weights are uniform
// in [wmin, wmax].
func BarabasiAlbert(n, k, wmin, wmax int, seed uint64) *graph.Graph {
	if k < 1 {
		k = 1
	}
	rng := newRNG(seed)
	var edges []graph.Edge
	// endpoint pool: each vertex appears once per incident edge endpoint.
	pool := make([]graph.VID, 0, 2*n*k)
	start := k + 1
	if start > n {
		start = n
	}
	// Seed clique among the first start vertices.
	for i := 0; i < start; i++ {
		for j := i + 1; j < start; j++ {
			w := uniformWeight(rng, wmin, wmax)
			edges = append(edges,
				graph.Edge{U: graph.VID(i), V: graph.VID(j), W: w},
				graph.Edge{U: graph.VID(j), V: graph.VID(i), W: w})
			pool = append(pool, graph.VID(i), graph.VID(j))
		}
	}
	for v := start; v < n; v++ {
		seen := map[graph.VID]bool{}
		for len(seen) < k {
			var t graph.VID
			if len(pool) == 0 {
				t = graph.VID(rng.IntN(v))
			} else {
				t = pool[rng.IntN(len(pool))]
			}
			if int(t) == v || seen[t] {
				if len(seen) >= v { // cannot find k distinct targets
					break
				}
				continue
			}
			seen[t] = true
			w := uniformWeight(rng, wmin, wmax)
			edges = append(edges,
				graph.Edge{U: graph.VID(v), V: t, W: w},
				graph.Edge{U: t, V: graph.VID(v), W: w})
			pool = append(pool, graph.VID(v), t)
		}
	}
	g := graph.MustNew(n, edges)
	g.SetName(fmt.Sprintf("ba-%d-%d", n, k))
	return g
}

// WattsStrogatz generates a small-world ring lattice: n vertices each
// connected to k nearest neighbors per side, with each edge rewired with
// probability beta. Weights are uniform in [wmin, wmax].
func WattsStrogatz(n, k int, beta float64, wmin, wmax int, seed uint64) *graph.Graph {
	rng := newRNG(seed)
	var edges []graph.Edge
	add := func(u, v graph.VID) {
		w := uniformWeight(rng, wmin, wmax)
		edges = append(edges,
			graph.Edge{U: u, V: v, W: w},
			graph.Edge{U: v, V: u, W: w})
	}
	for u := 0; u < n; u++ {
		for d := 1; d <= k; d++ {
			v := (u + d) % n
			if rng.Float64() < beta {
				for tries := 0; tries < 8; tries++ {
					cand := rng.IntN(n)
					if cand != u {
						v = cand
						break
					}
				}
			}
			if v != u {
				add(graph.VID(u), graph.VID(v))
			}
		}
	}
	g := graph.MustNew(n, edges)
	g.SetName(fmt.Sprintf("ws-%d-%d", n, k))
	return g
}
