package gen

import (
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"energysssp/internal/graph"
)

func TestGridStructure(t *testing.T) {
	g := Grid(4, 5, 1, 10, 1)
	if g.NumVertices() != 20 {
		t.Fatalf("n = %d", g.NumVertices())
	}
	// 4x5 grid: horizontal 4*4=16, vertical 3*5=15, doubled as arcs.
	if g.NumEdges() != 2*(16+15) {
		t.Fatalf("m = %d", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	cc, largest := g.WeakComponents()
	if cc != 1 || largest != 20 {
		t.Fatalf("grid not connected: cc=%d largest=%d", cc, largest)
	}
}

func TestGridDeterminism(t *testing.T) {
	a := Grid(6, 6, 1, 99, 42)
	b := Grid(6, 6, 1, 99, 42)
	if !a.Equal(b) {
		t.Fatal("same seed produced different grids")
	}
	c := Grid(6, 6, 1, 99, 43)
	if a.Equal(c) {
		t.Fatal("different seeds produced identical weights (suspicious)")
	}
}

func TestRandomGeometric(t *testing.T) {
	g := RandomGeometric(2000, 0.05, 1000, 7)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	s := g.ComputeStats()
	// Expected degree ≈ n·π·r² ≈ 15.7; allow a broad band.
	if s.AvgDegree < 8 || s.AvgDegree > 25 {
		t.Fatalf("unexpected average degree %.2f", s.AvgDegree)
	}
	// Symmetric arcs: every (u,v) must have a (v,u) of equal weight.
	seen := map[[2]graph.VID]graph.Weight{}
	for _, e := range g.Edges() {
		seen[[2]graph.VID{e.U, e.V}] = e.W
	}
	for k, w := range seen {
		if seen[[2]graph.VID{k[1], k[0]}] != w {
			t.Fatalf("asymmetric RGG edge %v", k)
		}
	}
}

func TestRMAT(t *testing.T) {
	g := RMAT(10, 8, 0.57, 0.19, 0.19, 1, 99, 3)
	if g.NumVertices() != 1024 || g.NumEdges() != 8*1024 {
		t.Fatalf("rmat size n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	s := g.ComputeStats()
	// RMAT must be skewed: max degree far above average.
	if float64(s.MaxDegree) < 4*s.AvgDegree {
		t.Fatalf("rmat not skewed: max=%d avg=%.1f", s.MaxDegree, s.AvgDegree)
	}
	if s.MinWeight < 1 || s.MaxWeight > 99 {
		t.Fatalf("weights out of [1,99]: %+v", s)
	}
}

func TestErdosRenyi(t *testing.T) {
	g := ErdosRenyi(500, 3000, 1, 10, 11)
	if g.NumVertices() != 500 || g.NumEdges() != 3000 {
		t.Fatalf("er size n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBarabasiAlbert(t *testing.T) {
	g := BarabasiAlbert(1000, 3, 1, 99, 5)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	s := g.ComputeStats()
	if s.Vertices != 1000 {
		t.Fatalf("n = %d", s.Vertices)
	}
	cc, largest := g.WeakComponents()
	if cc != 1 || largest != 1000 {
		t.Fatalf("BA not connected: cc=%d", cc)
	}
	if float64(s.MaxDegree) < 3*s.AvgDegree {
		t.Fatalf("BA not skewed: max=%d avg=%.1f", s.MaxDegree, s.AvgDegree)
	}
}

func TestBarabasiAlbertTiny(t *testing.T) {
	// n smaller than k+1 must still terminate and be valid.
	g := BarabasiAlbert(3, 5, 1, 9, 1)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestWattsStrogatz(t *testing.T) {
	g := WattsStrogatz(200, 3, 0.1, 1, 50, 9)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 200 {
		t.Fatalf("n = %d", g.NumVertices())
	}
	// Each vertex initiates k edges (two arcs each) unless rewiring hit u.
	if g.NumEdges() < int64(200*3) {
		t.Fatalf("too few edges: %d", g.NumEdges())
	}
}

func TestRoadGenerator(t *testing.T) {
	g := Road(30, 40, 0.22, 1, 100, 5)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	cc, largest := g.WeakComponents()
	if cc != 1 || largest != 1200 {
		t.Fatalf("road graph not connected: cc=%d largest=%d", cc, largest)
	}
	if g.MaxDegree() > 4 {
		t.Fatalf("lattice degree exceeded: %d", g.MaxDegree())
	}
}

func TestRoadLogWeightsHeavyTail(t *testing.T) {
	g := RoadLogWeights(40, 40, 0.22, 1, 16384, 6)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	s := g.ComputeStats()
	if s.MinWeight < 1 || s.MaxWeight > 16384 {
		t.Fatalf("weights out of range: %+v", s)
	}
	// Log-uniform: the mean sits far below the midpoint of the range
	// (for log-uniform on [1, 16384], E[w] = (w_max-1)/ln(w_max) ≈ 1690).
	if s.AvgWeight < 800 || s.AvgWeight > 3000 {
		t.Fatalf("avg weight %.0f not log-uniform-like", s.AvgWeight)
	}
	// Heavy tail: a decent fraction of edges below 100 AND above 4096.
	var small, large int
	for _, e := range g.Edges() {
		if e.W < 100 {
			small++
		}
		if e.W > 4096 {
			large++
		}
	}
	total := int(g.NumEdges())
	if small < total/10 || large < total/20 {
		t.Fatalf("weight spread too narrow: %d small, %d large of %d", small, large, total)
	}
}

func TestCalLikeSmall(t *testing.T) {
	g := CalLike(0.002, 21) // ~3.8k vertices
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	s := g.ComputeStats()
	if s.Vertices < 3000 || s.Vertices > 4500 {
		t.Fatalf("cal-like size %d", s.Vertices)
	}
	// Road-like: connected, small average degree in the DIMACS Cal
	// ballpark (~2.45 arcs per vertex).
	if s.Components != 1 {
		t.Fatalf("cal-like not connected: %d components", s.Components)
	}
	if s.AvgDegree < 2.0 || s.AvgDegree > 3.0 {
		t.Fatalf("cal-like degree %.2f", s.AvgDegree)
	}
	// High-diameter check: BFS hops from 0 should be much larger than
	// log2(n) ≈ 12.
	if s.HopsSample < 60 {
		t.Fatalf("cal-like diameter too small: hops=%d", s.HopsSample)
	}
}

func TestWikiLikeSmall(t *testing.T) {
	g := WikiLike(0.002, 22) // ~2^12 vertices
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	s := g.ComputeStats()
	if s.MinWeight < 1 || s.MaxWeight > 99 {
		t.Fatalf("wiki-like weights: %+v", s)
	}
	if float64(s.MaxDegree) < 5*s.AvgDegree {
		t.Fatalf("wiki-like not heavy-tailed: max=%d avg=%.1f", s.MaxDegree, s.AvgDegree)
	}
	// Low diameter: the giant component should be reachable in few hops.
	if s.HopsSample > 30 {
		t.Fatalf("wiki-like diameter too large: hops=%d", s.HopsSample)
	}
}

func TestDatasetEnum(t *testing.T) {
	if Cal.String() != "Cal" || Wiki.String() != "Wiki" {
		t.Fatal("dataset names")
	}
	if Dataset(99).String() == "" {
		t.Fatal("unknown dataset String should not be empty")
	}
	g := Cal.Generate(0.001, 1)
	if g.NumVertices() == 0 {
		t.Fatal("Cal.Generate empty")
	}
	g = Wiki.Generate(0.001, 1)
	if g.NumVertices() == 0 {
		t.Fatal("Wiki.Generate empty")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown dataset Generate should panic")
		}
	}()
	Dataset(99).Generate(1, 1)
}

// Property: all generators produce structurally valid graphs with weights in
// range, for arbitrary small parameters.
func TestGeneratorsValidProperty(t *testing.T) {
	f := func(seed uint64, nRaw, mRaw uint8) bool {
		n := int(nRaw)%100 + 2
		m := int(mRaw) % 500
		for _, g := range []*graph.Graph{
			ErdosRenyi(n, m, 1, 99, seed),
			BarabasiAlbert(n, int(mRaw)%4+1, 1, 99, seed),
			WattsStrogatz(n, int(mRaw)%3+1, 0.2, 1, 99, seed),
			Grid(int(nRaw)%10+1, int(mRaw)%10+1, 1, 99, seed),
		} {
			if g.Validate() != nil {
				return false
			}
			s := g.ComputeStats()
			if s.Edges > 0 && (s.MinWeight < 1 || s.MaxWeight > 99) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestRMATDeterminism(t *testing.T) {
	a := RMAT(8, 4, 0.57, 0.19, 0.19, 1, 99, 77)
	b := RMAT(8, 4, 0.57, 0.19, 0.19, 1, 99, 77)
	if !a.Equal(b) {
		t.Fatal("same-seed RMAT differs")
	}
}

// rmatEdgesSwitch is the branching quadrant choice rmatEdges replaced,
// kept as its oracle: same draws, same comparisons, one switch per level.
func rmatEdgesSwitch(scale, edgeFactor int, a, b, c float64, wmin, wmax int, seed uint64) []graph.Edge {
	rng := newRNG(seed)
	n := 1 << uint(scale)
	m := edgeFactor * n
	edges := make([]graph.Edge, 0, m)
	for k := 0; k < m; k++ {
		u, v := 0, 0
		for bit := n >> 1; bit > 0; bit >>= 1 {
			r := rng.Float64()
			switch {
			case r < a:
			case r < a+b:
				v |= bit
			case r < a+b+c:
				u |= bit
			default:
				u |= bit
				v |= bit
			}
		}
		edges = append(edges, graph.Edge{
			U: graph.VID(u), V: graph.VID(v),
			W: uniformWeight(rng, wmin, wmax),
		})
	}
	return edges
}

func TestRMATMatchesSwitchOracle(t *testing.T) {
	params := [][3]float64{
		{0.57, 0.19, 0.19}, // Graph500, the WikiLike preset
		{0.25, 0.25, 0.25}, // uniform: every quadrant boundary hit often
		{0.45, 0.15, 0.35},
		{1, 0, 0}, // degenerate quadrants
		{0, 0, 0},
	}
	for _, p := range params {
		for _, scale := range []int{1, 4, 9, 12} {
			for seed := uint64(1); seed <= 4; seed++ {
				got := rmatEdges(scale, 6, p[0], p[1], p[2], 1, 99, seed)
				want := rmatEdgesSwitch(scale, 6, p[0], p[1], p[2], 1, 99, seed)
				if !slices.Equal(got, want) {
					t.Fatalf("params %v scale %d seed %d: branch-free RMAT edges differ from the switch", p, scale, seed)
				}
			}
		}
	}
}

// roadWeightedMap is the maze roadWeighted replaced, kept as its oracle:
// tree edges recorded in a map keyed by their end cells, directions
// ordered by rng.Perm(4).
func roadWeightedMap(rows, cols int, extra float64, rng *rand.Rand, weight func() graph.Weight) *graph.Graph {
	n := rows * cols
	id := func(r, c int) graph.VID { return graph.VID(r*cols + c) }
	type latticeEdge struct{ r1, c1, r2, c2 int }

	inTree := make(map[latticeEdge]bool, n)
	visited := make([]bool, n)
	type cell struct{ r, c int }
	stack := []cell{{rng.IntN(rows), rng.IntN(cols)}}
	visited[id(stack[0].r, stack[0].c)] = true
	dirs := [4][2]int{{0, 1}, {0, -1}, {1, 0}, {-1, 0}}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		advanced := false
		for _, pi := range rng.Perm(4) {
			nr, nc := cur.r+dirs[pi][0], cur.c+dirs[pi][1]
			if nr < 0 || nc < 0 || nr >= rows || nc >= cols || visited[id(nr, nc)] {
				continue
			}
			visited[id(nr, nc)] = true
			e := latticeEdge{cur.r, cur.c, nr, nc}
			if cur.r > nr || (cur.r == nr && cur.c > nc) {
				e = latticeEdge{nr, nc, cur.r, cur.c}
			}
			inTree[e] = true
			stack = append(stack, cell{nr, nc})
			advanced = true
			break
		}
		if !advanced {
			stack = stack[:len(stack)-1]
		}
	}

	var edges []graph.Edge
	addUndirected := func(u, v graph.VID) {
		w := weight()
		edges = append(edges,
			graph.Edge{U: u, V: v, W: w},
			graph.Edge{U: v, V: u, W: w})
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				if inTree[latticeEdge{r, c, r, c + 1}] || rng.Float64() < extra {
					addUndirected(id(r, c), id(r, c+1))
				}
			}
			if r+1 < rows {
				if inTree[latticeEdge{r, c, r + 1, c}] || rng.Float64() < extra {
					addUndirected(id(r, c), id(r+1, c))
				}
			}
		}
	}
	return graph.MustNew(n, edges)
}

func TestRoadMatchesMapOracle(t *testing.T) {
	shapes := [][2]int{{1, 1}, {1, 7}, {9, 1}, {2, 2}, {5, 13}, {17, 6}, {40, 40}, {64, 97}}
	for _, sh := range shapes {
		rows, cols := sh[0], sh[1]
		for seed := uint64(1); seed <= 5; seed++ {
			for _, extra := range []float64{0, 0.22, 1} {
				rng := newRNG(seed)
				want := roadWeightedMap(rows, cols, extra, rng, uniformWeights(rng, 1, 4096))
				if got := Road(rows, cols, extra, 1, 4096, seed); !slices.Equal(got.Edges(), want.Edges()) {
					t.Fatalf("Road %dx%d extra %v seed %d: edges differ from the map maze", rows, cols, extra, seed)
				}
				rng = newRNG(seed)
				want = roadWeightedMap(rows, cols, extra, rng, logWeights(rng, 1, 16384))
				if got := RoadLogWeights(rows, cols, extra, 1, 16384, seed); !slices.Equal(got.Edges(), want.Edges()) {
					t.Fatalf("RoadLogWeights %dx%d extra %v seed %d: edges differ from the map maze", rows, cols, extra, seed)
				}
			}
		}
	}
}
