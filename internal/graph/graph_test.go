package graph

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func diamond() *Graph {
	// 0 -> 1 (w2), 0 -> 2 (w5), 1 -> 3 (w4), 2 -> 3 (w1)
	return MustNew(4, []Edge{
		{0, 1, 2}, {0, 2, 5}, {1, 3, 4}, {2, 3, 1},
	})
}

func TestNewBasic(t *testing.T) {
	g := diamond()
	if g.NumVertices() != 4 || g.NumEdges() != 4 {
		t.Fatalf("got n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	vs, ws := g.Neighbors(0)
	if len(vs) != 2 || vs[0] != 1 || vs[1] != 2 || ws[0] != 2 || ws[1] != 5 {
		t.Fatalf("neighbors(0) = %v %v", vs, ws)
	}
	if g.OutDegree(3) != 0 {
		t.Fatalf("OutDegree(3) = %d", g.OutDegree(3))
	}
}

func TestNewErrors(t *testing.T) {
	if _, err := New(-1, nil); err == nil {
		t.Fatal("negative n accepted")
	}
	if _, err := New(2, []Edge{{0, 2, 1}}); err == nil {
		t.Fatal("out-of-range target accepted")
	}
	if _, err := New(2, []Edge{{-1, 0, 1}}); err == nil {
		t.Fatal("negative source accepted")
	}
	if _, err := New(2, []Edge{{0, 1, 0}}); err == nil {
		t.Fatal("zero weight accepted")
	}
	if _, err := New(2, []Edge{{0, 1, -5}}); err == nil {
		t.Fatal("negative weight accepted")
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	g := diamond()
	h := MustNew(g.NumVertices(), g.Edges())
	if !g.Equal(h) {
		t.Fatal("Edges/New round trip changed the graph")
	}
}

func TestWeakComponents(t *testing.T) {
	g := MustNew(6, []Edge{{0, 1, 1}, {1, 2, 1}, {3, 4, 1}})
	cc, largest := g.WeakComponents()
	if cc != 3 || largest != 3 {
		t.Fatalf("components = %d largest = %d, want 3 and 3", cc, largest)
	}
}

func TestBFSHops(t *testing.T) {
	g := MustNew(5, []Edge{{0, 1, 9}, {1, 2, 9}, {2, 3, 9}})
	hops, reach := g.BFSHops(0)
	if hops != 3 || reach != 4 {
		t.Fatalf("hops=%d reach=%d, want 3 and 4", hops, reach)
	}
}

func TestComputeStats(t *testing.T) {
	g := diamond()
	g.SetName("diamond")
	s := g.ComputeStats()
	if s.Vertices != 4 || s.Edges != 4 || s.MaxDegree != 2 || s.MinDegree != 0 {
		t.Fatalf("stats: %+v", s)
	}
	if s.MinWeight != 1 || s.MaxWeight != 5 {
		t.Fatalf("weight stats: %+v", s)
	}
	if s.AvgDegree != 1.0 {
		t.Fatalf("avg degree = %f", s.AvgDegree)
	}
	if s.EccSample != 6 { // 0->2->3 = 6 via cheaper path 0->1->3 = 6; max dist is 6
		t.Fatalf("ecc = %d, want 6", s.EccSample)
	}
	if s.Reachable != 4 || s.Components != 1 || s.LargestCC != 4 {
		t.Fatalf("connectivity stats: %+v", s)
	}
	if s.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestEmptyGraphStats(t *testing.T) {
	g := MustNew(0, nil)
	s := g.ComputeStats()
	if s.Vertices != 0 || s.Edges != 0 {
		t.Fatalf("stats of empty graph: %+v", s)
	}
}

func TestAvgWeight(t *testing.T) {
	g := diamond()
	if got := g.AvgWeight(); got != 3.0 {
		t.Fatalf("AvgWeight = %f, want 3", got)
	}
	if MustNew(2, nil).AvgWeight() != 0 {
		t.Fatal("AvgWeight of edgeless graph should be 0")
	}
}

// randomEdges builds a valid random edge set for property tests.
func randomEdges(n, m int, seed uint64) []Edge {
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b9))
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = Edge{
			U: VID(rng.IntN(n)),
			V: VID(rng.IntN(n)),
			W: Weight(1 + rng.IntN(99)),
		}
	}
	return edges
}

// Property: CSR construction preserves the multiset of edges.
func TestNewPreservesEdgesProperty(t *testing.T) {
	f := func(seed uint64, nRaw, mRaw uint8) bool {
		n := int(nRaw)%50 + 1
		m := int(mRaw) % 200
		in := randomEdges(n, m, seed)
		g := MustNew(n, in)
		if g.Validate() != nil || g.NumEdges() != int64(m) {
			return false
		}
		count := func(es []Edge) map[Edge]int {
			c := map[Edge]int{}
			for _, e := range es {
				c[e]++
			}
			return c
		}
		ci, co := count(in), count(g.Edges())
		if len(ci) != len(co) {
			return false
		}
		for k, v := range ci {
			if co[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
