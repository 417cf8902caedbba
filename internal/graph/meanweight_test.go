package graph

import (
	"bytes"
	"math"
	"math/rand/v2"
	"strings"
	"testing"
)

// scanMeanWeight is AvgWeight as it was computed before the builders cached
// it: a float sum of every weight in CSR order over the arc count.
func scanMeanWeight(g *Graph) float64 {
	if len(g.Wgt) == 0 {
		return 0
	}
	var sum float64
	for _, w := range g.Wgt {
		sum += float64(w)
	}
	return sum / float64(len(g.Wgt))
}

// randomWeighted draws a graph whose weights mix the full int32 range
// with small values, over arc counts that make the quotient inexact.
func randomWeighted(seed uint64) *Graph {
	rng := rand.New(rand.NewPCG(seed, seed^0x3ea))
	n := 2 + rng.IntN(200)
	edges := make([]Edge, 1+rng.IntN(2000))
	for i := range edges {
		w := Weight(1 + rng.Int32N(1<<31-1))
		if rng.IntN(3) == 0 {
			w = Weight(1 + rng.IntN(9))
		}
		edges[i] = Edge{U: VID(rng.IntN(n)), V: VID(rng.IntN(n)), W: w}
	}
	return MustNew(n, edges)
}

// TestAvgWeightCachedMatchesScan: for graphs from every builder and reader,
// AvgWeight answers from the value cached at construction, and that value
// equals the float scan bit for bit. A struct-literal Graph has no cache
// and answers with the scan.
func TestAvgWeightCachedMatchesScan(t *testing.T) {
	check := func(name string, g *Graph, wantCached bool) {
		t.Helper()
		if cached := g.meanOf != nil; cached != wantCached {
			t.Fatalf("%s: cached %v, want %v", name, cached, wantCached)
		}
		got, want := g.AvgWeight(), scanMeanWeight(g)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: AvgWeight %v (%#x), scan %v (%#x)", name, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for seed := uint64(0); seed < 20; seed++ {
		g := randomWeighted(seed)
		check("New", g, true)
		check("Symmetrize", g.Symmetrize(), true)

		var buf bytes.Buffer
		if err := WriteDIMACS(&buf, g); err != nil {
			t.Fatal(err)
		}
		d, err := ReadDIMACS(&buf)
		if err != nil {
			t.Fatal(err)
		}
		check("ReadDIMACS", d, true)

		buf.Reset()
		if err := WriteTSV(&buf, g); err != nil {
			t.Fatal(err)
		}
		tsv, err := ReadTSV(&buf)
		if err != nil {
			t.Fatal(err)
		}
		check("ReadTSV", tsv, true)

		lit := &Graph{RowPtr: g.RowPtr, Col: g.Col, Wgt: g.Wgt}
		check("struct literal", lit, false)
	}

	mm, err := ReadMatrixMarket(strings.NewReader(`%%MatrixMarket matrix coordinate integer general
3 3 4
1 2 2147483647
2 3 7
3 1 2147483646
1 3 3
`))
	if err != nil {
		t.Fatal(err)
	}
	check("ReadMatrixMarket", mm, true)

	empty := MustNew(3, nil)
	check("New edgeless", empty, false)
	if empty.AvgWeight() != 0 {
		t.Fatalf("edgeless AvgWeight = %v, want 0", empty.AvgWeight())
	}
}

// TestAvgWeightNeverStale: a Graph whose Wgt is reassigned after
// construction (resliced, or replaced by another slice) answers for the new
// weights, not with the value cached for the old ones.
func TestAvgWeightNeverStale(t *testing.T) {
	g := diamond() // weights 2, 5, 4, 1: mean 3
	if got := g.AvgWeight(); got != 3 {
		t.Fatalf("AvgWeight = %v, want 3", got)
	}
	h := *g
	h.Wgt = h.Wgt[:2] // 2, 5
	if got := h.AvgWeight(); got != 3.5 {
		t.Fatalf("resliced AvgWeight = %v, want 3.5", got)
	}
	h.Wgt = []Weight{8, 8, 8, 8}
	if got := h.AvgWeight(); got != 8 {
		t.Fatalf("replaced AvgWeight = %v, want 8", got)
	}
	if got := g.AvgWeight(); got != 3 {
		t.Fatalf("original AvgWeight = %v after copies changed, want 3", got)
	}
}
