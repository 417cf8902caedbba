// Package graph provides a compressed-sparse-row (CSR) weighted graph, the
// substrate on which every SSSP algorithm in this repository operates, along
// with builders, structural queries, traversals, and file I/O for standard
// interchange formats (DIMACS shortest-path ".gr", Matrix Market, TSV edge
// lists).
//
// Vertices are dense int32 ids in [0, N). Edge weights are positive int32;
// path distances are int64 so even paper-scale road networks cannot
// overflow. The layout is read-only after construction, which is what makes
// the parallel relaxation kernels race-free on the topology.
package graph

import (
	"errors"
	"fmt"
)

// VID is a vertex identifier.
type VID = int32

// Weight is an edge weight. Weights must be positive for the delta-stepping
// family of algorithms to be correct.
type Weight = int32

// Dist is a path distance.
type Dist = int64

// Inf is the distance assigned to unreachable vertices. It is far below
// MaxInt64 so that Inf + any weight cannot overflow.
const Inf Dist = 1 << 60

// Edge is one directed, weighted edge used during construction.
type Edge struct {
	U, V VID
	W    Weight
}

// Graph is an immutable weighted digraph in CSR form. The out-neighbors of u
// are Col[RowPtr[u]:RowPtr[u+1]] with weights Wgt at the same positions.
type Graph struct {
	RowPtr []int64
	Col    []VID
	Wgt    []Weight

	name string
	// meanW is meanWeight(Wgt), computed once by the builder (New,
	// through which every other builder and reader goes) before the
	// graph is shared, so concurrent readers need no
	// synchronisation. meanOf and meanN are the base and length of the
	// weight slice it was computed for; AvgWeight trusts meanW only while
	// Wgt is still that slice, and scans otherwise (a struct-literal
	// Graph, or one whose Wgt was reassigned).
	meanW  float64
	meanOf *Weight
	meanN  int
}

// ErrBadGraph reports a structurally invalid graph or edge set.
var ErrBadGraph = errors.New("graph: invalid structure")

// New builds a CSR graph with n vertices from the given directed edges.
// Edges are grouped by source (counting sort), so construction is O(n+m).
// Self-loops are kept (they are harmless for SSSP); parallel edges are kept
// as-is. Returns an error for out-of-range endpoints or non-positive
// weights.
func New(n int, edges []Edge) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("%w: negative vertex count %d", ErrBadGraph, n)
	}
	g := &Graph{
		RowPtr: make([]int64, n+1),
		Col:    make([]VID, len(edges)),
		Wgt:    make([]Weight, len(edges)),
	}
	for _, e := range edges {
		if e.U < 0 || int(e.U) >= n || e.V < 0 || int(e.V) >= n {
			return nil, fmt.Errorf("%w: edge (%d,%d) out of range [0,%d)", ErrBadGraph, e.U, e.V, n)
		}
		if e.W <= 0 {
			return nil, fmt.Errorf("%w: edge (%d,%d) has non-positive weight %d", ErrBadGraph, e.U, e.V, e.W)
		}
		g.RowPtr[e.U+1]++
	}
	for i := 0; i < n; i++ {
		g.RowPtr[i+1] += g.RowPtr[i]
	}
	next := make([]int64, n)
	copy(next, g.RowPtr[:n])
	for _, e := range edges {
		p := next[e.U]
		next[e.U]++
		g.Col[p] = e.V
		g.Wgt[p] = e.W
	}
	g.cacheMeanWeight()
	return g, nil
}

// MustNew is New but panics on error; intended for generators and tests
// whose inputs are valid by construction.
func MustNew(n int, edges []Edge) *Graph {
	g, err := New(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// NumVertices reports the number of vertices.
func (g *Graph) NumVertices() int { return len(g.RowPtr) - 1 }

// NumEdges reports the number of directed edges (arcs).
func (g *Graph) NumEdges() int64 { return g.RowPtr[len(g.RowPtr)-1] }

// Name returns an optional human-readable label set with SetName.
func (g *Graph) Name() string { return g.name }

// SetName attaches a label used in experiment output.
func (g *Graph) SetName(name string) { g.name = name }

// OutDegree reports the out-degree of u.
func (g *Graph) OutDegree(u VID) int64 { return g.RowPtr[u+1] - g.RowPtr[u] }

// Neighbors returns the out-neighbor and weight slices of u. The slices
// alias the graph's storage and must not be modified.
func (g *Graph) Neighbors(u VID) ([]VID, []Weight) {
	lo, hi := g.RowPtr[u], g.RowPtr[u+1]
	return g.Col[lo:hi], g.Wgt[lo:hi]
}

// Edges reconstructs the edge list in CSR order. Intended for writers and
// tests, not hot paths.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.NumEdges())
	for u := 0; u < g.NumVertices(); u++ {
		vs, ws := g.Neighbors(VID(u))
		for i, v := range vs {
			out = append(out, Edge{U: VID(u), V: v, W: ws[i]})
		}
	}
	return out
}

// Validate checks CSR structural invariants: monotone row pointers, in-range
// columns, positive weights. Returns nil for a well-formed graph.
func (g *Graph) Validate() error {
	n := g.NumVertices()
	if len(g.RowPtr) == 0 {
		return fmt.Errorf("%w: empty row pointer array", ErrBadGraph)
	}
	if g.RowPtr[0] != 0 {
		return fmt.Errorf("%w: RowPtr[0] = %d", ErrBadGraph, g.RowPtr[0])
	}
	for i := 0; i < n; i++ {
		if g.RowPtr[i+1] < g.RowPtr[i] {
			return fmt.Errorf("%w: RowPtr not monotone at %d", ErrBadGraph, i)
		}
	}
	if g.RowPtr[n] != int64(len(g.Col)) || len(g.Col) != len(g.Wgt) {
		return fmt.Errorf("%w: RowPtr[n]=%d, len(Col)=%d, len(Wgt)=%d", ErrBadGraph, g.RowPtr[n], len(g.Col), len(g.Wgt))
	}
	for i, v := range g.Col {
		if v < 0 || int(v) >= n {
			return fmt.Errorf("%w: Col[%d]=%d out of range", ErrBadGraph, i, v)
		}
		if g.Wgt[i] <= 0 {
			return fmt.Errorf("%w: Wgt[%d]=%d non-positive", ErrBadGraph, i, g.Wgt[i])
		}
	}
	return nil
}

// Equal reports whether two graphs have identical CSR contents.
func (g *Graph) Equal(h *Graph) bool {
	if g.NumVertices() != h.NumVertices() || g.NumEdges() != h.NumEdges() {
		return false
	}
	for i := range g.RowPtr {
		if g.RowPtr[i] != h.RowPtr[i] {
			return false
		}
	}
	for i := range g.Col {
		if g.Col[i] != h.Col[i] || g.Wgt[i] != h.Wgt[i] {
			return false
		}
	}
	return true
}

// String implements fmt.Stringer with a short structural summary.
func (g *Graph) String() string {
	name := g.name
	if name == "" {
		name = "graph"
	}
	return fmt.Sprintf("%s{n=%d m=%d}", name, g.NumVertices(), g.NumEdges())
}
