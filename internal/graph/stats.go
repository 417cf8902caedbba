package graph

import "fmt"

// Stats summarizes the structural characteristics reported in the paper's
// Table 1 plus a few quantities (diameter estimate, weight range) that the
// experiment harness uses to sanity-check the synthetic datasets.
type Stats struct {
	Name       string
	Vertices   int
	Edges      int64
	MinDegree  int64
	MaxDegree  int64
	AvgDegree  float64
	MinWeight  Weight
	MaxWeight  Weight
	AvgWeight  float64
	Isolated   int  // vertices with out-degree 0
	EccSample  Dist // weighted eccentricity of vertex 0 within its component
	HopsSample int  // unweighted eccentricity (BFS hops) of vertex 0
	Reachable  int  // vertices reachable from vertex 0
	Components int  // weakly connected components
	LargestCC  int  // size of the largest weakly connected component
}

// ComputeStats gathers Stats for g. BFS-based fields use vertex 0 as the
// probe; for the generated datasets vertex 0 is always inside the giant
// component.
func (g *Graph) ComputeStats() Stats {
	s := Stats{
		Name:      g.name,
		Vertices:  g.NumVertices(),
		Edges:     g.NumEdges(),
		MinDegree: 1 << 62,
		MinWeight: 1<<31 - 1,
	}
	if s.Vertices == 0 {
		s.MinDegree = 0
		s.MinWeight = 0
		return s
	}
	var wsum float64
	for u := 0; u < s.Vertices; u++ {
		d := g.OutDegree(VID(u))
		if d < s.MinDegree {
			s.MinDegree = d
		}
		if d > s.MaxDegree {
			s.MaxDegree = d
		}
		if d == 0 {
			s.Isolated++
		}
	}
	for _, w := range g.Wgt {
		if w < s.MinWeight {
			s.MinWeight = w
		}
		if w > s.MaxWeight {
			s.MaxWeight = w
		}
		wsum += float64(w)
	}
	if len(g.Wgt) == 0 {
		s.MinWeight = 0
	} else {
		s.AvgWeight = wsum / float64(len(g.Wgt))
	}
	s.AvgDegree = float64(s.Edges) / float64(s.Vertices)

	hops, reach := g.BFSHops(0)
	s.HopsSample = hops
	s.Reachable = reach
	s.EccSample = g.weightedEcc(0)
	s.Components, s.LargestCC = g.WeakComponents()
	return s
}

// AvgWeight returns the mean edge weight (0 for an edgeless graph). The
// partitioned far queue's first boundary is initialized to this value, per
// Section 4.6 of the paper. Graphs from the builders answer from the value
// cached at construction; any other answers with a fresh scan.
func (g *Graph) AvgWeight() float64 {
	if len(g.Wgt) == 0 {
		return 0
	}
	if g.meanOf == &g.Wgt[0] && g.meanN == len(g.Wgt) {
		return g.meanW
	}
	return meanWeight(g.Wgt)
}

// cacheMeanWeight records meanWeight(g.Wgt) for AvgWeight. Builders call it
// once, after the last write to Wgt and before returning the graph.
func (g *Graph) cacheMeanWeight() {
	if len(g.Wgt) == 0 {
		return
	}
	g.meanW, g.meanOf, g.meanN = meanWeight(g.Wgt), &g.Wgt[0], len(g.Wgt)
}

// meanWeight is the float mean of w, summed in order.
func meanWeight(w []Weight) float64 {
	var sum float64
	for _, x := range w {
		sum += float64(x)
	}
	return sum / float64(len(w))
}

// MaxDegree returns the maximum out-degree.
func (g *Graph) MaxDegree() int64 {
	var max int64
	for u := 0; u < g.NumVertices(); u++ {
		if d := g.OutDegree(VID(u)); d > max {
			max = d
		}
	}
	return max
}

// BFSHops performs an unweighted BFS from src and returns the maximum hop
// count reached and the number of reachable vertices (including src).
func (g *Graph) BFSHops(src VID) (maxHops, reachable int) {
	n := g.NumVertices()
	if n == 0 {
		return 0, 0
	}
	level := make([]int32, n)
	for i := range level {
		level[i] = -1
	}
	level[src] = 0
	cur := []VID{src}
	reachable = 1
	for len(cur) > 0 {
		var next []VID
		for _, u := range cur {
			vs, _ := g.Neighbors(u)
			for _, v := range vs {
				if level[v] < 0 {
					level[v] = level[u] + 1
					if int(level[v]) > maxHops {
						maxHops = int(level[v])
					}
					reachable++
					next = append(next, v)
				}
			}
		}
		cur = next
	}
	return maxHops, reachable
}

// weightedEcc runs a sequential Dijkstra-like scan (via a simple binary
// heap) to find the maximum finite distance from src. Kept private: the
// public solvers live in internal/sssp; this copy avoids an import cycle.
func (g *Graph) weightedEcc(src VID) Dist {
	n := g.NumVertices()
	if n == 0 {
		return 0
	}
	dist := make([]Dist, n)
	for i := range dist {
		dist[i] = Inf
	}
	dist[src] = 0
	h := &distHeap{items: []heapItem{{v: src, d: 0}}}
	var ecc Dist
	for h.len() > 0 {
		it := h.pop()
		if it.d != dist[it.v] {
			continue
		}
		if it.d > ecc {
			ecc = it.d
		}
		vs, ws := g.Neighbors(it.v)
		for i, v := range vs {
			nd := it.d + Dist(ws[i])
			if nd < dist[v] {
				dist[v] = nd
				h.push(heapItem{v: v, d: nd})
			}
		}
	}
	return ecc
}

// WeakComponents computes the number of weakly connected components and the
// size of the largest one using union-find with path halving.
func (g *Graph) WeakComponents() (count, largest int) {
	n := g.NumVertices()
	if n == 0 {
		return 0, 0
	}
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for u := 0; u < n; u++ {
		vs, _ := g.Neighbors(VID(u))
		ru := find(int32(u))
		for _, v := range vs {
			rv := find(v)
			if ru != rv {
				parent[rv] = ru
			}
		}
	}
	size := make(map[int32]int, 64)
	for i := 0; i < n; i++ {
		size[find(int32(i))]++
	}
	for _, s := range size {
		if s > largest {
			largest = s
		}
	}
	return len(size), largest
}

type heapItem struct {
	v VID
	d Dist
}

type distHeap struct{ items []heapItem }

func (h *distHeap) len() int { return len(h.items) }

func (h *distHeap) push(it heapItem) {
	h.items = append(h.items, it)
	i := len(h.items) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.items[p].d <= h.items[i].d {
			break
		}
		h.items[p], h.items[i] = h.items[i], h.items[p]
		i = p
	}
}

func (h *distHeap) pop() heapItem {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < last && h.items[l].d < h.items[s].d {
			s = l
		}
		if r < last && h.items[r].d < h.items[s].d {
			s = r
		}
		if s == i {
			break
		}
		h.items[i], h.items[s] = h.items[s], h.items[i]
		i = s
	}
	return top
}

// String renders Stats as a Table-1-style row block.
func (s Stats) String() string {
	return fmt.Sprintf("%s: n=%d m=%d deg[min=%d avg=%.2f max=%d] w[min=%d avg=%.1f max=%d] cc=%d largest=%d",
		s.Name, s.Vertices, s.Edges, s.MinDegree, s.AvgDegree, s.MaxDegree,
		s.MinWeight, s.AvgWeight, s.MaxWeight, s.Components, s.LargestCC)
}
