package sssp

import (
	"container/heap"
	"time"

	"energysssp/internal/graph"
)

// Dijkstra computes single-source shortest paths with a binary heap. It is
// the sequential, work-optimal reference every parallel solver is
// differential-tested against. Options are accepted for interface symmetry
// and ignored: Dijkstra charges nothing — it stands in for a CPU-side
// oracle, not a GPU kernel — so its simulated time and energy are zero.
func Dijkstra(g *graph.Graph, src graph.VID, _ *Options) (Result, error) {
	if err := checkSource(g, src); err != nil {
		return Result{}, err
	}
	start := time.Now()
	dist := newDist(g.NumVertices(), src)
	pq := &pqueue{items: []pqItem{{v: src, d: 0}}}
	var res Result
	for pq.Len() > 0 {
		it := heap.Pop(pq).(pqItem)
		if it.d != dist[it.v] {
			continue // stale heap entry
		}
		res.Iterations++
		vs, ws := g.Neighbors(it.v)
		for i, v := range vs {
			res.EdgesRelaxed++
			nd := it.d + graph.Dist(ws[i])
			if nd < dist[v] {
				dist[v] = nd
				res.Updates++
				heap.Push(pq, pqItem{v: v, d: nd})
			}
		}
	}
	res.Dist, res.WallTime = dist, time.Since(start)
	res.Reached = countReached(dist)
	return res, nil
}

type pqItem struct {
	v graph.VID
	d graph.Dist
}

type pqueue struct{ items []pqItem }

func (q *pqueue) Len() int           { return len(q.items) }
func (q *pqueue) Less(i, j int) bool { return q.items[i].d < q.items[j].d }
func (q *pqueue) Swap(i, j int)      { q.items[i], q.items[j] = q.items[j], q.items[i] }
func (q *pqueue) Push(x interface{}) { q.items = append(q.items, x.(pqItem)) }
func (q *pqueue) Pop() interface{} {
	last := len(q.items) - 1
	it := q.items[last]
	q.items = q.items[:last]
	return it
}
