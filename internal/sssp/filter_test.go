package sssp

import (
	"fmt"
	"testing"

	"energysssp/internal/gen"
	"energysssp/internal/graph"
	"energysssp/internal/parallel"
)

// TestFilterDedupsAfterJoin checks the filter stage white-box on the
// parallel path. At pool sizes 2 and 4, with every frontier above one chunk
// sent to the pool, on a scale-free and a road-like graph driven from one
// source to convergence, after every Advance:
//   - the worker update lists hold X² entries, one per successful
//     relaxation;
//   - Out has no duplicates;
//   - Out is exactly the set of vertices whose distance fell;
//   - Out's order is the first occurrence of each vertex across the worker
//     update lists, taken in worker order;
//   - every dedup bit is clear again.
func TestFilterDedupsAfterJoin(t *testing.T) {
	graphs := []*graph.Graph{
		gen.RMAT(10, 8, 0.57, 0.19, 0.19, 1, 99, 3),
		gen.Road(40, 50, 0.1, 1, 100, 7),
	}
	for gi, g := range graphs {
		n := g.NumVertices()
		for _, ps := range []int{2, 4} {
			pool := parallel.NewPool(ps)
			dist := newDist(n, 0)
			before := make([]graph.Dist, n)
			kn := NewKernels(g, pool, nil, dist)
			kn.seqMaxFront = 0
			name := fmt.Sprintf("graph %d pool %d", gi, ps)
			front := []graph.VID{0}
			parallelAdvances := 0
			for it := 0; len(front) > 0; it++ {
				copy(before, dist)
				adv := kn.Advance(front)
				if !adv.Sequential {
					parallelAdvances++
				}
				listed := 0
				var want []graph.VID
				first := make(map[graph.VID]bool)
				for _, b := range kn.sc.bufs[:ps] {
					listed += len(b)
					for _, v := range b {
						if !first[v] {
							first[v] = true
							want = append(want, v)
						}
					}
				}
				if listed != adv.X2 {
					t.Fatalf("%s iter %d: update lists hold %d entries, X2 %d", name, it, listed, adv.X2)
				}

				inOut := make(map[graph.VID]bool, len(adv.Out))
				for _, v := range adv.Out {
					if inOut[v] {
						t.Fatalf("%s iter %d: vertex %d twice in Out", name, it, v)
					}
					inOut[v] = true
				}
				for v := 0; v < n; v++ {
					if fell := dist[v] < before[v]; fell != inOut[graph.VID(v)] {
						t.Fatalf("%s iter %d: vertex %d distance fell %v, in Out %v", name, it, v, fell, inOut[graph.VID(v)])
					}
				}

				if len(adv.Out) != len(want) {
					t.Fatalf("%s iter %d: |Out| %d, first occurrences %d", name, it, len(adv.Out), len(want))
				}
				for i := range want {
					if adv.Out[i] != want[i] {
						t.Fatalf("%s iter %d: Out[%d] = %d, first occurrence in worker order is %d", name, it, i, adv.Out[i], want[i])
					}
				}

				seen := kn.sc.seen
				for i := 0; i < seen.Len(); i++ {
					if seen.SetPlainBit(i) != 1 {
						t.Fatalf("%s iter %d: dedup bit %d left set", name, it, i)
					}
					seen.Clear(i)
				}
				front = append(front[:0], adv.Out...)
			}
			if parallelAdvances == 0 {
				t.Errorf("%s: no advance ran on a parallel path", name)
			}
			kn.Release()
			pool.Close()
		}
	}
}
