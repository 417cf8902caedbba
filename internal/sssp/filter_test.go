package sssp

import (
	"fmt"
	"math/rand/v2"
	"slices"
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
//   - the mark holds the call's epoch exactly at the vertices of Out.
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

				epoch := kn.sc.epoch
				for v := 0; v < n; v++ {
					if stamped := kn.sc.mark[v] == epoch; stamped != inOut[graph.VID(v)] {
						t.Fatalf("%s iter %d: vertex %d stamped with the epoch %v, in Out %v", name, it, v, stamped, inOut[graph.VID(v)])
					}
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

// firstOccurrences is the filter's oracle: the first occurrence of each
// vertex across lists, taken in order.
func firstOccurrences(lists [][]graph.VID) []graph.VID {
	var want []graph.VID
	first := make(map[graph.VID]bool)
	for _, b := range lists {
		for _, v := range b {
			if !first[v] {
				first[v] = true
				want = append(want, v)
			}
		}
	}
	return want
}

// TestFilterEpochWrap drives the filter white-box through more than two
// epoch wraps on one Kernels and checks Out against the first-occurrence
// oracle on every call. Vertex 0 is listed only on the calls that take
// epoch 1 (the first call and the first after each wrap) and vertex 1 only
// on those that take epoch 255, so a wrap that reused a stale stamp would
// drop them; the other entries are random, with duplicates within and
// across the three worker lists.
func TestFilterEpochWrap(t *testing.T) {
	const n, calls, workers = 300, 600, 3
	g := line(n)
	pool := parallel.NewPool(workers)
	defer pool.Close()
	kn := NewKernels(g, pool, nil, newDist(n, 0))
	defer kn.Release()
	rng := rand.New(rand.NewPCG(5, 29))
	wraps := 0
	for c := 0; c < calls; c++ {
		lists := kn.sc.bufs[:workers]
		for w := range lists {
			lists[w] = lists[w][:0]
			for k := rng.IntN(40); k > 0; k-- {
				lists[w] = append(lists[w], graph.VID(2+rng.IntN(n-2)))
			}
		}
		switch c % 255 {
		case 0:
			lists[c%workers] = append(lists[c%workers], 0, 0)
		case 254:
			lists[2] = append(lists[2], 1)
			lists[0] = append(lists[0], 1)
		}
		want := firstOccurrences(lists)
		before := kn.sc.epoch
		out := kn.filter(workers)
		if kn.sc.epoch < before {
			wraps++
		}
		if !slices.Equal(out, want) {
			t.Fatalf("call %d (epoch %d): Out = %v, want first occurrences %v", c, kn.sc.epoch, out, want)
		}
	}
	if wraps < 2 {
		t.Fatalf("%d filter calls wrapped the epoch %d times, want at least 2", calls, wraps)
	}
}

// TestFilterScratchReuseAcrossSizes runs one scratch through a large, a
// small and again the large graph, several sources each (past an epoch
// wrap), advancing every source to convergence. The filter must match the
// first-occurrence oracle after every advance and the distances must match
// Dijkstra: marks stamped for one graph must never count for the next.
func TestFilterScratchReuseAcrossSizes(t *testing.T) {
	large := gen.Road(30, 40, 0.1, 1, 100, 3)
	small := gen.Road(8, 9, 0.1, 1, 100, 5)
	pool := parallel.NewPool(2)
	defer pool.Close()
	sc := getScratch(large.NumVertices(), pool.Size())
	defer putScratch(sc)
	calls := 0
	for gi, g := range []*graph.Graph{large, small, large} {
		n := g.NumVertices()
		for src := graph.VID(0); src < 5; src++ {
			dist := newDist(n, src)
			kn := NewKernels(g, pool, nil, dist)
			putScratch(kn.sc)
			kn.sc = sc
			front := []graph.VID{src}
			for len(front) > 0 {
				adv := kn.Advance(front)
				calls++
				want := firstOccurrences(sc.bufs[:pool.Size()])
				if !slices.Equal(adv.Out, want) {
					t.Fatalf("graph %d src %d: Out = %v, want first occurrences %v", gi, src, adv.Out, want)
				}
				front = append(front[:0], adv.Out...)
			}
			kn.sc = nil
			oracle, err := Dijkstra(g, src, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(dist, oracle.Dist) {
				t.Fatalf("graph %d src %d: distances differ from Dijkstra", gi, src)
			}
		}
	}
	if calls <= 255 {
		t.Fatalf("%d filter calls, want more than 255 to cross an epoch wrap", calls)
	}
}
