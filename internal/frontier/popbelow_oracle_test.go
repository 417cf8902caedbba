package frontier

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"energysssp/internal/graph"
	"energysssp/internal/parallel"
)

// popBelowBranchy is PopBelow as it was written before its keep/pop/drop
// decision was predicated: one data-dependent branch per entry. It is the
// oracle of TestPopBelowMatchesBranchyOracle.
func popBelowBranchy(q *Partitioned, thr graph.Dist, dist []graph.Dist, out []graph.VID) []graph.VID {
	for i := 0; i < len(q.parts); i++ {
		if q.lower(i) >= thr {
			break
		}
		part := &q.parts[i]
		q.scanned += len(part.entries)
		keep := part.entries[:0]
		for _, e := range part.entries {
			cur := dist[e.V]
			if cur != e.D {
				q.size--
				continue
			}
			if cur <= thr {
				out = append(out, e.V)
				q.size--
			} else {
				keep = append(keep, e)
			}
		}
		part.entries = keep
	}
	q.CompactFront()
	return out
}

// pushOneAtATime is Push as it was written before runs of entries were
// placed together: one binary search over the bounds and one append per
// entry. It is the push oracle of TestPopBelowMatchesBranchyOracle.
func pushOneAtATime(q *Partitioned, es []Entry) {
	for _, e := range es {
		lo, hi := 0, len(q.parts)-1
		for lo < hi {
			mid := (lo + hi) / 2
			if e.D <= q.parts[mid].upper {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		q.parts[lo].entries = append(q.parts[lo].entries, e)
		q.size++
	}
}

// checkPushAgainstOracle pushes es onto got and, one at a time, onto a
// clone of got, and fails unless the two hold the same entries in the same
// order, partition by partition.
func checkPushAgainstOracle(t *testing.T, what string, got *Partitioned, es []Entry) {
	t.Helper()
	want := clonePartitioned(got)
	pushOneAtATime(want, es)
	got.Push(es)
	if !samePartitioned(got, want) {
		t.Fatalf("%s: pushing %d entries placed them differently from one-at-a-time placement", what, len(es))
	}
}

// clonePartitioned deep-copies q, so the oracle and the code under test
// start from the same queue without sharing entry arrays.
func clonePartitioned(q *Partitioned) *Partitioned {
	c := &Partitioned{size: q.size, scanned: q.scanned, parts: make([]partition, len(q.parts))}
	for i, p := range q.parts {
		c.parts[i] = partition{upper: p.upper, entries: slices.Clone(p.entries)}
	}
	return c
}

// samePartitioned reports whether a and b hold the same bounds and the same
// retained entries, in order, partition by partition.
func samePartitioned(a, b *Partitioned) bool {
	if a.size != b.size || len(a.parts) != len(b.parts) {
		return false
	}
	for i := range a.parts {
		if a.parts[i].upper != b.parts[i].upper || !slices.Equal(a.parts[i].entries, b.parts[i].entries) {
			return false
		}
	}
	return true
}

// checkPopAgainstOracle pops got at thr and the branching oracle on a
// clone of got, and fails unless the two agree on the popped order, the
// retained entries in order, Len and ScannedAndReset. It returns got's
// extended out.
func checkPopAgainstOracle(t *testing.T, what string, got *Partitioned, thr graph.Dist, dist []graph.Dist, gotOut []graph.VID) []graph.VID {
	t.Helper()
	want := clonePartitioned(got)
	wantOut := popBelowBranchy(want, thr, dist, slices.Clone(gotOut))
	gotOut = got.PopBelow(thr, dist, gotOut)
	if !slices.Equal(gotOut, wantOut) {
		t.Fatalf("%s thr %d: popped %d vertices, oracle %d, or in another order", what, thr, len(gotOut), len(wantOut))
	}
	if !samePartitioned(got, want) {
		t.Fatalf("%s thr %d: retained entries differ from the oracle", what, thr)
	}
	if got.Len() != want.Len() {
		t.Fatalf("%s: Len %d, oracle %d", what, got.Len(), want.Len())
	}
	if gs, ws := got.ScannedAndReset(), want.ScannedAndReset(); gs != ws {
		t.Fatalf("%s: scanned %d, oracle %d", what, gs, ws)
	}
	return gotOut
}

// TestPopBelowMatchesBranchyOracle drives the predicated PopBelow and the
// branching oracle through the same random histories: batched pushes
// (duplicates of one vertex included, runs of nearby distances that share a
// partition mixed with scattered ones), stale entries made by lowering
// distances, monotone boundary updates, and pops at random thresholds, at
// the boundaries and at graph.Inf. After every push the queue must match
// one-at-a-time placement of the same entries; after every pop the two
// must agree on the popped order, the retained entries in order, Len and
// ScannedAndReset. Every history runs with the queue scanning on pools of
// 1 to 4 workers, and so do the partitions on both sides of PoolScanMin
// (popBelowLongPartitions).
func TestPopBelowMatchesBranchyOracle(t *testing.T) {
	t.Run("histories", popBelowHistories)
	t.Run("long-partitions", popBelowLongPartitions)
}

func popBelowHistories(t *testing.T) {
	for ps := 1; ps <= 4; ps++ {
		pool := parallel.NewPool(ps)
		for seed := uint64(0); seed < 200; seed++ {
			rng := rand.New(rand.NewPCG(seed, seed^0x5eed))
			n := 1 + rng.IntN(120)
			dist := make([]graph.Dist, n)
			for v := range dist {
				dist[v] = graph.Inf
			}
			got := GetPartitioned(graph.Dist(1 + rng.Int64N(60)))
			got.UsePool(pool)
			var gotOut []graph.VID
			if rng.IntN(2) == 0 {
				// A caller buffer with spare room and a live prefix.
				gotOut = make([]graph.VID, 3, 3+rng.IntN(8))
				gotOut[0], gotOut[1], gotOut[2] = 7, 8, 9
			}
			for step := 0; step < 40; step++ {
				switch op := rng.IntN(5); {
				case op <= 1:
					var es []Entry
					base := graph.Dist(1 + rng.Int64N(400))
					for k := rng.IntN(30); k > 0; k-- {
						v := graph.VID(rng.IntN(n))
						d := graph.Dist(1 + rng.Int64N(400))
						if rng.IntN(2) == 0 {
							d = base + rng.Int64N(6)
						}
						if d < dist[v] || rng.IntN(4) == 0 {
							dist[v] = d // a lowered distance leaves older entries stale
						}
						es = append(es, Entry{v, dist[v]})
					}
					checkPushAgainstOracle(t, fmt.Sprintf("pool %d seed %d step %d", ps, seed, step), got, es)
				case op == 2:
					pi := rng.IntN(got.NumPartitions())
					lo, up := got.lower(pi), got.Bound(pi)
					if up == graph.Inf {
						up = lo + 500
					}
					if up-lo > 1 {
						if err := got.SetBound(pi, lo+1+rng.Int64N(int64(up-lo-1))); err != nil {
							t.Fatal(err)
						}
					}
				default:
					var thr graph.Dist
					switch rng.IntN(4) {
					case 0:
						thr = graph.Inf
					case 1:
						thr = got.Bound(rng.IntN(got.NumPartitions()))
					default:
						thr = graph.Dist(rng.Int64N(450))
					}
					what := fmt.Sprintf("pool %d seed %d step %d", ps, seed, step)
					gotOut = checkPopAgainstOracle(t, what, got, thr, dist, gotOut)
					if rng.IntN(2) == 0 {
						gotOut = gotOut[:0]
					}
				}
			}
			got.Release()
		}
		pool.Close()
	}
}

// popBelowLongPartitions runs PopBelow on partitions just below, at and
// above PoolScanMin entries, with duplicates and stale entries, at pool
// sizes 1 to 4: the pops must match the branching oracle, and exactly the
// partitions of at least the cutoff must be scanned on a pool of more than
// one worker.
func popBelowLongPartitions(t *testing.T) {
	const n = 4096
	sizes := []int{PoolScanMin - 1, PoolScanMin, PoolScanMin + 1, 2*PoolScanMin + 3}
	for ps := 1; ps <= 4; ps++ {
		pool := parallel.NewPool(ps)
		var stats parallel.PoolStats
		pool.Observe(&stats)
		for si, size := range sizes {
			rng := rand.New(rand.NewPCG(uint64(ps), uint64(si)))
			dist := make([]graph.Dist, n)
			for v := range dist {
				dist[v] = graph.Dist(1 + rng.Int64N(1000))
			}
			q := GetPartitioned(1000) // every entry lands in partition 0
			q.UsePool(pool)
			es := make([]Entry, size)
			for k := range es {
				v := graph.VID(rng.IntN(n))
				es[k] = Entry{v, dist[v]}
				if rng.IntN(3) == 0 && dist[v] > 1 {
					dist[v]-- // leaves the entry just made stale
				}
			}
			checkPushAgainstOracle(t, fmt.Sprintf("pool %d size %d", ps, size), q, es)
			var out []graph.VID
			for round := 0; q.Len() > 0; round++ {
				scanned := q.PartSize(0)
				launches := stats.Launches()
				thr := graph.Dist(250 * (round + 1))
				if round == 3 {
					thr = graph.Inf
				}
				what := fmt.Sprintf("pool %d size %d round %d", ps, size, round)
				out = checkPopAgainstOracle(t, what, q, thr, dist, out[:rng.IntN(len(out)+1)])
				want := int64(0)
				if ps > 1 && scanned >= PoolScanMin {
					want = 1
				}
				if got := stats.Launches() - launches; got != want {
					t.Fatalf("%s: %d pool launches scanning %d entries, want %d", what, got, scanned, want)
				}
			}
			q.Release()
		}
		pool.Unobserve(&stats)
		pool.Close()
	}
}
