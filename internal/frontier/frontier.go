// Package frontier provides the work-queue structures of the near-far SSSP
// family: the flat far queue of the Gunrock baseline and the recursively
// partitioned far queue of the paper's self-tuning algorithm (Section 4.6),
// whose partition boundaries shift only monotonically downward.
//
// Entries are lazily deleted: each entry records the vertex distance at
// insertion time, and an entry whose recorded distance no longer matches
// the vertex's current distance is stale and dropped at pop time. Every
// successful relaxation re-enqueues its vertex, so dropping stale entries
// never loses work — this is the invariant that keeps the algorithm correct
// no matter how the delta threshold moves.
package frontier

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"energysssp/internal/graph"
	"energysssp/internal/parallel"
)

// PoolScanMin is the smallest scan, in items, that the rebalance stage runs
// on a pool of more than one worker: a Partitioned.PopBelow partition scan
// here, and the bisect-frontier scan of the sssp kernels. Smaller scans run
// inline. Both scans are bound by their random dist reads, so a second
// worker pays off only on long scans. Timed on a 2-vCPU Xeon VM (go1.24,
// random entries over a 262k-vertex dist array, 2 workers, three runs per
// size), the pool PopBelow was slower than the inline one at 8Ki and 12Ki
// entries, mixed at 16Ki and 20–40% faster from 20Ki on; the pool Bisect
// was slower up to 16Ki, level at 20–24Ki and 20–25% faster from 32Ki on.
// Every scan of the road workloads stays below 4Ki items. The wiki
// workload's far-queue partitions and filter outputs reach 100k–170k
// items, and over 70% of its scanned items lie in scans of at least 32Ki.
const PoolScanMin = 1 << 15

// Entry is a far-queue element: a vertex and its distance at insertion.
type Entry struct {
	V graph.VID
	D graph.Dist
}

// Flat is the baseline's unpartitioned far queue. Extraction scans every
// entry — exactly the cost profile of Gunrock's bisect-far-queue stage.
// A running minimum of the recorded distances is maintained on Push and
// refreshed over the retained entries during every extraction, so MinDist
// is O(1) instead of a second full scan per phase change (the old
// O(n·phases) rescan pathology).
type Flat struct {
	entries []Entry
	// runMin is the smallest recorded distance present in entries
	// (meaningless when empty). Stale entries keep it a lower bound on
	// the true fresh minimum until the next extraction compacts them out.
	runMin graph.Dist
}

// Len reports the number of entries (including not-yet-detected stale ones).
func (q *Flat) Len() int { return len(q.entries) }

// Push appends an entry recorded at distance d.
func (q *Flat) Push(v graph.VID, d graph.Dist) {
	if len(q.entries) == 0 || d < q.runMin {
		q.runMin = d
	}
	q.entries = append(q.entries, Entry{V: v, D: d})
}

// ExtractBelow scans the whole queue, appends to out every fresh vertex
// whose current distance is <= thr, retains fresh entries above the
// threshold, and drops stale entries. It returns the extended out slice and
// the number of entries scanned (the work charged to the simulated
// far-queue kernel).
func (q *Flat) ExtractBelow(thr graph.Dist, dist []graph.Dist, out []graph.VID) ([]graph.VID, int) {
	scanned := len(q.entries)
	keep := q.entries[:0]
	min := graph.Inf
	for _, e := range q.entries {
		cur := dist[e.V]
		if cur != e.D {
			continue // stale
		}
		if cur <= thr {
			out = append(out, e.V)
		} else {
			keep = append(keep, e)
			if e.D < min {
				min = e.D
			}
		}
	}
	q.entries = keep
	q.runMin = min
	return out, scanned
}

// MinDist returns a lower bound on the smallest current distance among
// fresh entries in O(1): the running minimum of the recorded distances,
// which is exact whenever the minimum-achieving entry is still fresh, and
// otherwise undershoots (a stale entry's vertex only ever improved). The
// near-far driver compensates with a jump-and-retry loop: an extraction at
// a threshold covering the bound either yields work or purges the stale
// minimum, tightening the next bound. graph.Inf means the queue is empty.
func (q *Flat) MinDist(dist []graph.Dist) graph.Dist {
	if len(q.entries) == 0 {
		return graph.Inf
	}
	return q.runMin
}

// partition holds entries whose insertion distance fell in
// (lower, upper], where lower is the previous partition's upper bound.
type partition struct {
	upper   graph.Dist
	entries []Entry
}

// Partitioned is the paper's recursively partitioned far queue. Partitions
// are ordered by ascending upper bound; the last bound is always graph.Inf.
// Boundary updates only ever decrease a bound ("monotonic boundary
// shifts"), and placement of *new* entries uses the current bounds, while
// existing entries stay put — both exactly as Section 4.6 specifies.
//
// Entry storage is pooled (GetPartitioned/Release). Each partition keeps
// its entries in a slab drawn from per-queue free lists bucketed by size
// class (free[k] holds slabs of capacity at least 1<<k). A partition whose
// slab cannot take a pushed run copies into a slab of the smallest larger
// class that can, and hands the old one back; a partition that
// CompactFront drops, and every partition at Release, hands back its slab
// too. A solve therefore only allocates when it holds more slabs of some
// class at once than any solve before it on this queue, so repeated solves
// reach a steady state with no slab growth — see
// TestPartitionedSteadyStateAllocs.
type Partitioned struct {
	parts []partition
	size  int
	// scanned accumulates pop-scan work for kernel accounting.
	scanned int
	// free[k] holds idle slabs of capacity at least 1<<k, length 0.
	free [][][]Entry

	// pool runs the partition scans of at least PoolScanMin entries (nil
	// or one worker: every scan runs inline). popWorker is built once per
	// queue, so a pool scan allocates nothing; it reads the scan from pop
	// and writes each worker's counts to pops.
	pool      *parallel.Pool
	pop       popCall
	pops      []popCount
	popWorker func(w int)
}

// popCall is the state of one pool partition scan: the entries, the
// output window of the same length, each split by parallel.Block.
type popCall struct {
	es   []Entry
	ob   []graph.VID
	thr  graph.Dist
	dist []graph.Dist
}

// popCount is one worker's block result of a pool scan, padded to a cache
// line.
type popCount struct {
	pop, keep int
	_         [6]int64
}

// minSlabClass is the size class of a partition's first slab: 1<<6
// entries, 1 KiB.
const minSlabClass = 6

var partitionedPool = sync.Pool{New: func() any { return new(Partitioned) }}

// GetPartitioned returns a pooled, empty queue with the initial two
// partitions: upper bounds firstUpper (the paper initializes this to the
// average edge weight) and graph.Inf. Pair with Release; slab capacity
// survives in the pool across solves.
func GetPartitioned(firstUpper graph.Dist) *Partitioned {
	q := partitionedPool.Get().(*Partitioned)
	q.init(firstUpper)
	return q
}

// Release returns the queue (and its slabs) to the pool. The queue must
// not be used afterwards.
func (q *Partitioned) Release() { partitionedPool.Put(q) }

func (q *Partitioned) init(firstUpper graph.Dist) {
	if firstUpper < 1 {
		firstUpper = 1
	}
	if firstUpper >= graph.Inf {
		firstUpper = graph.Inf - 1
	}
	for _, p := range q.parts {
		q.putSlab(p.entries)
	}
	clear(q.parts)
	q.parts = append(q.parts[:0], partition{upper: firstUpper}, partition{upper: graph.Inf})
	q.size, q.scanned = 0, 0
	q.pool = nil
}

// UsePool lets PopBelow scan partitions of at least PoolScanMin entries on
// p, until Release. The result is the same as an inline scan's.
func (q *Partitioned) UsePool(p *parallel.Pool) {
	q.pool = p
	if p.Size() > len(q.pops) {
		q.pops = make([]popCount, p.Size())
	}
	if q.popWorker == nil {
		q.popWorker = func(w int) {
			c := &q.pop
			lo, hi := parallel.Block(len(c.es), q.pool.Size(), w)
			np, nk := popBlock(c.es[lo:hi], c.ob[lo:hi], c.thr, c.dist)
			q.pops[w] = popCount{pop: np, keep: nk}
		}
	}
}

// putSlab files s under the largest class its capacity covers.
func (q *Partitioned) putSlab(s []Entry) {
	if cap(s) == 0 {
		return
	}
	k := bits.Len(uint(cap(s))) - 1
	for len(q.free) <= k {
		q.free = append(q.free, nil)
	}
	q.free[k] = append(q.free[k], s[:0])
}

// grow moves p's entries, in order, into a free slab of the smallest size
// class above p's current capacity that holds need entries (allocating one
// only when that class has none idle) and files the old slab for reuse.
func (q *Partitioned) grow(p *partition, need int) {
	k := max(bits.Len(uint(cap(p.entries))), bits.Len(uint(need-1)), minSlabClass)
	var s []Entry
	if k < len(q.free) && len(q.free[k]) > 0 {
		fl := q.free[k]
		s = fl[len(fl)-1]
		fl[len(fl)-1] = nil
		q.free[k] = fl[:len(fl)-1]
	} else {
		s = make([]Entry, 0, 1<<k)
	}
	s = append(s, p.entries...)
	q.putSlab(p.entries)
	p.entries = s
}

// Len reports the number of stored entries (stale ones included until
// detected).
func (q *Partitioned) Len() int { return q.size }

// NumPartitions reports the current number of partitions.
func (q *Partitioned) NumPartitions() int { return len(q.parts) }

// Bound returns the upper bound of partition i.
func (q *Partitioned) Bound(i int) graph.Dist { return q.parts[i].upper }

// PartSize returns the entry count of partition i.
func (q *Partitioned) PartSize(i int) int { return len(q.parts[i].entries) }

// lower returns the lower bound of partition i (the previous upper, or 0).
func (q *Partitioned) lower(i int) graph.Dist {
	if i == 0 {
		return 0
	}
	return q.parts[i-1].upper
}

// Push places each entry e of es into the partition i with
// lower(i) < e.D <= Bound(i), keeping the entries' order within each
// partition. A run of consecutive entries that fall in one partition is
// placed together: one binary search over the bounds, at most one slab
// growth and one copy.
func (q *Partitioned) Push(es []Entry) {
	q.size += len(es)
	for len(es) > 0 {
		d := es[0].D
		lo, hi := 0, len(q.parts)-1
		for lo < hi {
			mid := (lo + hi) / 2
			if d <= q.parts[mid].upper {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		p := &q.parts[lo]
		below := graph.Dist(math.MinInt64) // partition 0 takes every d <= its bound
		if lo > 0 {
			below = q.parts[lo-1].upper
		}
		n := 1
		for n < len(es) && es[n].D > below && es[n].D <= p.upper {
			n++
		}
		if len(p.entries)+n > cap(p.entries) {
			q.grow(p, len(p.entries)+n)
		}
		p.entries = append(p.entries, es[:n]...)
		es = es[n:]
	}
}

// SetBound lowers the upper bound of partition i to b. Monotonicity is
// enforced: raising a bound or crossing the neighboring bounds is an error.
// Per the paper, the update affects only future placements; entries already
// stored are untouched (lazy distance checks at pop keep this correct).
func (q *Partitioned) SetBound(i int, b graph.Dist) error {
	if i < 0 || i >= len(q.parts) {
		return fmt.Errorf("frontier: partition %d out of range", i)
	}
	if b >= q.parts[i].upper {
		return fmt.Errorf("frontier: boundary update must decrease (%d -> %d)", q.parts[i].upper, b)
	}
	if b <= q.lower(i) {
		return fmt.Errorf("frontier: boundary %d would cross lower bound %d", b, q.lower(i))
	}
	wasLast := i == len(q.parts)-1
	q.parts[i].upper = b
	if wasLast {
		// The updated bound belonged to the last partition: append a
		// fresh unbounded partition, as Section 4.6 prescribes.
		q.parts = append(q.parts, partition{upper: graph.Inf})
	}
	return nil
}

// CompactFront removes empty leading partitions ("if the size of the
// current partition is zero, the next partition becomes the current
// partition"), always retaining at least one partition (the unbounded
// tail). The removed partitions' slabs go back to the free lists.
func (q *Partitioned) CompactFront() {
	i := 0
	for i < len(q.parts)-1 && len(q.parts[i].entries) == 0 {
		i++
	}
	if i > 0 {
		for _, p := range q.parts[:i] {
			q.putSlab(p.entries)
		}
		n := copy(q.parts, q.parts[i:])
		clear(q.parts[n:])
		q.parts = q.parts[:n]
	}
}

// PopBelow extracts every fresh vertex with current distance <= thr,
// appending to out. Only partitions whose lower bound is below thr are
// scanned — the pay-off of partitioning over the baseline's full scan.
// Fresh entries above thr are retained in place, in order; stale entries
// are dropped. Each scan needs len(entries) spare slots in out, grown
// amortised.
//
// A partition of at least PoolScanMin entries is scanned on the pool
// given to UsePool, if it has more than one worker: each worker runs
// popBlock over one static block (parallel.Block) of the entries and of
// the output window, and the blocks' results are then moved together in
// block order. Each block keeps entry order and the blocks tile the
// partition in order, so out and the retained entries are identical to the
// inline scan's.
func (q *Partitioned) PopBelow(thr graph.Dist, dist []graph.Dist, out []graph.VID) []graph.VID {
	for i := 0; i < len(q.parts); i++ {
		if q.lower(i) >= thr {
			break
		}
		part := &q.parts[i]
		es := part.entries
		q.scanned += len(es)
		n := len(out)
		out = slices.Grow(out, len(es))
		ob := out[n : n+len(es)]
		var np, nk int
		if nw := q.workers(); nw > 1 && len(es) >= PoolScanMin {
			q.pop = popCall{es: es, ob: ob, thr: thr, dist: dist}
			q.pool.Run(q.popWorker)
			q.pop = popCall{}
			np, nk = q.pops[0].pop, q.pops[0].keep
			for w := 1; w < nw; w++ {
				lo, _ := parallel.Block(len(es), nw, w)
				c := q.pops[w]
				np += copy(ob[np:], ob[lo:lo+c.pop])
				nk += copy(es[nk:], es[lo:lo+c.keep])
			}
		} else {
			np, nk = popBlock(es, ob, thr, dist)
		}
		q.size -= len(es) - nk
		part.entries = es[:nk]
		out = out[:n+np]
	}
	q.CompactFront()
	return out
}

// workers reports the pool size PopBelow scans with: 1 without a pool.
func (q *Partitioned) workers() int {
	if q.pool == nil {
		return 1
	}
	return q.pool.Size()
}

// popBlock is PopBelow's scan of es: it writes the popped vertices to the
// front of ob and compacts the retained entries to the front of es, each in
// entry order, and returns the two counts. ob needs len(es) slots. The
// keep/pop/drop decision is predicated rather than branched: each entry is
// written to both ob and the retained prefix, and each count advances by
// its own predicate.
func popBlock(es []Entry, ob []graph.VID, thr graph.Dist, dist []graph.Dist) (np, nk int) {
	for _, e := range es {
		cur := dist[e.V]
		fresh := b2i(cur == e.D)
		below := b2i(cur <= thr)
		ob[np] = e.V
		es[nk] = e
		np += fresh & below
		nk += fresh &^ below
	}
	return np, nk
}

// b2i converts a predicate to 0 or 1. The compiler lowers it to a flag
// set (SETcc), not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// MinDist returns the smallest current distance among fresh entries
// (scanning from the front and stopping at the first partition that yields
// one, since partitions are distance-ordered for fresh entries), or
// graph.Inf when no fresh entry exists.
func (q *Partitioned) MinDist(dist []graph.Dist) graph.Dist {
	for i := range q.parts {
		min := graph.Inf
		for _, e := range q.parts[i].entries {
			if dist[e.V] == e.D && e.D < min {
				min = e.D
			}
		}
		if min < graph.Inf {
			return min
		}
	}
	return graph.Inf
}

// ScannedAndReset returns the number of entries scanned by PopBelow since
// the last call and resets the counter; the solver charges this to the
// simulated far-queue kernel.
func (q *Partitioned) ScannedAndReset() int {
	s := q.scanned
	q.scanned = 0
	return s
}

// FreshLen counts entries that are still fresh under dist. O(size); used by
// tests and termination assertions, not hot paths.
func (q *Partitioned) FreshLen(dist []graph.Dist) int {
	n := 0
	for i := range q.parts {
		for _, e := range q.parts[i].entries {
			if dist[e.V] == e.D {
				n++
			}
		}
	}
	return n
}
