package frontier

import (
	"math"
	"sync"

	"energysssp/internal/graph"
)

// Lazy is the lazy-batched bucketed far queue. Entries land in coarse
// distance buckets of a fixed width, keyed by the distance recorded at
// insertion, with the same lazy-deletion contract as Flat: an entry whose
// recorded distance no longer matches the vertex's current distance is
// stale and dropped when its bucket is scanned. The payoff over Flat is
// that a phase advance drains only the next non-empty buckets instead of
// rescanning the whole queue, so total queue work is O(1) amortized per
// entry (push, at most one overflow redistribution, one drain) plus the
// stale drops the lazy-deletion scheme inherently pays.
//
// Layout: bucket i covers recorded distances in (i·width, (i+1)·width]
// (distance 0 joins bucket 0), stored structure-of-arrays — one []VID and
// one []Dist slab per bucket — in a ring of DefaultLazySlots slices
// indexed by i mod DefaultLazySlots, computed as a mask because the slot
// count is a power of two. The ring window is
// [drained, drained+DefaultLazySlots); entries
// beyond it wait in an unsorted overflow slab and are redistributed into
// the ring when the window slides over them (amortized: an entry moves out
// of overflow at most once). All slabs are reused across solves via an
// internal sync.Pool (GetLazy/Release), so the steady state allocates
// nothing — see TestLazyFarSteadyStateAllocs.
//
// Contract: Push requires d strictly above the drained threshold
// (Threshold()); this is exactly the near-far invariant that every far
// push carries a distance above the current phase boundary. Distances at
// or below the threshold are clamped into the first undrained bucket,
// which keeps the structure consistent but may cost ExtractBatch its
// order exactness — callers obeying the contract always extract in
// bucket order.
type Lazy struct {
	width   graph.Dist
	drained int64         // absolute index of the first undrained bucket
	minAbi  int64         // no ring bucket below this index holds entries
	vids    [][]graph.VID // ring slabs, indexed by slot(abi)
	dists   [][]graph.Dist
	ofV     []graph.VID // overflow: entries with abi >= drained+DefaultLazySlots
	ofD     []graph.Dist
	ofMin   int64 // smallest bucket index present in overflow
	size    int   // stored entries, stale included until detected
	ringN   int   // entries currently in ring slabs
	pending int   // scan work accrued by overflow redistribution (fill)
}

// DefaultLazySlots is the ring size: how many consecutive buckets the
// queue addresses directly before entries spill to the overflow slab. At
// the default width (the solver's delta) this covers the whole distance
// range of the road-network workloads, so overflow redistribution is rare.
const DefaultLazySlots = 1024

// The ring index masks with DefaultLazySlots-1, which needs a power of
// two: this constant fails to compile otherwise.
const _ = -uint(DefaultLazySlots & (DefaultLazySlots - 1))

// slot maps an absolute bucket index (never negative) to its ring slot:
// abi mod DefaultLazySlots, without a divide.
func slot(abi int64) int { return int(abi & (DefaultLazySlots - 1)) }

const noBucket = int64(math.MaxInt64)

var lazyPool = sync.Pool{New: func() any { return new(Lazy) }}

// GetLazy returns a pooled queue with the given bucket width whose buckets
// at or below startThr count as already drained (near-far starts its phase
// threshold at delta, so buckets below it can never be pushed to). Pair
// with Release; slab capacity survives in the pool across solves.
func GetLazy(width, startThr graph.Dist) *Lazy {
	q := lazyPool.Get().(*Lazy)
	q.init(width, startThr)
	return q
}

// Release returns the queue (and its slab capacity) to the pool. The queue
// must not be used afterwards.
func (q *Lazy) Release() { lazyPool.Put(q) }

func (q *Lazy) init(width, startThr graph.Dist) {
	if width < 1 {
		width = 1
	}
	q.width = width
	if q.vids == nil {
		q.vids = make([][]graph.VID, DefaultLazySlots)
		q.dists = make([][]graph.Dist, DefaultLazySlots)
	}
	for i := range q.vids {
		q.vids[i] = q.vids[i][:0]
		q.dists[i] = q.dists[i][:0]
	}
	q.drained = int64(startThr / width)
	q.minAbi = noBucket
	q.ofV, q.ofD = q.ofV[:0], q.ofD[:0]
	q.ofMin = noBucket
	q.size, q.ringN, q.pending = 0, 0, 0
}

// Width reports the bucket width.
func (q *Lazy) Width() graph.Dist { return q.width }

// Threshold reports the distance below which every bucket is drained:
// future pushes must carry strictly larger distances.
func (q *Lazy) Threshold() graph.Dist { return graph.Dist(q.drained) * q.width }

// Len reports the number of stored entries (stale ones included until
// detected).
func (q *Lazy) Len() int { return q.size }

// bucketOf maps a recorded distance to its absolute bucket index.
func (q *Lazy) bucketOf(d graph.Dist) int64 {
	if d <= 0 {
		return 0
	}
	return int64((d - 1) / q.width)
}

// Push appends an entry recorded at distance d. d must be above
// Threshold() (see the type contract).
//
//hot:alloc-free
func (q *Lazy) Push(v graph.VID, d graph.Dist) {
	abi := q.bucketOf(d)
	if abi < q.drained {
		abi = q.drained // contract violation: clamp rather than corrupt
	}
	if abi >= q.drained+DefaultLazySlots {
		q.ofV = append(q.ofV, v)
		q.ofD = append(q.ofD, d)
		if abi < q.ofMin {
			q.ofMin = abi
		}
	} else {
		s := slot(abi)
		bv, bd := q.vids[s], q.dists[s]
		bv = append(bv, v)
		bd = append(bd, d)
		q.vids[s], q.dists[s] = bv, bd
		if abi < q.minAbi {
			q.minAbi = abi
		}
		q.ringN++
	}
	q.size++
}

// fill redistributes overflow entries that now fit the ring window
// [drained, drained+DefaultLazySlots), dropping stale ones on the way. Amortized:
// each entry leaves the overflow at most once.
func (q *Lazy) fill(dist []graph.Dist) {
	end := q.drained + DefaultLazySlots
	if len(q.ofV) == 0 || q.ofMin >= end {
		return
	}
	kv, kd := q.ofV[:0], q.ofD[:0]
	newMin := noBucket
	q.pending += len(q.ofV)
	for i, d := range q.ofD {
		v := q.ofV[i]
		if dist[v] != d {
			q.size-- // stale: drop during the move
			continue
		}
		abi := q.bucketOf(d)
		if abi < q.drained {
			abi = q.drained
		}
		if abi < end {
			s := slot(abi)
			bv, bd := q.vids[s], q.dists[s]
			bv = append(bv, v)
			bd = append(bd, d)
			q.vids[s], q.dists[s] = bv, bd
			if abi < q.minAbi {
				q.minAbi = abi
			}
			q.ringN++
		} else {
			kv = append(kv, v)
			kd = append(kd, d)
			if abi < newMin {
				newMin = abi
			}
		}
	}
	q.ofV, q.ofD = kv, kd
	q.ofMin = newMin
}

// skipEmpty advances drained past buckets that provably hold no entries,
// up to limit: to the ring's first possibly-occupied bucket, or — when the
// ring is empty — straight to the overflow's first bucket. O(1); the
// bucket-by-bucket walk in the extraction loops then touches only
// plausibly occupied slots.
func (q *Lazy) skipEmpty(limit int64) {
	next := q.drained
	if q.ringN == 0 {
		if len(q.ofV) == 0 {
			next = limit
		} else if q.ofMin > next {
			next = q.ofMin
		}
	} else if q.minAbi > next {
		next = q.minAbi
	}
	if next > limit {
		next = limit
	}
	if next > q.drained {
		q.drained = next
	}
}

// drainBucket moves every fresh entry of bucket q.drained to out, drops
// the stale ones, and advances the drained boundary. Caller ensures the
// bucket is inside the ring window.
func (q *Lazy) drainBucket(dist []graph.Dist, out []graph.VID, scanned int) ([]graph.VID, int) {
	s := slot(q.drained)
	bv, bd := q.vids[s], q.dists[s]
	scanned += len(bd)
	for i, d := range bd {
		if dist[bv[i]] == d {
			out = append(out, bv[i])
		}
	}
	q.size -= len(bd)
	q.ringN -= len(bd)
	q.vids[s], q.dists[s] = bv[:0], bd[:0]
	q.drained++
	return out, scanned
}

// ExtractBatch is the rho-stepping extraction: it drains whole buckets in
// ascending order until at least minBatch fresh vertices have been
// gathered (or the queue empties), and returns the extended slice, the
// scan work, and the new threshold — the upper boundary of the last
// drained bucket. Batching whole buckets keeps extraction order-exact
// (every extracted vertex has a smaller recorded distance than every
// retained one) while amortizing phase advances over enough work to keep
// the worker fleet saturated.
func (q *Lazy) ExtractBatch(minBatch int, dist []graph.Dist, out []graph.VID) ([]graph.VID, int, graph.Dist) {
	scanned := 0
	start := len(out)
	for q.size > 0 && len(out)-start < minBatch {
		q.skipEmpty(noBucket / 2)
		q.fill(dist)
		out, scanned = q.drainBucket(dist, out, scanned)
	}
	if q.minAbi < q.drained {
		q.minAbi = q.drained
	}
	scanned += q.pending
	q.pending = 0
	return out, scanned, q.Threshold()
}
