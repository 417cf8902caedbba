package parallel

// Prefix-sum and edge-partition primitives for load-balanced kernels.
//
// The edge-balanced advance path in internal/sssp partitions *edges* rather
// than vertices: an exclusive prefix sum over the frontier's out-degrees
// turns "which worker owns edge e" into a binary search (merge-path style),
// so a single million-edge hub is split across workers instead of
// serializing one dynamic chunk. The primitives here are the reusable
// pieces: a Scan value that computes the prefix sum in parallel without
// allocating in steady state, SearchPrefix for the owner lookup, and
// EdgeShare for the equal-edges partition bounds.

// scanPart holds one worker's block reduction, padded to a cache line so
// concurrent writers do not false-share.
type scanPart struct {
	sum int64
	max int64
	off int64
	_   [5]int64
}

// scanSeqMax is the largest input a Scan handles sequentially: below this
// the two extra parallel passes cost more than they save.
const scanSeqMax = 2048

// Scan computes exclusive prefix sums on a fixed Pool without per-call
// allocation: the per-worker partials and the two pass closures are built
// once at construction and reused by every ExclusiveSum call. A Scan is
// bound to its pool and, like the pool itself, supports sequential reuse
// only (one ExclusiveSum at a time).
type Scan struct {
	p     *Pool
	parts []scanPart

	// Per-call state, published to the workers by ExclusiveSum before the
	// pass launches and cleared afterwards. Pool.Run's channel handoff
	// orders these writes before the worker reads.
	n   int
	dst []int64
	f   func(i int) int64

	pass1 func(w int)
	pass2 func(w int)
}

// NewScan builds a Scan for the pool.
func NewScan(p *Pool) *Scan {
	s := &Scan{p: p, parts: make([]scanPart, p.Size())}
	s.pass1 = func(w int) {
		lo, hi := blockRange(s.n, s.p.Size(), w)
		var sum, maxv int64
		for i := lo; i < hi; i++ {
			v := s.f(i)
			s.dst[i] = sum
			sum += v
			if v > maxv {
				maxv = v
			}
		}
		s.parts[w].sum = sum
		s.parts[w].max = maxv
	}
	s.pass2 = func(w int) {
		off := s.parts[w].off
		if off == 0 {
			return
		}
		lo, hi := blockRange(s.n, s.p.Size(), w)
		for i := lo; i < hi; i++ {
			s.dst[i] += off
		}
	}
	return s
}

// ExclusiveSum fills dst[0:n] with the exclusive prefix sum of f over
// [0, n) — dst[i] = f(0)+...+f(i-1) — and dst[n] with the total. It returns
// the total and the maximum single value of f. dst must have length at
// least n+1. f must be safe for concurrent calls with distinct arguments
// (the kernels pass pure degree lookups).
func (s *Scan) ExclusiveSum(n int, dst []int64, f func(i int) int64) (total, max int64) {
	if n < 0 {
		panic("parallel: ExclusiveSum with negative n")
	}
	if len(dst) < n+1 {
		panic("parallel: ExclusiveSum dst shorter than n+1")
	}
	if s.p.Size() == 1 || n <= scanSeqMax {
		var sum, maxv int64
		for i := 0; i < n; i++ {
			v := f(i)
			dst[i] = sum
			sum += v
			if v > maxv {
				maxv = v
			}
		}
		dst[n] = sum
		return sum, maxv
	}
	s.n, s.dst, s.f = n, dst, f
	s.p.Run(s.pass1)
	var off, maxv int64
	for w := range s.parts {
		s.parts[w].off = off
		off += s.parts[w].sum
		if s.parts[w].max > maxv {
			maxv = s.parts[w].max
		}
	}
	s.p.Run(s.pass2)
	dst[n] = off
	s.dst, s.f = nil, nil
	return off, maxv
}

// blockRange returns worker w's contiguous share of [0, n) under a balanced
// static split into parts blocks (block sizes differ by at most one).
func blockRange(n, parts, w int) (lo, hi int) {
	lo = n * w / parts
	hi = n * (w + 1) / parts
	return lo, hi
}

// SearchPrefix returns the largest index i such that prefix[i] <= x, for an
// ascending prefix array with prefix[0] <= x. Kernels use it to find the
// frontier vertex that owns global edge x: with an exclusive degree prefix,
// prefix[i] <= x < prefix[i+1] means edge x belongs to vertex i.
func SearchPrefix(prefix []int64, x int64) int {
	lo, hi := 0, len(prefix)-1 // invariant: prefix[lo] <= x, prefix[hi+1] > x or hi+1 == len
	for lo < hi {
		mid := int(uint(lo+hi+1) >> 1)
		if prefix[mid] <= x {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// EdgeShare returns the half-open range [lo, hi) of the edges assigned to
// worker w when total edges are split into parts equal shares (sizes differ
// by at most one).
func EdgeShare(total int64, parts, w int) (lo, hi int64) {
	lo = total * int64(w) / int64(parts)
	hi = total * int64(w+1) / int64(parts)
	return lo, hi
}
