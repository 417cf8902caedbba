// Package bitmap implements a fixed-size concurrent bitmap with atomic
// test-and-set, used by the SSSP filter stage to deduplicate frontier
// vertices (the CPU analogue of Gunrock's bitmap + atomic filter).
package bitmap

import (
	"math/bits"
	"sync/atomic"
)

const wordBits = 64

// Bitmap is a set of n bits supporting concurrent TrySet operations.
// The zero value is an empty bitmap of size 0; construct with New.
type Bitmap struct {
	words []uint64
	n     int
}

// New returns a bitmap holding n bits, all clear.
func New(n int) *Bitmap {
	if n < 0 {
		n = 0
	}
	return &Bitmap{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// Len reports the number of bits in the bitmap.
func (b *Bitmap) Len() int { return b.n }

// TrySet atomically sets bit i and reports whether this call changed it
// (true means the caller "won" and owns deduplicated responsibility for i).
func (b *Bitmap) TrySet(i int) bool {
	w, mask := i/wordBits, uint64(1)<<uint(i%wordBits)
	addr := &b.words[w]
	for {
		old := atomic.LoadUint64(addr)
		if old&mask != 0 {
			return false
		}
		if atomic.CompareAndSwapUint64(addr, old, old|mask) {
			return true
		}
	}
}

// SetPlain sets bit i with ordinary loads and stores and reports whether
// this call changed it. It is TrySet for single-goroutine phases: the
// caller must guarantee no concurrent access to the bitmap for the call's
// duration.
func (b *Bitmap) SetPlain(i int) bool {
	w, mask := i/wordBits, uint64(1)<<uint(i%wordBits)
	//lint:ignore atomicmix callers set plainly only while no kernel goroutine is live; the pool's join orders it against every parallel TrySet
	if b.words[w]&mask != 0 {
		return false
	}
	b.words[w] |= mask
	return true
}

// SetPlainBit is SetPlain with its result as a number: it sets bit i and
// returns 1 when this call changed it, 0 when it was already set, without
// a branch, so predicated loops can add the result to a count. Like
// SetPlain, it requires that no other goroutine access the bitmap for the
// call's duration.
func (b *Bitmap) SetPlainBit(i int) uint64 {
	w, sh := i/wordBits, uint(i%wordBits)
	//lint:ignore atomicmix callers set plainly only while no kernel goroutine is live; the pool's join orders it against every parallel TrySet
	old := b.words[w]
	b.words[w] = old | 1<<sh
	return (^old >> sh) & 1
}

// Get reports whether bit i is set. Safe for concurrent use with TrySet.
func (b *Bitmap) Get(i int) bool {
	return atomic.LoadUint64(&b.words[i/wordBits])&(uint64(1)<<uint(i%wordBits)) != 0
}

// Clear clears bit i (not atomic with respect to concurrent TrySet on the
// same word; callers clear only between parallel phases).
func (b *Bitmap) Clear(i int) {
	//lint:ignore atomicmix callers clear only between parallel phases, after the workers have joined
	b.words[i/wordBits] &^= uint64(1) << uint(i%wordBits)
}

// Reset clears every bit. O(n/64); used between iterations.
func (b *Bitmap) Reset() {
	for i := range b.words {
		//lint:ignore atomicmix reset runs between parallel phases; no kernel goroutine is live
		b.words[i] = 0
	}
}

// ClearAll clears exactly the listed bits, which is O(len(idx)) and much
// cheaper than Reset when the set of touched bits is sparse relative to n.
func (b *Bitmap) ClearAll(idx []int32) {
	for _, i := range idx {
		b.Clear(int(i))
	}
}

// Count returns the number of set bits.
func (b *Bitmap) Count() int {
	c := 0
	//lint:ignore atomicmix count is taken after the phase barrier, when no writer is live
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}
