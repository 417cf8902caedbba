// Package bitmap implements a fixed-size bitmap with a branch-free
// test-and-set, used by the SSSP filter stage to deduplicate frontier
// vertices after the advance's workers have joined (the CPU analogue of
// Gunrock's bitmap filter).
package bitmap

const wordBits = 64

// Bitmap is a set of n bits. It is not safe for concurrent use: the filter
// stage touches it from one goroutine at a time. The zero value is an
// empty bitmap of size 0; construct with New.
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

// SetPlainBit sets bit i and returns 1 when this call changed it, 0 when it
// was already set, without a branch, so predicated loops can add the
// result to a count.
func (b *Bitmap) SetPlainBit(i int) uint64 {
	w, sh := i/wordBits, uint(i%wordBits)
	old := b.words[w]
	b.words[w] = old | 1<<sh
	return (^old >> sh) & 1
}

// Clear clears bit i.
func (b *Bitmap) Clear(i int) {
	b.words[i/wordBits] &^= uint64(1) << uint(i%wordBits)
}
