package gift

import "grinch/internal/bitutil"

// Store writes the batch back out in one-word-per-block layout, the
// inverse of Load; only the kernel's tests read a batch back.
//
//grinch:secret
func (b *Batch64) Store(blocks *[64]uint64) {
	*blocks = [64]uint64(*b)
	bitutil.Transpose64(blocks)
}
