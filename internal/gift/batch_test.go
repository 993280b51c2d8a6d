package gift

import (
	"testing"

	"grinch/internal/bitutil"
)

// batchFill produces 64 deterministic pseudo-random blocks.
func batchFill(seed uint64) [64]uint64 {
	var blocks [64]uint64
	x := seed | 1
	for i := range blocks {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		blocks[i] = x
	}
	return blocks
}

func batchKey(seed uint64) *Cipher64 {
	return NewCipher64FromWord(bitutil.Word128{Lo: seed * 0x9e3779b97f4a7c15, Hi: seed ^ 0xdeadbeefcafef00d})
}

func TestBatch64LoadStoreRoundTrip(t *testing.T) {
	blocks := batchFill(7)
	var b Batch64
	b.Load(&blocks)
	var out [64]uint64
	b.Store(&out)
	if out != blocks {
		t.Fatal("Load/Store round trip corrupted the blocks")
	}
}

// TestBatch64StepEquivalence drives each kernel step against the scalar
// reference per block.
func TestBatch64StepEquivalence(t *testing.T) {
	blocks := batchFill(11)
	rk := RoundKey64{U: 0xbeef, V: 0x1234, Const: 0x2a}

	check := func(name string, batchOp func(*Batch64), scalarOp func(uint64) uint64) {
		var b Batch64
		b.Load(&blocks)
		batchOp(&b)
		var got [64]uint64
		b.Store(&got)
		for i, blk := range blocks {
			if want := scalarOp(blk); got[i] != want {
				t.Fatalf("%s: block %d = %#x, scalar says %#x", name, i, got[i], want)
			}
		}
	}

	check("SubCells", (*Batch64).SubCells, SubCells64)
	check("PermBits", (*Batch64).PermBits, PermBits64)
	check("AddRoundKey", func(b *Batch64) { b.AddRoundKey(rk) }, func(s uint64) uint64 { return AddRoundKey64(s, rk) })
	check("Round", func(b *Batch64) { b.Round(rk) }, func(s uint64) uint64 { return Round64(s, rk) })
}

// TestTraceBatchMatchesSBoxInputsAppend proves the batched victim
// trace is bit-identical to the truncated scalar per-encryption trace
// for every window geometry the oracle uses.
func TestTraceBatchMatchesSBoxInputsAppend(t *testing.T) {
	c := batchKey(3)
	blocks := batchFill(17)
	windows := []struct{ first, last int }{
		{1, 1}, {1, 2}, {2, 2}, {2, 4}, {1, Rounds64}, {5, 3}, {29, Rounds64 + 3},
	}
	for _, w := range windows {
		visited := map[int][64]uint64{}
		var st, st2 Batch64
		c.TraceBatch(&blocks, w.first, w.last, &st, &st2, func(round int, s *Batch64) {
			var out [64]uint64
			cp := *s
			cp.Store(&out)
			visited[round] = out
		})

		last := w.last
		if last > Rounds64 {
			last = Rounds64
		}
		wantRounds := 0
		for r := w.first; r <= last; r++ {
			wantRounds++
		}
		if len(visited) != wantRounds {
			t.Fatalf("window [%d,%d]: visited %d rounds, want %d", w.first, w.last, len(visited), wantRounds)
		}
		for i, blk := range blocks {
			states := c.SBoxInputsAppend(nil, blk, last)
			for r := w.first; r <= last; r++ {
				if visited[r][i] != states[r-1] {
					t.Fatalf("window [%d,%d] round %d block %d: batch %#x, scalar %#x",
						w.first, w.last, r, i, visited[r][i], states[r-1])
				}
			}
		}
	}
}
