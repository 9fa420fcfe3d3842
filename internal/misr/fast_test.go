package misr

import (
	"math/bits"
	"testing"

	"mithra/internal/mathx"
)

// hashReference is the original bit-serial MISR loop, kept verbatim as
// the semantic anchor: the table-driven fast path in Hash must be
// bit-identical to it for every configuration, width, and input.
func hashReference(h *Hasher, words []uint16) uint32 {
	state := h.seed
	for i, w := range words {
		if h.cfg.ByteSwap {
			w = w>>8 | w<<8
		}
		w = bits.RotateLeft16(w, h.cfg.InRot+7*i)
		for s := 0; s < h.cfg.Steps; s++ {
			lsb := state & 1
			state >>= 1
			if lsb != 0 {
				state ^= h.taps
			}
		}
		state ^= foldWord(w, h.width) & h.mask
		state &= h.mask
	}
	return uint32(state)
}

// TestHashMatchesReference sweeps every pool configuration across widths
// and random word vectors: the step-table fast path must reproduce the
// bit-serial reference exactly. The step tables exist only because the
// Galois step is linear over GF(2); this test is what that claim rests on.
func TestHashMatchesReference(t *testing.T) {
	rng := mathx.NewRNG(41)
	for _, width := range []int{4, 8, 12, 16} {
		for ci, cfg := range Pool() {
			h := NewHasher(cfg, width)
			for trial := 0; trial < 50; trial++ {
				words := make([]uint16, 1+rng.Intn(24))
				for i := range words {
					words[i] = uint16(rng.Uint64())
				}
				if got, want := h.Hash(words), hashReference(h, words); got != want {
					t.Fatalf("config %d width %d: Hash=%#x reference=%#x (words %v)",
						ci, width, got, want, words)
				}
			}
		}
	}
}

// TestStepTablesMatchReference checks the byte-sliced transition directly:
// for every reachable state, stepLo^stepHi equals the bit-serial steps.
func TestStepTablesMatchReference(t *testing.T) {
	for _, width := range []int{4, 10, 16} {
		for ci, cfg := range Pool() {
			h := NewHasher(cfg, width)
			for s := 0; s <= int(h.mask); s++ {
				state := uint16(s)
				fast := h.stepLo[state&0xff] ^ h.stepHi[state>>8]
				if want := h.stepRef(state); fast != want {
					t.Fatalf("config %d width %d state %#x: table step %#x, reference %#x",
						ci, width, s, fast, want)
				}
			}
		}
	}
}

// TestHashIndexedMatchesGather: hashing through a projection index must
// equal hashing a materialized gather of the same elements.
func TestHashIndexedMatchesGather(t *testing.T) {
	rng := mathx.NewRNG(43)
	h := NewHasher(Pool()[3], 12)
	words := make([]uint16, 16)
	for trial := 0; trial < 200; trial++ {
		for i := range words {
			words[i] = uint16(rng.Uint64())
		}
		idx := make([]int, 1+rng.Intn(len(words)))
		for i := range idx {
			idx[i] = rng.Intn(len(words))
		}
		gathered := make([]uint16, len(idx))
		for i, p := range idx {
			gathered[i] = words[p]
		}
		if got, want := h.HashIndexed(words, idx), h.Hash(gathered); got != want {
			t.Fatalf("trial %d: HashIndexed=%#x, gathered Hash=%#x (idx %v)", trial, got, want, idx)
		}
	}
}
