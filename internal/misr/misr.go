// Package misr implements the Multi-Input Signature Register hash used by
// MITHRA's table-based classifier (paper §IV-A). A MISR combines a stream
// of input words into a compact signature using only XORs and shifts: each
// arriving word is folded into a linear-feedback shift register, and once
// the last element of the accelerator input vector has arrived, the
// register content is the table index.
//
// The hash must (1) combine all input elements, (2) minimize destructive
// aliasing, (3) be cheap in hardware, (4) accept any number of inputs, and
// (5) be reconfigurable across applications. Reconfiguration is captured
// by Config: feedback taps, steps-per-word, and an input pre-permutation.
// The paper selects per-table configurations from a pool of 16 fixed
// configurations chosen for mutual dissimilarity; Pool reproduces that.
package misr

import (
	"fmt"
	"math/bits"

	"mithra/internal/mathx"
)

// Config is one MISR configuration: it determines the feedback polynomial
// of the shift register, how many LFSR steps separate consecutive input
// words, and how each input word is pre-permuted before being XORed in.
// All operations are XOR/shift/bit-select — directly implementable as the
// paper's synthesized MISR circuit.
type Config struct {
	// Taps is the feedback polynomial (masked to the register width).
	Taps uint16
	// Steps is the number of LFSR steps applied between input words
	// (1..3 in the pool).
	Steps int
	// InRot rotates each input word left by this amount before folding.
	InRot int
	// ByteSwap additionally swaps the two bytes of each input word.
	ByteSwap bool
	// Seed is the register's initial state.
	Seed uint16
}

// Pool returns the fixed, application-independent pool of 16 MISR
// configurations the compiler assigns tables from. The taps are distinct
// primitive-polynomial patterns; rotations and byte swaps decorrelate the
// input folding so that two configurations map the same input vector to
// different indices.
func Pool() []Config {
	// 16-bit primitive polynomial tap masks (and near-primitive variants);
	// masked down when the table is smaller than 2^16 entries.
	taps := []uint16{
		0xB400, 0xA801, 0xD008, 0x9C00,
		0xC011, 0xE402, 0xB811, 0xA011,
		0xD808, 0xC411, 0xF002, 0x9401,
		0xE811, 0xCC00, 0xB011, 0xA401,
	}
	pool := make([]Config, 16)
	for i := range pool {
		pool[i] = Config{
			Taps:     taps[i],
			Steps:    1 + i%3,
			InRot:    (5 * i) % 16,
			ByteSwap: i%2 == 1,
			Seed:     uint16(0xACE1 + 0x1D3*uint16(i)),
		}
	}
	return pool
}

// Hasher is a MISR instantiated at a concrete register width.
type Hasher struct {
	cfg   Config
	width uint
	mask  uint16
	taps  uint16
	seed  uint16
	// stepLo/stepHi byte-slice the register's Steps-step transition.
	// A Galois LFSR step is linear over GF(2) — step(a^b) == step(a)^step(b)
	// — so the k-step image of any state is the XOR of the images of its
	// two bytes. Two 256-entry lookups replace the per-word step loop in
	// Hash and give Affine its step-matrix powers; the tables are filled
	// from the same loop, so both are bit-identical to the reference by
	// construction.
	stepLo [256]uint16
	stepHi [256]uint16
}

// NewHasher builds a hasher for a table with 2^width entries. width must
// be in [4, 16].
func NewHasher(cfg Config, width int) *Hasher {
	if width < 4 || width > 16 {
		panic(fmt.Sprintf("misr: width %d outside [4,16]", width))
	}
	mask := uint16(1)<<uint(width) - 1
	if width == 16 {
		mask = 0xFFFF
	}
	taps := cfg.Taps & mask
	if taps == 0 {
		// Degenerate mask after truncation; fall back to a two-tap
		// polynomial that always fits.
		taps = (1 << uint(width-1)) | 1
	}
	seed := cfg.Seed & mask
	if seed == 0 {
		seed = 1
	}
	h := &Hasher{cfg: cfg, width: uint(width), mask: mask, taps: taps, seed: seed}
	for b := 0; b < 256; b++ {
		h.stepLo[b] = h.stepRef(uint16(b))
		h.stepHi[b] = h.stepRef(uint16(b) << 8)
	}
	return h
}

// stepRef advances state by the configured number of LFSR steps using the
// reference bit-serial loop. It seeds the stepLo/stepHi tables and anchors
// the equivalence tests.
func (h *Hasher) stepRef(state uint16) uint16 {
	for s := 0; s < h.cfg.Steps; s++ {
		lsb := state & 1
		state >>= 1
		if lsb != 0 {
			state ^= h.taps
		}
	}
	return state
}

// Hash folds the quantized input words into a table index in
// [0, 2^width).
//
// Each word is rotated by a position-dependent amount before entering the
// register (fixed wiring per FIFO slot in hardware), so the low bits of
// consecutive quantized elements land at different register offsets. This
// breaks up the contiguous-coset aliasing that a plain XOR of
// low-entropy words would produce, without adding anything beyond
// bit-select/rotate/XOR to the circuit.
//
//mithra:hotpath
func (h *Hasher) Hash(words []uint16) uint32 {
	state := h.seed
	for i, w := range words {
		state = h.fold(state, w, i)
	}
	return uint32(state)
}

// fold advances the register by one input word at position i: input
// pre-permutation, the table-driven LFSR steps, and the width fold.
//
//mithra:hotpath
func (h *Hasher) fold(state, w uint16, i int) uint16 {
	if h.cfg.ByteSwap {
		w = w>>8 | w<<8
	}
	w = bits.RotateLeft16(w, h.cfg.InRot+7*i)
	state = h.stepLo[state&0xff] ^ h.stepHi[state>>8]
	state ^= foldWord(w, h.width) & h.mask
	return state & h.mask
}

// Affine returns Hash's affine form over n-word inputs. Every stage of
// fold — byte swap, rotation, foldWord, the LFSR step and the mask — is
// linear over GF(2), so
//
//	Hash(w) == c ^ XOR{ img[i][b] : bit b of w[i] is set }
//
// for every w of length n. img[i][b] is the image of bit b of the word
// at position i: the swap, rotation and width fold send that bit to one
// register bit, which the remaining n-1-i steps carry to a fixed vector.
// The step-matrix powers come from stepLo/stepHi, one step per power, so
// the form is exact by the same linearity the step tables rest on.
func (h *Hasher) Affine(n int) (c uint16, img [][16]uint16) {
	img = make([][16]uint16, n)
	// pow[r] is S^k applied to word bit r after the width fold (bit
	// r%width of the register), for k = n-1-i.
	var pow [16]uint16
	for r := uint(0); r < 16; r++ {
		pow[r] = 1 << (r % h.width)
	}
	swap := 0
	if h.cfg.ByteSwap {
		swap = 8
	}
	for i := n - 1; i >= 0; i-- {
		rot := swap + h.cfg.InRot + 7*i
		for b := 0; b < 16; b++ {
			img[i][b] = pow[(b+rot)&15]
		}
		for r := range pow {
			pow[r] = h.stepLo[pow[r]&0xff] ^ h.stepHi[pow[r]>>8]
		}
	}
	c = h.seed
	for i := 0; i < n; i++ {
		c = h.stepLo[c&0xff] ^ h.stepHi[c>>8]
	}
	return c, img
}

// foldWord XOR-compresses a 16-bit word into the low `width` bits.
func foldWord(w uint16, width uint) uint16 {
	if width >= 16 {
		return w
	}
	folded := uint16(0)
	for w != 0 {
		folded ^= w & (1<<width - 1)
		w >>= width
	}
	return folded
}

// Width returns the index width in bits.
func (h *Hasher) Width() int { return int(h.width) }

// Config returns the MISR configuration this hasher instantiates.
func (h *Hasher) Config() Config { return h.cfg }

// Quantizer converts the accelerator's floating-point input vector into
// the fixed-point words the MISR consumes. Each feature is mapped to a
// 2^Bits-level value using a per-feature range calibrated from the
// training data (the hardware equivalent is a per-application fixed-point
// format chosen by the compiler). Coarser quantization makes recurring
// input patterns collide onto identical words, which is what lets the
// table-based classifier recognize unseen-but-similar inputs.
type Quantizer struct {
	Min, Max []float64
	// Bits is the per-feature fixed-point width (1..16).
	Bits int
}

// FitQuantizer calibrates per-feature ranges from sample input vectors at
// full 16-bit precision.
func FitQuantizer(inputs [][]float64) *Quantizer {
	return FitQuantizerBits(inputs, 16)
}

// FitQuantizerBits calibrates per-feature ranges with the given
// fixed-point width.
func FitQuantizerBits(inputs [][]float64, bits int) *Quantizer {
	if len(inputs) == 0 {
		panic("misr: FitQuantizer with no inputs")
	}
	if bits < 1 || bits > 16 {
		panic(fmt.Sprintf("misr: quantizer bits %d outside [1,16]", bits))
	}
	dim := len(inputs[0])
	q := &Quantizer{Min: make([]float64, dim), Max: make([]float64, dim), Bits: bits}
	copy(q.Min, inputs[0])
	copy(q.Max, inputs[0])
	for _, v := range inputs[1:] {
		if len(v) != dim {
			panic("misr: FitQuantizer dimension mismatch")
		}
		for i, x := range v {
			if x < q.Min[i] {
				q.Min[i] = x
			}
			if x > q.Max[i] {
				q.Max[i] = x
			}
		}
	}
	for i := range q.Min {
		if q.Max[i]-q.Min[i] < 1e-12 {
			q.Max[i] = q.Min[i] + 1
		}
	}
	return q
}

// QuantizeAt writes the fixed-point words of features lo..lo+len(dst)-1,
// read from in[lo:], into dst; each word is in [0, 2^Bits). Out-of-range
// values (±Inf included) saturate, and NaN maps to word 0: Go leaves the
// conversion of NaN to an integer implementation-defined, and a word
// outside the range would index past the classifier's lookup rows.
func (q *Quantizer) QuantizeAt(lo int, in []float64, dst []uint16) {
	hi := lo + len(dst)
	mins, maxs, xs := q.Min[lo:hi], q.Max[lo:hi], in[lo:hi]
	levels := float64(uint32(1)<<uint(q.Bits)) - 1
	for i := range dst {
		r := (xs[i] - mins[i]) / (maxs[i] - mins[i])
		if r != r {
			dst[i] = 0
			continue
		}
		dst[i] = uint16(mathx.Clamp(r, 0, 1) * levels)
	}
}

// Dim returns the quantizer's feature dimension.
func (q *Quantizer) Dim() int { return len(q.Min) }
