package classifier

import (
	"fmt"

	"mithra/internal/misr"
)

// MaxInputDim bounds the input width of a table classifier. It is the one
// input-width cap of the repository: serve.MaxInputDim refers to it, and
// DecodeTable refuses wider quantizers, so a table pushed by a peer can
// never demand a larger lookup table than the bound below.
const MaxInputDim = 4096

// lutChunkBits is the width of the word slices the lookup table indexes.
// A word of QuantBits bits is split into ceil(QuantBits/4) chunks of 16
// rows each, so the largest table DecodeTable accepts — MaxInputDim
// inputs, 16 tables (4 packed words per row), 16-bit words (4 chunks) —
// needs 4096 × 4 × 16 × 4 × 8 B = 8 MiB. A single chunk per word would
// need 2^16 rows per input at 16 bits.
const lutChunkBits = 4

const lutChunkRows = 1 << lutChunkBits

// maxPacked is the packed-signature width: 4 tables of 16-bit indices
// per uint64, up to the pool's 16 tables.
const maxPacked = 4

// signature holds every table's index for one input, table t in bits
// 16*(t%4) of word t/4.
type signature [maxPacked]uint64

// index returns table t's index from the packed signature.
func (s *signature) index(t int) uint32 {
	return uint32(s[t>>2]>>(16*(t&3))) & 0xffff
}

// lut is the ensemble's hash in affine form (misr.Hasher.Affine): every
// table's MISR index is a constant XOR one contribution per projected
// input word, and the contributions of one input element to all tables
// are summed into one packed row per chunk value. Indexing an input is
// then one pass over its elements: quantize, and XOR one row per chunk
// into the signature, in place of one LFSR fold per projected word per
// table. It is derived state, built from the hashers and projections
// that Encode stores, and read-only after construction: clones and views
// share it.
type lut struct {
	// ranges[p] is element p's quantizer range as misr.Word takes it:
	// Min[p] and the width Max[p] − Min[p].
	ranges [][2]float64
	// levels is the quantizer's top word, 2^Bits − 1.
	levels float64
	// konst packs every table's affine constant.
	konst signature
	// chunks is the number of lutChunkBits slices per word, and words
	// the number of packed words per row, ceil(tables/4).
	chunks, words int
	// rows[((p*chunks+k)*lutChunkRows+u)*words+j] is packed word j of
	// the contribution of input element p when chunk k of its word is u:
	// a row's words are adjacent, so one lookup reads one element's
	// contribution to every table. maxPacked-1 zero words of padding
	// follow the last row, so every lookup can read maxPacked words.
	rows []uint64
}

// newLUT builds the lookup table for tables hashing the projections
// projs[t] of quant's words through hashers[t] (at most 16 tables). It
// is where a trained table and a decoded one both get their quantizer
// checked: a feature range that is not a finite, non-empty interval is
// refused (misr.Quantizer.Validate).
func newLUT(quant *misr.Quantizer, hashers []*misr.Hasher, projs [][]int) (*lut, error) {
	if err := quant.Validate(); err != nil {
		return nil, fmt.Errorf("classifier: %w", err)
	}
	nw, dim := (len(hashers)+3)/4, quant.Dim()
	l := &lut{
		ranges: make([][2]float64, dim),
		levels: quant.Levels(),
		chunks: (quant.Bits + lutChunkBits - 1) / lutChunkBits,
		words:  nw,
	}
	for p := range l.ranges {
		l.ranges[p] = [2]float64{quant.Min[p], quant.Max[p] - quant.Min[p]}
	}
	nbits := l.chunks * lutChunkBits
	// elem[(p*nbits+b)*nw+j] is packed word j of the image of bit b of
	// element p's word: the XOR over every table and position that
	// projects p.
	elem := make([]uint64, dim*nbits*nw)
	for t, h := range hashers {
		j, shift := t>>2, uint(16*(t&3))
		c, img := h.Affine(len(projs[t]))
		l.konst[j] |= uint64(c) << shift
		for i, p := range projs[t] {
			e := elem[p*nbits*nw:]
			for b := 0; b < nbits; b++ {
				e[b*nw+j] ^= uint64(img[i][b]) << shift
			}
		}
	}
	// A chunk's row u is the XOR of its set bits' images: row u|1<<b is
	// row u ^ image of bit b, for every u below 1<<b.
	l.rows = make([]uint64, dim*l.chunks*lutChunkRows*nw+maxPacked-1)
	for pk := 0; pk < dim*l.chunks; pk++ {
		blk := l.rows[pk*lutChunkRows*nw:][:lutChunkRows*nw]
		for b := 0; b < lutChunkBits; b++ {
			e := elem[(pk*lutChunkBits+b)*nw:][:nw]
			for u := 0; u < 1<<b; u++ {
				src, dst := blk[u*nw:][:nw], blk[(u|1<<b)*nw:][:nw]
				for j, ej := range e {
					dst[j] = src[j] ^ ej
				}
			}
		}
	}
	return l, nil
}

// sign returns the packed index of in under every table, in one pass
// over the input: each element is quantized once, by misr.Word's
// division and clamp, and each of its chunks XORs one row into every
// packed word of the signature, held in locals. A lookup slices
// maxPacked words at a constant length, so the reads need no further
// bounds checks; ensembles of at most 8 tables (2 packed words) skip the
// upper two, and with 3 packed words the fourth accumulator collects the
// next row's first word and is cleared at the end. Chunk counts 1
// (QuantBits ≤ 4) and 2 (QuantBits ≤ 8) get straight-line bodies, wider
// words a chunk loop.
//
//mithra:hotpath
func (l *lut) sign(in []float64) signature {
	ranges := l.ranges
	xs := in[:len(ranges)]
	levels, nw, rows := l.levels, uint(l.words), l.rows
	a0, a1, a2, a3 := l.konst[0], l.konst[1], l.konst[2], l.konst[3]
	wide := nw > 2
	step := lutChunkRows * nw
	base := uint(0)
	switch l.chunks {
	case 1:
		for p, x := range xs {
			o := base + misr.Word(x, ranges[p][0], ranges[p][1], levels)*nw
			r := rows[o : o+maxPacked : o+maxPacked]
			a0, a1 = a0^r[0], a1^r[1]
			if wide {
				a2, a3 = a2^r[2], a3^r[3]
			}
			base += step
		}
	case 2:
		for p, x := range xs {
			v := misr.Word(x, ranges[p][0], ranges[p][1], levels)
			o, q := base+v%lutChunkRows*nw, base+step+v/lutChunkRows*nw
			r, h := rows[o:o+maxPacked:o+maxPacked], rows[q:q+maxPacked:q+maxPacked]
			a0, a1 = a0^r[0]^h[0], a1^r[1]^h[1]
			if wide {
				a2, a3 = a2^r[2]^h[2], a3^r[3]^h[3]
			}
			base += 2 * step
		}
	default:
		stride := uint(l.chunks) * step
		for p, x := range xs {
			v := misr.Word(x, ranges[p][0], ranges[p][1], levels)
			for o := base; o < base+stride; o += step {
				q := o + v%lutChunkRows*nw
				r := rows[q : q+maxPacked : q+maxPacked]
				a0, a1 = a0^r[0], a1^r[1]
				if wide {
					a2, a3 = a2^r[2], a3^r[3]
				}
				v /= lutChunkRows
			}
			base += stride
		}
	}
	var s signature
	s[0], s[1], s[2], s[3] = a0, a1, a2, a3
	clear(s[nw:])
	return s
}
