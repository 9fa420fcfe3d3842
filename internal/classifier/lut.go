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
// then a quantize and chunks-per-word row XORs per element, in place of
// one LFSR fold per projected word per table. It is derived state, built
// from the hashers and projections that Encode stores, and read-only
// after construction: clones and views share it.
type lut struct {
	quant *misr.Quantizer
	// konst packs every table's affine constant.
	konst signature
	// chunks is the number of lutChunkBits slices per word.
	chunks int
	// rows[j][(p*chunks+k)*lutChunkRows+u] is packed word j of the
	// contribution of input element p when chunk k of its word is u;
	// len(rows) is ceil(tables/4).
	rows [][]uint64
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
	l := &lut{quant: quant, chunks: (quant.Bits + lutChunkBits - 1) / lutChunkBits}
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
	l.rows = make([][]uint64, nw)
	for j := range l.rows {
		rj := make([]uint64, dim*l.chunks*lutChunkRows)
		for p := 0; p < dim; p++ {
			for k := 0; k < l.chunks; k++ {
				row := rj[(p*l.chunks+k)*lutChunkRows:][:lutChunkRows]
				for b := 0; b < lutChunkBits; b++ {
					e := elem[(p*nbits+k*lutChunkBits+b)*nw+j]
					for u := 0; u < 1<<b; u++ {
						row[u|1<<b] = row[u] ^ e
					}
				}
			}
		}
		l.rows[j] = rj
	}
	return l, nil
}

// sign returns the packed index of in under every table. It quantizes a
// block of elements at a time, then sums each packed word's rows over the
// block with the accumulator in a register.
//
//mithra:hotpath
func (l *lut) sign(in []float64) signature {
	s := l.konst
	q, chunks := l.quant, l.chunks
	var block [64]uint16
	for lo := 0; lo < len(q.Min); lo += len(block) {
		ws := block[:min(len(block), len(q.Min)-lo)]
		q.QuantizeAt(lo, in, ws)
		for j, rj := range l.rows {
			a, row := s[j], lo*chunks*lutChunkRows
			for _, w := range ws {
				v := uint(w)
				for k := 0; k < chunks; k++ {
					a ^= rj[row+int(v%lutChunkRows)]
					v >>= lutChunkBits
					row += lutChunkRows
				}
			}
			s[j] = a
		}
	}
	return s
}
