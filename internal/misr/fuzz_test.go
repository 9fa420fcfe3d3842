package misr

import (
	"encoding/binary"
	"testing"
)

// wordsFrom packs fuzz bytes into the 16-bit words a MISR consumes.
func wordsFrom(data []byte) []uint16 {
	words := make([]uint16, len(data)/2)
	for i := range words {
		words[i] = binary.LittleEndian.Uint16(data[2*i:])
	}
	return words
}

// FuzzHashDeterminism drives every pool configuration with arbitrary word
// streams at arbitrary widths: the index must stay in [0, 2^width), and
// the signature must be a pure function of (config, width, words) — the
// same across repeated Hash calls and across hasher instances. That
// purity is what lets the parallel evaluation engine hand each worker its
// own cloned table without changing any decision.
func FuzzHashDeterminism(f *testing.F) {
	f.Add([]byte{}, uint8(8))
	f.Add([]byte{0x01, 0x02, 0x03, 0x04}, uint8(4))
	f.Add([]byte{0xFF, 0xFF, 0x00, 0x00, 0xAA, 0x55}, uint8(16))
	f.Add([]byte{0xDE, 0xAD, 0xBE, 0xEF, 0xCA, 0xFE, 0xBA, 0xBE}, uint8(10))
	f.Fuzz(func(t *testing.T, data []byte, widthRaw uint8) {
		if len(data) > 1<<12 {
			return
		}
		width := 4 + int(widthRaw)%13 // [4, 16]
		words := wordsFrom(data)
		pool := Pool()
		if len(pool) != 16 {
			t.Fatalf("pool size %d, want 16", len(pool))
		}
		for ci, cfg := range pool {
			h := NewHasher(cfg, width)
			if h.Width() != width {
				t.Fatalf("config %d: width %d, want %d", ci, h.Width(), width)
			}
			idx := h.Hash(words)
			if idx >= 1<<uint(width) {
				t.Fatalf("config %d: index %d outside [0, 2^%d)", ci, idx, width)
			}
			if again := h.Hash(words); again != idx {
				t.Fatalf("config %d: repeated hash %d != %d (stateful hasher)", ci, again, idx)
			}
			if fresh := NewHasher(cfg, width).Hash(words); fresh != idx {
				t.Fatalf("config %d: fresh hasher %d != %d", ci, fresh, idx)
			}
		}
	})
}

// FuzzQuantizeHash drives the full classifier indexing pipeline —
// calibrate, quantize, hash — with arbitrary float inputs: quantized
// words must respect the fixed-point width, out-of-range inputs must
// saturate rather than wrap, and the pipeline must be deterministic and
// panic-free for every pool configuration.
func FuzzQuantizeHash(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(8), uint8(3))
	f.Add([]byte{0, 0, 0, 0}, uint8(1), uint8(1))
	f.Add([]byte{0xFF, 0x7F, 0x00, 0x80, 0x34, 0x12}, uint8(3), uint8(16))
	f.Fuzz(func(t *testing.T, data []byte, dimRaw, bitsRaw uint8) {
		if len(data) < 2 || len(data) > 1<<12 {
			return
		}
		dim := 1 + int(dimRaw)%8
		bits := 1 + int(bitsRaw)%16
		// Interpret the bytes as int16 features, row-major.
		flat := wordsFrom(data)
		if len(flat) < dim {
			return
		}
		var inputs [][]float64
		for o := 0; o+dim <= len(flat); o += dim {
			row := make([]float64, dim)
			for j := range row {
				row[j] = float64(int16(flat[o+j]))
			}
			inputs = append(inputs, row)
		}
		q := FitQuantizerBits(inputs, bits)
		if q.Dim() != dim {
			t.Fatalf("quantizer dim %d, want %d", q.Dim(), dim)
		}
		limit := uint16(uint32(1)<<uint(bits) - 1)
		h := NewHasher(Pool()[0], 10)
		for _, in := range inputs {
			words := quantize(q, in)
			for j, w := range words {
				if w > limit {
					t.Fatalf("word %d = %d exceeds %d-bit limit %d", j, w, bits, limit)
				}
			}
			first := append([]uint16(nil), words...)
			if idx := h.Hash(words); idx >= 1<<10 {
				t.Fatalf("index %d out of range", idx)
			}
			for j, w := range quantize(q, in) {
				if w != first[j] {
					t.Fatal("quantization not deterministic")
				}
			}
		}
		// Saturation: values beyond the calibrated range clamp to the
		// extreme levels instead of wrapping.
		over := make([]float64, dim)
		under := make([]float64, dim)
		for j := range over {
			over[j] = q.Max[j] + 1e6
			under[j] = q.Min[j] - 1e6
		}
		for j, w := range quantize(q, over) {
			if w != limit {
				t.Fatalf("over-range feature %d quantized to %d, want %d", j, w, limit)
			}
		}
		for j, w := range quantize(q, under) {
			if w != 0 {
				t.Fatalf("under-range feature %d quantized to %d, want 0", j, w)
			}
		}
	})
}
