package misr

import (
	"testing"

	"mithra/internal/mathx"
)

// The MISR micro-benchmarks pin the signature-hashing stage of the serve
// decide path (DESIGN.md §12): single-vector hashing and projected
// hashing. All of them must report 0 allocs/op — the hash is the innermost loop of every served decision.

func benchWords(n int) []uint16 {
	rng := mathx.NewRNG(3)
	w := make([]uint16, n)
	for i := range w {
		w[i] = uint16(rng.Uint64())
	}
	return w
}

func BenchmarkHash(b *testing.B) {
	h := NewHasher(Pool()[0], 12)
	words := benchWords(16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkU32 = h.Hash(words)
	}
}

func BenchmarkHashReference(b *testing.B) {
	h := NewHasher(Pool()[0], 12)
	words := benchWords(16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkU32 = hashReference(h, words)
	}
}

func BenchmarkHashIndexed(b *testing.B) {
	h := NewHasher(Pool()[0], 12)
	words := benchWords(16)
	idx := []int{0, 1, 3, 4, 6, 7, 9, 10, 12, 13, 15}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkU32 = h.HashIndexed(words, idx)
	}
}

func BenchmarkQuantize(b *testing.B) {
	rng := mathx.NewRNG(5)
	in := make([]float64, 16)
	samples := [][]float64{in}
	for i := range in {
		in[i] = rng.Float64()
	}
	q := FitQuantizerBits(samples, 6)
	dst := make([]uint16, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Quantize(in, dst)
	}
}

// sinkU32 defeats dead-code elimination in the hash benchmarks.
var sinkU32 uint32
