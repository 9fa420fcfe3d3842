package misr

import (
	"testing"

	"mithra/internal/mathx"
)

func TestPoolProperties(t *testing.T) {
	pool := Pool()
	if len(pool) != 16 {
		t.Fatalf("pool size %d, want 16", len(pool))
	}
	seen := map[Config]bool{}
	for i, c := range pool {
		if seen[c] {
			t.Errorf("duplicate config at %d: %+v", i, c)
		}
		seen[c] = true
		if c.Steps < 1 || c.Steps > 3 {
			t.Errorf("config %d has steps %d", i, c.Steps)
		}
		if c.Taps == 0 {
			t.Errorf("config %d has zero taps", i)
		}
	}
}

func TestNewHasherWidthValidation(t *testing.T) {
	cfg := Pool()[0]
	for _, w := range []int{3, 17, 0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("width %d should panic", w)
				}
			}()
			NewHasher(cfg, w)
		}()
	}
	for _, w := range []int{4, 10, 12, 16} {
		h := NewHasher(cfg, w)
		if h.Width() != w {
			t.Errorf("Width() = %d, want %d", h.Width(), w)
		}
	}
}

func TestHashInRange(t *testing.T) {
	rng := mathx.NewRNG(1)
	for _, width := range []int{4, 10, 12, 16} {
		limit := uint32(1) << uint(width)
		for ci, cfg := range Pool() {
			h := NewHasher(cfg, width)
			for trial := 0; trial < 200; trial++ {
				n := 1 + rng.Intn(20)
				words := make([]uint16, n)
				for i := range words {
					words[i] = uint16(rng.Uint64())
				}
				if got := h.Hash(words); got >= limit {
					t.Fatalf("config %d width %d: hash %d out of range", ci, width, got)
				}
			}
		}
	}
}

func TestHashDeterministic(t *testing.T) {
	h := NewHasher(Pool()[3], 12)
	words := []uint16{1, 2, 3, 4, 5}
	if h.Hash(words) != h.Hash(words) {
		t.Fatal("hash not deterministic")
	}
}

func TestHashSensitivity(t *testing.T) {
	// Flipping any single bit of any word should change the index for
	// most configs — a weak avalanche check.
	h := NewHasher(Pool()[0], 12)
	base := []uint16{0x1234, 0xABCD, 0x5555, 0x0F0F}
	ref := h.Hash(base)
	changed := 0
	total := 0
	for wi := range base {
		for bit := 0; bit < 16; bit++ {
			mod := append([]uint16(nil), base...)
			mod[wi] ^= 1 << uint(bit)
			total++
			if h.Hash(mod) != ref {
				changed++
			}
		}
	}
	if float64(changed)/float64(total) < 0.9 {
		t.Errorf("only %d/%d single-bit flips changed the index", changed, total)
	}
}

func TestHashOrderSensitivity(t *testing.T) {
	// MISRs are order-sensitive by construction (the register shifts
	// between words). Since the LFSR is linear over GF(2), individual
	// reversals can collide, so the property is checked statistically.
	h := NewHasher(Pool()[2], 12)
	rng := mathx.NewRNG(3)
	differ := 0
	const trials = 200
	for i := 0; i < trials; i++ {
		words := make([]uint16, 5)
		for j := range words {
			words[j] = uint16(rng.Uint64())
		}
		rev := make([]uint16, len(words))
		for j := range words {
			rev[j] = words[len(words)-1-j]
		}
		if h.Hash(words) != h.Hash(rev) {
			differ++
		}
	}
	if float64(differ)/trials < 0.9 {
		t.Errorf("only %d/%d reversals changed the index", differ, trials)
	}
}

func TestConfigsDisagree(t *testing.T) {
	// Different pool configurations should map the same input vector to
	// different indices most of the time — that is the whole point of the
	// multi-table ensemble.
	rng := mathx.NewRNG(5)
	pool := Pool()
	hashers := make([]*Hasher, len(pool))
	for i, c := range pool {
		hashers[i] = NewHasher(c, 12)
	}
	const trials = 300
	pairAgree := 0
	pairTotal := 0
	for trial := 0; trial < trials; trial++ {
		words := make([]uint16, 6)
		for i := range words {
			words[i] = uint16(rng.Uint64())
		}
		idx := make([]uint32, len(hashers))
		for i, h := range hashers {
			idx[i] = h.Hash(words)
		}
		for i := 0; i < len(idx); i++ {
			for j := i + 1; j < len(idx); j++ {
				pairTotal++
				if idx[i] == idx[j] {
					pairAgree++
				}
			}
		}
	}
	frac := float64(pairAgree) / float64(pairTotal)
	if frac > 0.01 {
		t.Errorf("pool configs agree on %.2f%% of vectors; want near-independent (<1%%)", frac*100)
	}
}

func TestHashDistribution(t *testing.T) {
	// Hashing random vectors should fill a good fraction of a small
	// table (no catastrophic clustering).
	h := NewHasher(Pool()[1], 10)
	rng := mathx.NewRNG(7)
	seen := map[uint32]bool{}
	const n = 4096
	for i := 0; i < n; i++ {
		words := make([]uint16, 4)
		for j := range words {
			words[j] = uint16(rng.Uint64())
		}
		seen[h.Hash(words)] = true
	}
	// With 4096 draws into 1024 buckets, expected fill is ~98%.
	if len(seen) < 900 {
		t.Errorf("only %d/1024 buckets used; hash is clustering", len(seen))
	}
}

func TestVaryingInputLengths(t *testing.T) {
	// Requirement (4): the hash must accept any number of input elements.
	h := NewHasher(Pool()[4], 12)
	for _, n := range []int{1, 2, 6, 9, 18, 64} {
		words := make([]uint16, n)
		for i := range words {
			words[i] = uint16(i * 1000)
		}
		_ = h.Hash(words) // must not panic
	}
}

func TestFoldWord(t *testing.T) {
	if got := foldWord(0xFFFF, 16); got != 0xFFFF {
		t.Errorf("identity fold = %x", got)
	}
	// Width 8: 0xAB ^ 0xCD.
	if got := foldWord(0xABCD, 8); got != 0xAB^0xCD {
		t.Errorf("fold(0xABCD, 8) = %x, want %x", got, 0xAB^0xCD)
	}
	if got := foldWord(0, 10); got != 0 {
		t.Errorf("fold(0) = %x", got)
	}
}

// quantize returns the quantized words of a whole input vector.
func quantize(q *Quantizer, in []float64) []uint16 {
	dst := make([]uint16, q.Dim())
	for i := range dst {
		dst[i] = uint16(Word(in[i], q.Min[i], q.Max[i]-q.Min[i], q.Levels()))
	}
	return dst
}

func TestQuantizer(t *testing.T) {
	q := FitQuantizer([][]float64{{0, -1, 100}, {10, 1, 200}})
	got := quantize(q, []float64{5, 0, 150})
	for i, v := range got {
		if v < 30000 || v > 36000 {
			t.Errorf("midpoint dim %d quantized to %d, want ~32767", i, v)
		}
	}
	// Saturation.
	got = quantize(q, []float64{-100, 100, 1e9})
	if got[0] != 0 || got[1] != 65535 || got[2] != 65535 {
		t.Errorf("saturation failed: %v", got)
	}
	if q.Dim() != 3 {
		t.Errorf("Dim = %d", q.Dim())
	}
}

func TestQuantizerConstantFeature(t *testing.T) {
	q := FitQuantizer([][]float64{{5, 1}, {5, 2}})
	got := quantize(q, []float64{5, 1.5})
	if got[0] != 0 {
		t.Errorf("constant feature quantized to %d", got[0])
	}
}

func TestQuantizerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("empty FitQuantizer should panic")
		}
	}()
	FitQuantizer(nil)
}

func TestQuantizerPreservesLocality(t *testing.T) {
	// Nearby floats should quantize to nearby words (the table classifier
	// depends on aliasing being about hash structure, not quantization
	// noise).
	q := FitQuantizer([][]float64{{0}, {1}})
	a := quantize(q, []float64{0.5})[0]
	b := quantize(q, []float64{0.500001})[0]
	if a != b && b != a+1 {
		t.Errorf("adjacent values quantized far apart: %d vs %d", a, b)
	}
}
