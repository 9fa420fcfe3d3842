package classifier

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"mithra/internal/bdi"
	"mithra/internal/mathx"
	"mithra/internal/misr"
)

// refWord quantizes one element without misr.Quantizer: saturate
// out-of-range values, and map NaN to word 0.
func refWord(q *misr.Quantizer, i int, x float64) uint16 {
	r := (x - q.Min[i]) / (q.Max[i] - q.Min[i])
	levels := float64(uint32(1)<<uint(q.Bits)) - 1
	switch {
	case math.IsNaN(r), r <= 0:
		return 0
	case r >= 1:
		return uint16(levels)
	}
	return uint16(r * levels)
}

// refSign hashes in under every table the way the paper's MISRs do:
// quantize, gather table t's projected words projs[t], fold them through
// hashers[t].Hash.
func refSign(q *misr.Quantizer, hashers []*misr.Hasher, projs [][]int, in []float64) []uint32 {
	idx := make([]uint32, len(hashers))
	var words []uint16
	for ti, h := range hashers {
		words = words[:0]
		for _, p := range projs[ti] {
			words = append(words, refWord(q, p, in[p]))
		}
		idx[ti] = h.Hash(words)
	}
	return idx
}

// refIndices is refSign under tab's tables.
func refIndices(tab *Table, in []float64) []uint32 {
	return refSign(tab.quant, tab.hashers, tab.proj, in)
}

// refClassify is Classify's reference: one bit read per table at the
// per-table Hash indices idx, combineFlags.
func refClassify(tab *Table, idx []uint32) bool {
	flags := 0
	for ti, i := range idx {
		if getBit(tab.bitsets[ti], i) {
			flags++
		}
	}
	return combineFlags(tab.cfg.Combine, flags, len(tab.hashers))
}

// checkMatchesRef checks, for every input, each table's index and the
// decision against the reference.
func checkMatchesRef(t *testing.T, name string, tab *Table, ins [][]float64) {
	t.Helper()
	for i, in := range ins {
		sig, ref := tab.lut.sign(in), refIndices(tab, in)
		for ti, want := range ref {
			if got := sig.index(ti); got != want {
				t.Fatalf("%s: input %d %v: table %d index %#x, reference %#x", name, i, in, ti, got, want)
			}
		}
		if got, want := tab.Classify(in), refClassify(tab, ref); got != want {
			t.Fatalf("%s: input %d %v: Classify=%v, reference=%v", name, i, in, got, want)
		}
	}
}

// testInputs draws n dim-wide inputs, a tenth of them outside the
// training range and one with every non-finite and extreme value.
func testInputs(rng *mathx.RNG, n, dim int) [][]float64 {
	ins := make([][]float64, n)
	for i := range ins {
		ins[i] = make([]float64, dim)
		for d := range ins[i] {
			ins[i][d] = rng.Float64()
			if rng.Intn(10) == 0 {
				ins[i][d] = 3*rng.Float64() - 1
			}
		}
	}
	odd := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64}
	for d := range ins[0] {
		ins[0][d] = odd[d%len(odd)]
	}
	return ins
}

// TestClassifyMatchesHashReference: the lookup-table kernel decides
// exactly as a per-table MISR Hash does, for every combine rule and
// ensemble width (1–4 packed words), narrow and jpeg-wide inputs, on
// trained and decoded tables, and after an online update of a clone —
// which the original must not see.
func TestClassifyMatchesHashReference(t *testing.T) {
	rng := mathx.NewRNG(51)
	for _, dim := range []int{1, 3, 64} {
		samples := syntheticSamples(rng, 300, dim, 0.15)
		ins := testInputs(rng, 100, dim)
		for _, comb := range []Combine{CombineAny, CombineAll, CombineMajority} {
			for n := 1; n <= 16; n++ {
				cfg := TableConfig{NumTables: n, TableBytes: 64, Combine: comb, QuantBits: 1 + n%8, Project: true}
				tab, err := TrainTable(cfg, samples)
				if err != nil {
					t.Fatal(err)
				}
				checkMatchesRef(t, "trained", tab, ins)
				enc, err := tab.Encode()
				if err != nil {
					t.Fatal(err)
				}
				dec, err := DecodeTable(enc)
				if err != nil {
					t.Fatal(err)
				}
				checkMatchesRef(t, "decoded", dec, ins)

				before := tab.RawBytes()
				clone := tab.Clone()
				for _, in := range ins[:20] {
					clone.Update(in, true)
				}
				checkMatchesRef(t, "updated clone", clone, ins)
				for _, in := range ins[:20] {
					if !clone.Classify(in) && comb != CombineAll {
						t.Fatalf("dim %d %v n=%d: clone does not flag an input it was updated with", dim, comb, n)
					}
				}
				if string(tab.RawBytes()) != string(before) {
					t.Fatalf("dim %d %v n=%d: updating a clone changed the original", dim, comb, n)
				}
				checkMatchesRef(t, "original after clone update", tab, ins)
			}
		}
	}
}

// TestClassifyNonFiniteMatchesReference: NaN, ±Inf and ±MaxFloat64 in
// every position of a trained table's input decide as the reference.
func TestClassifyNonFiniteMatchesReference(t *testing.T) {
	tab, err := TrainTable(DefaultTableConfig(), syntheticSamples(mathx.NewRNG(52), 500, 3, 0.1))
	if err != nil {
		t.Fatal(err)
	}
	vals := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64, 0.05, 0.5}
	var ins [][]float64
	for _, a := range vals {
		for _, b := range vals {
			for _, c := range vals {
				ins = append(ins, []float64{a, b, c})
			}
		}
	}
	checkMatchesRef(t, "non-finite", tab, ins)
}

// TestUpdateSetsReferenceEntries: Update sets exactly the entries the
// per-table Hash reference names.
func TestUpdateSetsReferenceEntries(t *testing.T) {
	rng := mathx.NewRNG(53)
	tab, err := TrainTable(DefaultTableConfig(), syntheticSamples(rng, 500, 64, 0.1))
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range testInputs(rng, 50, 64) {
		tab.Update(in, true)
		for ti, idx := range refIndices(tab, in) {
			if !getBit(tab.bitsets[ti], idx) {
				t.Fatalf("table %d entry %d not set by Update", ti, idx)
			}
		}
	}
}

// wideTable trains geometry cfg on seeded 64-wide inputs, jpeg's input
// width.
func wideTable(tb testing.TB, cfg TableConfig) *Table {
	tb.Helper()
	tab, err := TrainTable(cfg, syntheticSamples(mathx.NewRNG(55), 2000, 64, 0.1))
	if err != nil {
		tb.Fatal(err)
	}
	return tab
}

// TestTableClassifyZeroAlloc pins the bench harness's table_classify_64d
// row — a decision allocates nothing — and holds the kernel to it at
// every row shape: chunk counts 1–4 (QuantBits 4, 8, 12, 16) × packed
// words 1–4 (4, 8, 12 and 16 tables).
func TestTableClassifyZeroAlloc(t *testing.T) {
	tabs := []*Table{wideTable(t, DefaultTableConfig())}
	for bits := 4; bits <= 16; bits += 4 {
		for n := 4; n <= 16; n += 4 {
			tabs = append(tabs, boundaryTable(t, boundaryQuant(bits), n))
		}
	}
	for _, tab := range tabs {
		ins := testInputs(mathx.NewRNG(56), 32, tab.InputDim())
		i := 0
		allocs := testing.AllocsPerRun(1000, func() {
			sinkBool = tab.Classify(ins[i%len(ins)])
			i++
		})
		if allocs != 0 {
			t.Errorf("QuantBits %d, %d tables: Table.Classify allocates %.1f times per decision",
				tab.quant.Bits, len(tab.hashers), allocs)
		}
	}
}

// TestDecodeTableRefusesWideQuantizer: a stream whose quantizer is one
// input wider than MaxInputDim is refused before its lookup table (8 MiB
// at this geometry) is built.
func TestDecodeTableRefusesWideQuantizer(t *testing.T) {
	g := oneTable(TableConfig{NumTables: 16, TableBytes: 64}, []int{0})
	g.QuantMin = make([]float64, MaxInputDim+1)
	g.QuantMax = make([]float64, MaxInputDim+1)
	for i := range g.QuantMax {
		g.QuantMax[i] = 1
	}
	g.QuantBits = 16
	g.MISRConfig = misr.Pool()
	g.Proj = make([][]int, 16)
	for i := range g.Proj {
		g.Proj[i] = []int{0}
	}
	g.Compressed = bdi.Compress(make([]byte, 16*64))
	data := encodeGobTable(t, g)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeTable(data)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatalf("a %d-input table stream decoded", MaxInputDim+1)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("DecodeTable allocated %d bytes before refusing a %d-byte stream", got, len(data))
	}
}

// boundaryQuant is a three-feature quantizer of width bits: a range
// whose width is no power of two, one inside (0, 1), and one whose
// bounds are subnormal.
func boundaryQuant(bits int) *misr.Quantizer {
	return &misr.Quantizer{Min: []float64{-1, 0.1, -4e-310}, Max: []float64{2, 0.7, 4e-310}, Bits: bits}
}

// boundaryTable builds, without training, the n-table classifier over q
// that hashes through the first n pool configurations, each with its
// pool projection, and holds seeded contents. At n = 16 its lookup table
// is the pool-wide one PrepareTable indexes every sample with.
func boundaryTable(tb testing.TB, q *misr.Quantizer, n int) *Table {
	tb.Helper()
	cfg := TableConfig{NumTables: n, TableBytes: 64, Combine: CombineMajority, QuantBits: q.Bits, Project: true}
	tab := &Table{
		cfg:     cfg,
		quant:   q,
		hashers: make([]*misr.Hasher, n),
		proj:    make([][]int, n),
		bitsets: make([][]uint64, n),
	}
	rng := mathx.NewRNG(uint64(57 + n))
	for i, pc := range misr.Pool()[:n] {
		tab.hashers[i] = misr.NewHasher(pc, cfg.indexWidth())
		tab.proj[i] = projection(cfg, i, q.Dim())
		tab.bitsets[i] = make([]uint64, cfg.TableBytes/8)
		for w := range tab.bitsets[i] {
			tab.bitsets[i][w] = rng.Uint64()
		}
	}
	var err error
	if tab.lut, err = newLUT(q, tab.hashers, tab.proj); err != nil {
		tb.Fatal(err)
	}
	return tab
}

// boundaryValues returns, for feature i of q, every level boundary
// lo + k·(hi−lo)/levels with both of its float64 neighbours, then ±0,
// the smallest and largest subnormals of both signs, ±Inf and NaN.
func boundaryValues(q *misr.Quantizer, i int) []float64 {
	lo, hi, levels := q.Min[i], q.Max[i], q.Levels()
	var vs []float64
	for k := 0.0; k <= levels; k++ {
		b := lo + k*(hi-lo)/levels
		vs = append(vs, math.Nextafter(b, math.Inf(-1)), b, math.Nextafter(b, math.Inf(1)))
	}
	const maxSub = 0x1p-1022 - 0x1p-1074
	return append(vs, 0, math.Copysign(0, -1), 0x1p-1074, -0x1p-1074, maxSub, -maxSub,
		math.Inf(1), math.Inf(-1), math.NaN())
}

// TestSignMatchesReferenceAtBoundaries: at every quantization level
// boundary of every feature, at both of its float64 neighbours, and at
// ±0, subnormals, ±Inf and NaN, the kernel indexes every table exactly as
// the per-table Hash reference does. Each QuantBits 1–16 gets its own
// table count 1–16, chosen so every chunk count meets every packed-word
// count once, and the 16-table pool lookup table. Random inputs almost
// never land on a boundary, where the quantizer's division and
// truncation decide the word.
func TestSignMatchesReferenceAtBoundaries(t *testing.T) {
	for bits := 1; bits <= 16; bits++ {
		q := boundaryQuant(bits)
		ns := []int{1 + 4*((bits-1)%4) + (bits-1)/4, 16}
		if ns[0] == 16 {
			ns = ns[:1]
		}
		for _, n := range ns {
			tab := boundaryTable(t, q, n)
			name := fmt.Sprintf("bits %d, %d tables", bits, n)
			for i := range q.Min {
				in := []float64{0.5, 0.4, 0}
				ins := [][]float64{in}
				for _, v := range boundaryValues(q, i) {
					in[i] = v
					checkMatchesRef(t, name, tab, ins)
				}
			}
		}
	}
}

// TestQuantizeNonFinite: NaN quantizes to word 0 and infinities
// saturate, at every width — in the reference quantizer, and in every
// table index the kernel computes from them.
func TestQuantizeNonFinite(t *testing.T) {
	for bits := 1; bits <= 16; bits++ {
		q := &misr.Quantizer{Min: []float64{-1}, Max: []float64{2}, Bits: bits}
		top := uint16(1<<bits - 1)
		tab := boundaryTable(t, q, 4)
		for _, c := range []struct {
			x    float64
			want uint16
		}{{math.NaN(), 0}, {math.Inf(1), top}, {math.Inf(-1), 0},
			{math.MaxFloat64, top}, {-math.MaxFloat64, 0}} {
			if got := refWord(q, 0, c.x); got != c.want {
				t.Errorf("bits %d: reference word of %v = %d, want %d", bits, c.x, got, c.want)
			}
			checkMatchesRef(t, "non-finite", tab, [][]float64{{c.x}})
		}
	}
}

// BenchmarkTableClassify64 is table_classify_64d as a Go benchmark.
func BenchmarkTableClassify64(b *testing.B) {
	tab := wideTable(b, DefaultTableConfig())
	ins := testInputs(mathx.NewRNG(56), 32, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkBool = tab.Classify(ins[i%len(ins)])
	}
}

// BenchmarkTableClassify64Q4 is table_classify_64d_q4 as a Go benchmark:
// the served jpeg geometry, QuantBits 4 and CombineAll.
func BenchmarkTableClassify64Q4(b *testing.B) {
	cfg := DefaultTableConfig()
	cfg.QuantBits, cfg.Combine = 4, CombineAll
	tab := wideTable(b, cfg)
	ins := testInputs(mathx.NewRNG(56), 32, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkBool = tab.Classify(ins[i%len(ins)])
	}
}

// BenchmarkLUTBuild is the lookup-table build a jpeg-shaped table pays in
// TrainTable and DecodeTable.
func BenchmarkLUTBuild(b *testing.B) {
	tab := wideTable(b, DefaultTableConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := newLUT(tab.quant, tab.hashers, tab.proj)
		if err != nil {
			b.Fatal(err)
		}
		sinkLUT = l
	}
}

var (
	sinkBool bool
	sinkLUT  *lut
)
