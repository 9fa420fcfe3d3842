package classifier

import (
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

// refIndices hashes in under every table the way the paper's MISRs do:
// quantize, gather each table's projected words, fold them through
// misr.Hasher.Hash.
func refIndices(tab *Table, in []float64) []uint32 {
	idx := make([]uint32, len(tab.hashers))
	for ti, h := range tab.hashers {
		words := make([]uint16, len(tab.proj[ti]))
		for i, p := range tab.proj[ti] {
			words[i] = refWord(tab.quant, p, in[p])
		}
		idx[ti] = h.Hash(words)
	}
	return idx
}

// refClassify is Classify's reference: per-table Hash, one bit read per
// table, combineFlags.
func refClassify(tab *Table, in []float64) bool {
	flags := 0
	for ti, idx := range refIndices(tab, in) {
		if getBit(tab.bitsets[ti], idx) {
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
		sig := tab.lut.sign(in)
		for ti, want := range refIndices(tab, in) {
			if got := sig.index(ti); got != want {
				t.Fatalf("%s: input %d table %d: index %#x, reference %#x", name, i, ti, got, want)
			}
		}
		if got, want := tab.Classify(in), refClassify(tab, in); got != want {
			t.Fatalf("%s: input %d: Classify=%v, reference=%v", name, i, got, want)
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

// jpegShapedTable trains the default geometry (8 projected tables of
// 0.5 KB, QuantBits 6) on 64-wide inputs, the shape of jpeg's table.
func jpegShapedTable(tb testing.TB) *Table {
	tb.Helper()
	tab, err := TrainTable(DefaultTableConfig(), syntheticSamples(mathx.NewRNG(55), 2000, 64, 0.1))
	if err != nil {
		tb.Fatal(err)
	}
	return tab
}

// TestTableClassifyZeroAlloc pins the bench harness's table_classify_64d
// row: a decision allocates nothing.
func TestTableClassifyZeroAlloc(t *testing.T) {
	tab := jpegShapedTable(t)
	ins := testInputs(mathx.NewRNG(56), 32, 64)
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		sinkBool = tab.Classify(ins[i%len(ins)])
		i++
	})
	if allocs != 0 {
		t.Fatalf("Table.Classify allocates %.1f times per decision", allocs)
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

// TestQuantizeNonFinite: NaN quantizes to word 0 and infinities saturate,
// at every width.
func TestQuantizeNonFinite(t *testing.T) {
	for bits := 1; bits <= 16; bits++ {
		q := &misr.Quantizer{Min: []float64{-1}, Max: []float64{2}, Bits: bits}
		top := uint16(1<<bits - 1)
		for _, c := range []struct {
			x    float64
			want uint16
		}{{math.NaN(), 0}, {math.Inf(1), top}, {math.Inf(-1), 0},
			{math.MaxFloat64, top}, {-math.MaxFloat64, 0}} {
			var got [1]uint16
			if q.QuantizeAt(0, []float64{c.x}, got[:]); got[0] != c.want {
				t.Errorf("bits %d: QuantizeAt(%v) = %d, want %d", bits, c.x, got[0], c.want)
			}
		}
	}
}

// BenchmarkTableClassify64 is table_classify_64d as a Go benchmark.
func BenchmarkTableClassify64(b *testing.B) {
	tab := jpegShapedTable(b)
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
	tab := jpegShapedTable(b)
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
