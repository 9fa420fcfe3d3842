package classifier

import (
	"bytes"
	"encoding/gob"
	"math"
	"runtime"
	"testing"

	"mithra/internal/mathx"
	"mithra/internal/nn"
)

func trainedTestTable(t *testing.T) *Table {
	t.Helper()
	rng := mathx.NewRNG(21)
	samples := syntheticSamples(rng, 3000, 5, 0.08)
	tab, err := TrainTable(DefaultTableConfig(), samples)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestTableEncodeDecodeRoundTrip(t *testing.T) {
	tab := trainedTestTable(t)
	data, err := tab.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeTable(data)
	if err != nil {
		t.Fatal(err)
	}
	// The restored classifier must make identical decisions.
	rng := mathx.NewRNG(22)
	for i := 0; i < 2000; i++ {
		in := []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
		if tab.Classify(in) != back.Classify(in) {
			t.Fatalf("decision mismatch at trial %d", i)
		}
	}
	if back.Config() != tab.Config() {
		t.Error("config not preserved")
	}
	if back.Density() != tab.Density() {
		t.Error("table contents not preserved")
	}
}

func TestTableEncodeIsCompressed(t *testing.T) {
	// A sparse table's encoded form must be far smaller than the raw
	// bitsets (the binary-encoding motivation for BDI).
	rng := mathx.NewRNG(23)
	samples := syntheticSamples(rng, 500, 2, 0.02)
	tab, err := TrainTable(DefaultTableConfig(), samples)
	if err != nil {
		t.Fatal(err)
	}
	data, err := tab.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > tab.UncompressedBytes()/2 {
		t.Errorf("encoded size %d not compressed vs raw %d", len(data), tab.UncompressedBytes())
	}
}

func TestDecodeTableErrors(t *testing.T) {
	if _, err := DecodeTable([]byte("garbage")); err == nil {
		t.Error("garbage should fail")
	}
	if _, err := DecodeTable(nil); err == nil {
		t.Error("empty should fail")
	}
}

// A peer can push a short stream whose BDI header claims 4 GiB of
// table contents: DecodeTable must refuse it before allocating that.
func TestDecodeTableRefusesOversizedContents(t *testing.T) {
	data := hugeContentsStream(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeTable(data)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("stream claiming 4 GiB of contents decoded")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("DecodeTable allocated %d bytes before refusing a %d-byte stream", got, len(data))
	}
}

// A peer can push a table whose quantizer bounds are not a finite range
// (here [NaN, +Inf]), which would map every input to one word: DecodeTable
// must refuse every such shape, and still accept the finite stream it is
// built from.
func TestDecodeTableRefusesUnboundedQuantizer(t *testing.T) {
	if _, err := DecodeTable(unboundedQuantizerStream(t)); err == nil {
		t.Fatal("table with quantizer range [NaN, +Inf] decoded")
	}
	inf, nan := math.Inf(1), math.NaN()
	for _, r := range [][2]float64{{nan, 1}, {0, nan}, {-inf, 1}, {0, inf}, {1, 1}, {2, 1}, {-math.MaxFloat64, math.MaxFloat64}} {
		g := oneTable(TableConfig{NumTables: 1, TableBytes: 64}, []int{0})
		g.QuantMin, g.QuantMax = []float64{r[0]}, []float64{r[1]}
		if _, err := DecodeTable(encodeGobTable(t, g)); err == nil {
			t.Errorf("table with quantizer range [%g, %g] decoded", r[0], r[1])
		}
	}
	if _, err := DecodeTable(encodeGobTable(t, oneTable(TableConfig{NumTables: 1, TableBytes: 64}, []int{0}))); err != nil {
		t.Fatalf("finite quantizer range refused: %v", err)
	}
}

func TestNeuralEncodeDecodeRoundTrip(t *testing.T) {
	rng := mathx.NewRNG(24)
	samples := syntheticSamples(rng, 800, 3, 0.15)
	opts := DefaultNeuralOptions()
	opts.HiddenSizes = []int{4}
	opts.Train.Epochs = 20
	opts.Bias = 0.2
	neu, err := TrainNeural(3, samples, opts)
	if err != nil {
		t.Fatal(err)
	}
	data, err := neu.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeNeural(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		in := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		if neu.Classify(in) != back.Classify(in) {
			t.Fatalf("decision mismatch at trial %d", i)
		}
	}
	if back.Bias() != 0.2 {
		t.Errorf("bias not preserved: %v", back.Bias())
	}
	if back.Overhead() != neu.Overhead() {
		t.Error("overhead not preserved")
	}
	if back.SizeBytes() != neu.SizeBytes() {
		t.Error("size not preserved")
	}
}

func TestDecodeNeuralErrors(t *testing.T) {
	if _, err := DecodeNeural([]byte{1, 2, 3}); err == nil {
		t.Error("garbage should fail")
	}
}

// TestDecodeNeuralRefusesMalformedShapes encodes neural classifiers whose
// weights, biases or scaler disagree with Sizes; each must fail to decode
// rather than panic on first Classify.
func TestDecodeNeuralRefusesMalformedShapes(t *testing.T) {
	valid := func() gobNeural {
		n := nn.New([]int{3, 2, 2}, nn.Classification(2), mathx.NewRNG(1))
		return gobNeural{Sizes: n.Sizes, W: n.W, B: n.B,
			ScaleMin: []float64{0, 0, 0}, ScaleMax: []float64{1, 1, 1}}
	}
	cases := map[string]func(g *gobNeural){
		"short first row":    func(g *gobNeural) { g.W[0][1] = g.W[0][1][:2] },
		"long output row":    func(g *gobNeural) { g.W[1][0] = append(g.W[1][0], 1) },
		"missing row":        func(g *gobNeural) { g.W[1] = g.W[1][:1] },
		"missing bias":       func(g *gobNeural) { g.B[0] = g.B[0][:1] },
		"missing bias layer": func(g *gobNeural) { g.B = g.B[:1] },
		"zero width":         func(g *gobNeural) { g.Sizes = []int{3, 0, 2} },
		"negative width":     func(g *gobNeural) { g.Sizes = []int{3, -2, 2} },
		"no layers":          func(g *gobNeural) { g.Sizes = nil },
		"one output neuron":  func(g *gobNeural) { g.Sizes[2], g.W[1], g.B[1] = 1, g.W[1][:1], g.B[1][:1] },
		"scaler width":       func(g *gobNeural) { g.ScaleMax = g.ScaleMax[:2] },
	}
	encode := func(g gobNeural) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(g); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if _, err := DecodeNeural(encode(valid())); err != nil {
		t.Fatalf("valid classifier refused: %v", err)
	}
	for name, corrupt := range cases {
		g := valid()
		corrupt(&g)
		if n, err := DecodeNeural(encode(g)); err == nil {
			t.Errorf("%s: decoded with nil error (topology %v)", name, n.Topology())
		}
	}
}
