package classifier

import (
	"math"
	"runtime"
	"testing"

	"mithra/internal/mathx"
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

func TestDTreeEncodeDecodeRoundTrip(t *testing.T) {
	rng := mathx.NewRNG(25)
	samples := syntheticSamples(rng, 1500, 4, 0.12)
	tree, err := TrainDTree(4, samples, DefaultDTreeOptions())
	if err != nil {
		t.Fatal(err)
	}
	data, err := tree.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeDTree(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		in := []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
		if tree.Classify(in) != back.Classify(in) {
			t.Fatalf("decision mismatch at trial %d", i)
		}
	}
	if back.Nodes() != tree.Nodes() {
		t.Errorf("node count not preserved: %d != %d", back.Nodes(), tree.Nodes())
	}
	if back.Overhead() != tree.Overhead() {
		t.Error("overhead (depth) not preserved")
	}
	if back.SizeBytes() != tree.SizeBytes() {
		t.Error("size not preserved")
	}
}

func TestDecodeDTreeErrors(t *testing.T) {
	if _, err := DecodeDTree([]byte("garbage")); err == nil {
		t.Error("garbage should fail")
	}
	if _, err := DecodeDTree(nil); err == nil {
		t.Error("empty should fail")
	}
	// A structurally valid gob whose child links point out of range must
	// be rejected, not walked.
	corrupt := &DTree{dim: 2, depth: 3, nodes: []dtreeNode{
		{feature: 0, thresh: 0.5, left: 7, right: 9},
	}}
	data, err := corrupt.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeDTree(data); err == nil {
		t.Error("out-of-range child links should fail")
	}
	badFeature := &DTree{dim: 2, depth: 3, nodes: []dtreeNode{
		{feature: 5, thresh: 0.5, left: 1, right: 2},
		{feature: -1}, {feature: -1},
	}}
	data, err = badFeature.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeDTree(data); err == nil {
		t.Error("out-of-range feature index should fail")
	}
}

func TestRegressorEncodeDecodeRoundTrip(t *testing.T) {
	rng := mathx.NewRNG(26)
	dim := 3
	samples := make([]RegSample, 1200)
	for i := range samples {
		in := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		// A smooth synthetic error surface the quadratic model can fit.
		e := 0.3*in[0] + 0.5*in[1]*in[1] + 0.1*in[2] + 0.02*(rng.Float64()-0.5)
		samples[i] = RegSample{In: in, Err: e}
	}
	reg, err := TrainRegressor(dim, samples, 0.4, DefaultRegressorOptions())
	if err != nil {
		t.Fatal(err)
	}
	data, err := reg.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeRegressor(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		in := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		if reg.Predict(in) != back.Predict(in) {
			t.Fatalf("prediction mismatch at trial %d", i)
		}
		if reg.Classify(in) != back.Classify(in) {
			t.Fatalf("decision mismatch at trial %d", i)
		}
	}
	if back.Overhead() != reg.Overhead() {
		t.Error("overhead not preserved")
	}
	if back.SizeBytes() != reg.SizeBytes() {
		t.Error("size not preserved")
	}
}

func TestDecodeRegressorErrors(t *testing.T) {
	if _, err := DecodeRegressor([]byte("garbage")); err == nil {
		t.Error("garbage should fail")
	}
	// Weight/dim mismatch must be rejected before Predict can index
	// outside the weight slice.
	mismatch := &Regressor{w: []float64{1, 2, 3}, dim: 4, th: 0.1}
	data, err := mismatch.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeRegressor(data); err == nil {
		t.Error("weight/dim mismatch should fail")
	}
}
