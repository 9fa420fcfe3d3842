package classifier

import (
	"math"
	"testing"
	"testing/quick"

	"mithra/internal/mathx"
)

// syntheticSamples builds a labeled set where badness is a deterministic
// function of the input region: inputs in a corner of the space are bad.
// This mimics the real situation — a small, input-dependent subset of
// invocations produces large accelerator errors.
func syntheticSamples(rng *mathx.RNG, n, dim int, badFrac float64) []Sample {
	samples := make([]Sample, n)
	for i := range samples {
		in := make([]float64, dim)
		for d := range in {
			in[d] = rng.Float64()
		}
		// Bad iff the first coordinate falls into a thin slab whose width
		// controls the bad fraction.
		samples[i] = Sample{In: in, Bad: in[0] < badFrac}
	}
	return samples
}

func TestRandomClassifier(t *testing.T) {
	r := NewRandom(0.7, 1)
	n, precise := 20000, 0
	for i := 0; i < n; i++ {
		if r.Classify(nil) {
			precise++
		}
	}
	frac := float64(precise) / float64(n)
	if math.Abs(frac-0.3) > 0.02 {
		t.Errorf("precise fraction %v, want ~0.3", frac)
	}
	if r.Name() != "random" || r.SizeBytes() <= 0 || r.Overhead().Cycles < 0 {
		t.Error("random classifier metadata wrong")
	}
}

func TestRandomRateValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("rate > 1 should panic")
		}
	}()
	NewRandom(1.5, 1)
}

func TestEvaluateCounts(t *testing.T) {
	// A classifier that always says "precise": every good sample is a
	// false positive, no false negatives.
	always := NewRandom(0, 1) // rate 0 => always precise
	samples := []Sample{
		{In: []float64{0}, Bad: false},
		{In: []float64{0}, Bad: false},
		{In: []float64{0}, Bad: true},
	}
	st := Evaluate(always, samples)
	if st.FalsePositives != 2 || st.FalseNegatives != 0 {
		t.Errorf("stats = %+v", st)
	}
	if math.Abs(st.FPRate()-2.0/3) > 1e-12 {
		t.Errorf("FPRate = %v", st.FPRate())
	}
	never := NewRandom(1, 1) // always accelerate
	st = Evaluate(never, samples)
	if st.FalsePositives != 0 || st.FalseNegatives != 1 {
		t.Errorf("stats = %+v", st)
	}
	empty := Evaluate(always, nil)
	if empty.FPRate() != 0 || empty.FNRate() != 0 {
		t.Error("empty stats should be zero")
	}
}

func TestTableConfigValidation(t *testing.T) {
	good := DefaultTableConfig()
	if err := good.Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	bad := []TableConfig{
		{NumTables: 0, TableBytes: 512},
		{NumTables: 99, TableBytes: 512},
		{NumTables: 4, TableBytes: 1},
		{NumTables: 4, TableBytes: 513}, // not a power-of-two entry count
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d should be invalid: %+v", i, c)
		}
	}
}

func TestTrainTableErrors(t *testing.T) {
	if _, err := TrainTable(TableConfig{NumTables: 0, TableBytes: 512}, nil); err == nil {
		t.Error("invalid config should error")
	}
	if _, err := TrainTable(DefaultTableConfig(), nil); err == nil {
		t.Error("no samples should error")
	}
	wide := []Sample{{In: make([]float64, MaxInputDim+1)}}
	if _, err := TrainTable(DefaultTableConfig(), wide); err == nil {
		t.Errorf("a %d-wide input should error", MaxInputDim+1)
	}
	// An infinite training input widens its feature's range to infinity.
	unbounded := []Sample{{In: []float64{0, 1}}, {In: []float64{math.Inf(1), 2}}}
	if _, err := TrainTable(DefaultTableConfig(), unbounded); err == nil {
		t.Error("an infinite input should error")
	}
}

func TestTableZeroFalseNegativesOnTrainingData(t *testing.T) {
	// Pre-training marks every bad sample in every table; with any
	// combination rule, training-set bad samples must always be flagged.
	rng := mathx.NewRNG(2)
	samples := syntheticSamples(rng, 2000, 4, 0.1)
	for _, comb := range []Combine{CombineAll, CombineAny, CombineMajority} {
		cfg := DefaultTableConfig()
		cfg.Combine = comb
		tab, err := TrainTable(cfg, samples)
		if err != nil {
			t.Fatal(err)
		}
		st := Evaluate(tab, samples)
		if st.FalseNegatives != 0 {
			t.Errorf("combine=%v: %d false negatives on training data", comb, st.FalseNegatives)
		}
	}
}

func TestTableLearnsSeparableRegion(t *testing.T) {
	// Low-dimensional kernel (like inversek2j): the quantized input space
	// is small enough that training covers the bad region, so held-out
	// bad inputs hash onto trained entries.
	rng := mathx.NewRNG(3)
	train := syntheticSamples(rng, 6000, 2, 0.06)
	tab, err := TrainTable(DefaultTableConfig(), train)
	if err != nil {
		t.Fatal(err)
	}
	test := syntheticSamples(rng.Split(1), 2000, 2, 0.06)
	st := Evaluate(tab, test)
	if st.FNRate() > 0.03 {
		t.Errorf("held-out FN rate %v too high", st.FNRate())
	}
	if st.FPRate() > 0.5 {
		t.Errorf("held-out FP rate %v too high", st.FPRate())
	}
	// It must beat chance decisively: an input-oblivious filter with the
	// same precise rate would miss bads proportionally.
	preciseRate := st.FPRate() + 0.06 - st.FNRate()
	missIfRandom := 0.06 * (1 - preciseRate)
	if st.FNRate() > missIfRandom/2 {
		t.Errorf("FN rate %v not clearly better than random filtering (%v)",
			st.FNRate(), missIfRandom)
	}
}

func TestTableExactMemorizationLowDim(t *testing.T) {
	// A 1-input kernel (like fft's twiddle) has only 2^QuantBits distinct
	// quantized inputs; after training covers them, held-out FN is zero.
	rng := mathx.NewRNG(31)
	mk := func(r *mathx.RNG, n int) []Sample {
		out := make([]Sample, n)
		for i := range out {
			x := r.Float64()
			out[i] = Sample{In: []float64{x}, Bad: x > 0.9}
		}
		return out
	}
	tab, err := TrainTable(DefaultTableConfig(), mk(rng, 3000))
	if err != nil {
		t.Fatal(err)
	}
	st := Evaluate(tab, mk(rng.Split(2), 1000))
	if st.FalseNegatives != 0 {
		t.Errorf("1-D kernel: %d false negatives after covering training", st.FalseNegatives)
	}
}

func TestCombineAllReducesFalsePositives(t *testing.T) {
	// The ensemble's reason to exist: at equal per-table size, demanding
	// agreement across independently hashed tables must not increase
	// (and should reduce) training-set false positives versus a single
	// table.
	rng := mathx.NewRNG(4)
	samples := syntheticSamples(rng, 4000, 6, 0.08)
	single := TableConfig{NumTables: 1, TableBytes: 128, Combine: CombineAll}
	multi := TableConfig{NumTables: 8, TableBytes: 128, Combine: CombineAll}
	ts, err := TrainTable(single, samples)
	if err != nil {
		t.Fatal(err)
	}
	tm, err := TrainTable(multi, samples)
	if err != nil {
		t.Fatal(err)
	}
	fpS := Evaluate(ts, samples).FalsePositives
	fpM := Evaluate(tm, samples).FalsePositives
	if fpM > fpS {
		t.Errorf("8-table FP (%d) worse than single-table FP (%d)", fpM, fpS)
	}
}

func TestCombineModesOrdering(t *testing.T) {
	// With the full pool as the ensemble (so greedy selection cannot pick
	// different configurations per mode): CombineAny flags a superset of
	// CombineMajority, which flags a superset of CombineAll.
	rng := mathx.NewRNG(5)
	samples := syntheticSamples(rng, 3000, 4, 0.1)
	test := syntheticSamples(rng.Split(9), 1000, 4, 0.1)

	rates := map[Combine]float64{}
	for _, comb := range []Combine{CombineAll, CombineMajority, CombineAny} {
		cfg := TableConfig{NumTables: 16, TableBytes: 128, Combine: comb, QuantBits: 6}
		tab, err := TrainTable(cfg, samples)
		if err != nil {
			t.Fatal(err)
		}
		precise := 0
		for _, s := range test {
			if tab.Classify(s.In) {
				precise++
			}
		}
		rates[comb] = float64(precise) / float64(len(test))
	}
	if rates[CombineAny] < rates[CombineMajority] || rates[CombineMajority] < rates[CombineAll] {
		t.Errorf("combine ordering violated: %v", rates)
	}
}

func TestTableOnlineUpdate(t *testing.T) {
	rng := mathx.NewRNG(6)
	samples := syntheticSamples(rng, 1000, 4, 0.05)
	tab, err := TrainTable(DefaultTableConfig(), samples)
	if err != nil {
		t.Fatal(err)
	}
	// A fresh bad input initially missed becomes flagged after Update.
	fresh := []float64{0.001, 0.99, 0.99, 0.99}
	tab.Update(fresh, true)
	if !tab.Classify(fresh) {
		t.Error("input not flagged after online bad update")
	}
	// Good updates are no-ops (conservative, monotone training).
	before := tab.Density()
	tab.Update([]float64{0.9, 0.5, 0.5, 0.5}, false)
	if tab.Density() != before {
		t.Error("good update changed the tables")
	}
}

func TestTableSizesAndDensity(t *testing.T) {
	rng := mathx.NewRNG(7)
	samples := syntheticSamples(rng, 2000, 4, 0.05)
	tab, err := TrainTable(DefaultTableConfig(), samples)
	if err != nil {
		t.Fatal(err)
	}
	if got := tab.UncompressedBytes(); got != 8*512 {
		t.Errorf("uncompressed = %d, want 4096", got)
	}
	if tab.SizeBytes() <= 0 || tab.SizeBytes() > tab.UncompressedBytes()+80 {
		t.Errorf("compressed size %d implausible", tab.SizeBytes())
	}
	d := tab.Density()
	if d <= 0 || d >= 0.5 {
		t.Errorf("density %v implausible for 5%% bad fraction", d)
	}
	raw := tab.RawBytes()
	if len(raw) != tab.UncompressedBytes() {
		t.Errorf("RawBytes length %d", len(raw))
	}
	if tab.Name() != "table" {
		t.Error("name")
	}
	ov := tab.Overhead()
	if ov.Cycles <= 0 || ov.EnergyPJ <= 0 {
		t.Errorf("overhead = %+v", ov)
	}
	if tab.Config().NumTables != 8 {
		t.Error("Config not preserved")
	}
}

func TestCombineString(t *testing.T) {
	for _, c := range []Combine{CombineAll, CombineAny, CombineMajority, Combine(9)} {
		if c.String() == "" {
			t.Errorf("empty string for %d", int(c))
		}
	}
}

func TestNeuralLearnsSeparableRegion(t *testing.T) {
	rng := mathx.NewRNG(8)
	train := syntheticSamples(rng, 1500, 4, 0.15)
	opts := DefaultNeuralOptions()
	opts.HiddenSizes = []int{4, 8}
	opts.Train.Epochs = 60
	nc, err := TrainNeural(4, train, opts)
	if err != nil {
		t.Fatal(err)
	}
	test := syntheticSamples(rng.Split(3), 1000, 4, 0.15)
	st := Evaluate(nc, test)
	// A linear slab boundary is easy: both error kinds should be small.
	if st.FNRate() > 0.1 || st.FPRate() > 0.1 {
		t.Errorf("neural error rates FP=%v FN=%v too high", st.FPRate(), st.FNRate())
	}
}

func TestNeuralMetadata(t *testing.T) {
	rng := mathx.NewRNG(9)
	train := syntheticSamples(rng, 400, 3, 0.2)
	opts := DefaultNeuralOptions()
	opts.HiddenSizes = []int{2, 4}
	opts.Train.Epochs = 20
	nc, err := TrainNeural(3, train, opts)
	if err != nil {
		t.Fatal(err)
	}
	if nc.Name() != "neural" {
		t.Error("name")
	}
	topo := nc.Topology()
	if topo[0] != 3 || topo[len(topo)-1] != 2 {
		t.Errorf("topology = %v", topo)
	}
	if nc.SizeBytes() <= 0 {
		t.Error("size")
	}
	ov := nc.Overhead()
	if ov.Cycles <= 0 || ov.EnergyPJ <= 0 {
		t.Errorf("overhead = %+v", ov)
	}
}

func TestNeuralTopologyTieBreak(t *testing.T) {
	// On trivially separable data every topology reaches the same
	// accuracy; the smallest hidden size must win.
	rng := mathx.NewRNG(10)
	var train []Sample
	for i := 0; i < 600; i++ {
		x := rng.Float64()
		train = append(train, Sample{In: []float64{x}, Bad: x < 0.5})
	}
	opts := DefaultNeuralOptions()
	opts.HiddenSizes = []int{2, 4, 8}
	opts.Train.Epochs = 150
	nc, err := TrainNeural(1, train, opts)
	if err != nil {
		t.Fatal(err)
	}
	if nc.Topology()[1] != 2 {
		t.Errorf("selected hidden size %d, want 2 on a trivial problem", nc.Topology()[1])
	}
}

func TestNeuralErrors(t *testing.T) {
	if _, err := TrainNeural(2, nil, DefaultNeuralOptions()); err == nil {
		t.Error("no samples should error")
	}
	opts := DefaultNeuralOptions()
	opts.HiddenSizes = nil
	if _, err := TrainNeural(2, []Sample{{In: []float64{1, 2}}}, opts); err == nil {
		t.Error("empty sweep should error")
	}
	if _, err := TrainNeural(3, []Sample{{In: []float64{1, 2}}}, DefaultNeuralOptions()); err == nil {
		t.Error("dim mismatch should error")
	}
}

func TestNeuralHandlesAllGoodSamples(t *testing.T) {
	// Degenerate labels (no bad samples at all) must not crash training.
	rng := mathx.NewRNG(11)
	var train []Sample
	for i := 0; i < 200; i++ {
		train = append(train, Sample{In: []float64{rng.Float64(), rng.Float64()}, Bad: false})
	}
	opts := DefaultNeuralOptions()
	opts.HiddenSizes = []int{2}
	opts.Train.Epochs = 5
	nc, err := TrainNeural(2, train, opts)
	if err != nil {
		t.Fatal(err)
	}
	st := Evaluate(nc, train)
	if st.FalsePositives > len(train)/10 {
		t.Errorf("classifier flags %d of %d all-good samples", st.FalsePositives, len(train))
	}
}

func TestTableTrainingSetNoFNProperty(t *testing.T) {
	// Property: regardless of geometry and labels, pre-training marks
	// every bad sample in every table, so no training-set bad sample is
	// ever missed under any combination rule.
	f := func(seed uint16, nt, tb, comb uint8) bool {
		cfg := TableConfig{
			NumTables:  1 + int(nt)%8,
			TableBytes: 64 << (int(tb) % 4), // 64..512
			Combine:    Combine(int(comb) % 3),
			QuantBits:  4 + int(seed)%4,
			Project:    seed%2 == 0,
		}
		rng := mathx.NewRNG(uint64(seed) + 1)
		samples := syntheticSamples(rng, 600, 3, 0.15)
		tab, err := TrainTable(cfg, samples)
		if err != nil {
			return false
		}
		for _, s := range samples {
			if s.Bad && !tab.Classify(s.In) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestEvaluateCountsProperty(t *testing.T) {
	// FP + FN + correct == total for any classifier and sample set.
	f := func(seed uint16, rate uint8) bool {
		rng := mathx.NewRNG(uint64(seed))
		samples := syntheticSamples(rng, 300, 2, 0.2)
		c := NewRandom(float64(rate%101)/100, uint64(seed)+7)
		st := Evaluate(c, samples)
		return st.FalsePositives >= 0 && st.FalseNegatives >= 0 &&
			st.FalsePositives+st.FalseNegatives <= st.Total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
