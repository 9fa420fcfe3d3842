package classifier

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"mithra/internal/mathx"
	"mithra/internal/misr"
)

// referenceTrainTable is the table training TrainTable replaced: every
// greedy step re-counts the whole training set for every candidate
// ensemble (countFalseDecisions), O(NumTables² · pool · samples). It is
// kept only as the reference the word-parallel assignment must match.
func referenceTrainTable(cfg TableConfig, samples []Sample) (*Table, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.QuantBits == 0 {
		cfg.QuantBits = 6
	}
	inputs := make([][]float64, len(samples))
	for i, s := range samples {
		inputs[i] = s.In
	}
	quant := misr.FitQuantizerBits(inputs, cfg.QuantBits)
	width := cfg.indexWidth()
	dim := quant.Dim()

	pool := misr.Pool()
	hashers := make([]*misr.Hasher, len(pool))
	projs := make([][]int, len(pool))
	for i, pc := range pool {
		hashers[i] = misr.NewHasher(pc, width)
		projs[i] = projection(cfg, i, dim)
	}
	poolLUT, err := newLUT(quant, hashers, projs)
	if err != nil {
		return nil, err
	}
	sampleIdx := make([][]uint32, len(pool))
	for c := range pool {
		sampleIdx[c] = make([]uint32, len(samples))
	}
	for si, s := range samples {
		sig := poolLUT.sign(s.In)
		for c := range pool {
			sampleIdx[c][si] = sig.index(c)
		}
	}

	entries := cfg.TableBytes * 8
	cfgBits := make([][]uint64, len(pool))
	for c := range pool {
		cfgBits[c] = make([]uint64, (entries+63)/64)
		for si, s := range samples {
			if s.Bad {
				setBit(cfgBits[c], sampleIdx[c][si])
			}
		}
	}

	chosen := make([]int, 0, cfg.NumTables)
	used := make([]bool, len(pool))
	for len(chosen) < cfg.NumTables {
		bestC, bestFalse := -1, -1
		for c := range pool {
			if used[c] {
				continue
			}
			trial := append(append([]int(nil), chosen...), c)
			f := countFalseDecisions(cfg.Combine, trial, cfgBits, sampleIdx, samples)
			if bestC == -1 || f < bestFalse {
				bestC, bestFalse = c, f
			}
		}
		chosen = append(chosen, bestC)
		used[bestC] = true
	}

	t := &Table{
		cfg:     cfg,
		quant:   quant,
		hashers: make([]*misr.Hasher, cfg.NumTables),
		proj:    make([][]int, cfg.NumTables),
		bitsets: make([][]uint64, cfg.NumTables),
	}
	for i, c := range chosen {
		t.hashers[i] = hashers[c]
		t.proj[i] = projs[c]
		t.bitsets[i] = cfgBits[c]
	}
	if t.lut, err = newLUT(quant, t.hashers, t.proj); err != nil {
		return nil, err
	}
	return t, nil
}

// countFalseDecisions evaluates an ensemble candidate on the training
// set, sample by sample.
func countFalseDecisions(comb Combine, cfgs []int, cfgBits [][]uint64, sampleIdx [][]uint32, samples []Sample) int {
	falseCount := 0
	for si, s := range samples {
		flags := 0
		for _, c := range cfgs {
			if getBit(cfgBits[c], sampleIdx[c][si]) {
				flags++
			}
		}
		if combineFlags(comb, flags, len(cfgs)) != s.Bad {
			falseCount++
		}
	}
	return falseCount
}

// poolConfigs lists the MISR configurations a table's ensemble uses, in
// table order.
func poolConfigs(t *Table) []misr.Config {
	out := make([]misr.Config, len(t.hashers))
	for i, h := range t.hashers {
		out[i] = h.Config()
	}
	return out
}

// requireSameTable fails unless got and want chose the same
// configurations and projections and hold the same contents.
func requireSameTable(t *testing.T, got, want *Table) {
	t.Helper()
	if !reflect.DeepEqual(poolConfigs(got), poolConfigs(want)) {
		t.Fatalf("chosen configurations %v, reference %v", poolConfigs(got), poolConfigs(want))
	}
	if !reflect.DeepEqual(got.proj, want.proj) {
		t.Fatal("projections differ from the reference")
	}
	if got.Config() != want.Config() {
		t.Fatalf("Config() %+v, reference %+v", got.Config(), want.Config())
	}
	if !bytes.Equal(got.RawBytes(), want.RawBytes()) {
		t.Fatal("RawBytes differ from the reference")
	}
}

// TestTrainTableMatchesReference checks the word-parallel greedy
// assignment against the per-sample recount: identical chosen
// configurations, Config and RawBytes for every Combine rule, ensembles
// of 1 to 8 tables, 1-D and 64-D inputs, two table sizes, and all-good,
// all-bad and mixed labels (the uniform labels make every candidate tie,
// so they pin the lowest-index tie break).
func TestTrainTableMatchesReference(t *testing.T) {
	labels := map[string]func(s Sample) bool{
		"all-good": func(Sample) bool { return false },
		"all-bad":  func(Sample) bool { return true },
		"mixed":    func(s Sample) bool { return s.Bad },
	}
	for _, dim := range []int{1, 64} {
		base := syntheticSamples(mathx.NewRNG(uint64(11+dim)), 1200, dim, 0.15)
		for _, lname := range []string{"all-good", "all-bad", "mixed"} {
			samples := make([]Sample, len(base))
			for i, s := range base {
				samples[i] = Sample{In: s.In, Bad: labels[lname](s)}
			}
			for _, tableBytes := range []int{16, 512} {
				for _, comb := range []Combine{CombineAny, CombineAll, CombineMajority} {
					for n := 1; n <= 8; n++ {
						cfg := TableConfig{NumTables: n, TableBytes: tableBytes, Combine: comb, QuantBits: 6, Project: true}
						name := fmt.Sprintf("dim%d/%s/%dB/%v/%d", dim, lname, tableBytes, comb, n)
						t.Run(name, func(t *testing.T) {
							got, err := TrainTable(cfg, samples)
							if err != nil {
								t.Fatal(err)
							}
							want, err := referenceTrainTable(cfg, samples)
							if err != nil {
								t.Fatal(err)
							}
							requireSameTable(t, got, want)
						})
					}
				}
			}
		}
	}
}

// TestPreparedTableSharedAcrossLabels checks that one preparation serves
// candidates with different labels and combination rules exactly as a
// fresh TrainTable per candidate does, and refuses a geometry or sample
// count it was not built for.
func TestPreparedTableSharedAcrossLabels(t *testing.T) {
	base := syntheticSamples(mathx.NewRNG(21), 2000, 9, 0.1)
	inputs := make([][]float64, len(base))
	for i, s := range base {
		inputs[i] = s.In
	}
	cfg := DefaultTableConfig()
	prep, err := PrepareTable(cfg, inputs)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []float64{0.05, 0.1, 0.3} {
		samples := make([]Sample, len(base))
		for i, s := range base {
			samples[i] = Sample{In: s.In, Bad: s.In[0] < cut}
		}
		for _, comb := range []Combine{CombineAny, CombineAll, CombineMajority} {
			c := cfg
			c.Combine = comb
			got, err := prep.Train(c, samples)
			if err != nil {
				t.Fatal(err)
			}
			want, err := TrainTable(c, samples)
			if err != nil {
				t.Fatal(err)
			}
			requireSameTable(t, got, want)
		}
	}
	wrongBits := cfg
	wrongBits.QuantBits = 4
	if _, err := prep.Train(wrongBits, base); err == nil {
		t.Error("a different quantizer width should error")
	}
	if _, err := prep.Train(cfg, base[1:]); err == nil {
		t.Error("a different sample count should error")
	}
}

// TestCombineFlagsMonotone pins the property assignGreedy's level sets
// rely on: for every rule and ensemble width, a sample that goes precise
// at some flag count stays precise at every higher count.
func TestCombineFlagsMonotone(t *testing.T) {
	for _, comb := range []Combine{CombineAny, CombineAll, CombineMajority} {
		for k := 1; k <= len(misr.Pool()); k++ {
			for f := 0; f < k; f++ {
				if combineFlags(comb, f, k) && !combineFlags(comb, f+1, k) {
					t.Errorf("%v with %d tables: precise at %d flags but not at %d", comb, k, f, f+1)
				}
			}
		}
	}
}
