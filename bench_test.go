package mithra

// The benchmark harness regenerates every table and figure of the paper
// (DESIGN.md §4 maps IDs to paper artifacts). Each testing.B benchmark
// executes one experiment end to end against a shared, lazily-built suite
// at a reduced but shape-preserving scale; `go test -bench .` therefore
// reproduces the full evaluation campaign. For paper-scale numbers run
// `mithra report -scale paper`.

import (
	"io"
	"sync"
	"testing"

	"mithra/internal/classifier"
	"mithra/internal/experiments"
	"mithra/internal/mathx"
	"mithra/internal/misr"
	"mithra/internal/nn"
	"mithra/internal/npu"
	"mithra/internal/stats"

	bdipkg "mithra/internal/bdi"
)

var (
	benchSuiteOnce sync.Once
	benchSuite     *experiments.Suite
	benchSuiteErr  error
)

// suiteForBench shares one suite (contexts + deployments) across all
// experiment benchmarks, mirroring how the paper's single campaign feeds
// every figure.
func suiteForBench(b *testing.B) *experiments.Suite {
	b.Helper()
	benchSuiteOnce.Do(func() {
		cfg := experiments.TestConfig()
		cfg.Benchmarks = Benchmarks() // all six
		benchSuite, benchSuiteErr = experiments.NewSuite(cfg)
	})
	if benchSuiteErr != nil {
		b.Fatal(benchSuiteErr)
	}
	return benchSuite
}

func runExperiment(b *testing.B, id string) {
	s := suiteForBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := experiments.RunOne(s, id, io.Discard, experiments.FormatText); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig1ErrorCDF regenerates Figure 1 (error CDFs under full
// approximation).
func BenchmarkFig1ErrorCDF(b *testing.B) { runExperiment(b, "fig1") }

// BenchmarkTable1InitialError regenerates Table I (benchmarks and initial
// quality loss).
func BenchmarkTable1InitialError(b *testing.B) { runExperiment(b, "table1") }

// BenchmarkTable2ClassifierSizes regenerates Table II (compressed
// classifier sizes).
func BenchmarkTable2ClassifierSizes(b *testing.B) { runExperiment(b, "table2") }

// BenchmarkFig6Tradeoffs regenerates Figures 6a-6c (geomean speedup,
// energy reduction, invocation rate vs quality loss).
func BenchmarkFig6Tradeoffs(b *testing.B) { runExperiment(b, "fig6") }

// BenchmarkFig7FalseDecisions regenerates Figure 7 (false
// positives/negatives).
func BenchmarkFig7FalseDecisions(b *testing.B) { runExperiment(b, "fig7") }

// BenchmarkFig8PerBenchmark regenerates Figure 8 (per-benchmark
// tradeoffs).
func BenchmarkFig8PerBenchmark(b *testing.B) { runExperiment(b, "fig8") }

// BenchmarkFig9RandomFiltering regenerates Figure 9 (comparison with
// random filtering).
func BenchmarkFig9RandomFiltering(b *testing.B) { runExperiment(b, "fig9") }

// BenchmarkFig10SuccessSweep regenerates Figure 10 (EDP vs success rate).
func BenchmarkFig10SuccessSweep(b *testing.B) { runExperiment(b, "fig10") }

// BenchmarkFig11Pareto regenerates Figure 11 (table design space).
func BenchmarkFig11Pareto(b *testing.B) { runExperiment(b, "fig11") }

// BenchmarkSoftwareClassifier regenerates the software-slowdown
// comparison (§V-A).
func BenchmarkSoftwareClassifier(b *testing.B) { runExperiment(b, "soft") }

// BenchmarkAblationCombine regenerates the ensemble combination ablation.
func BenchmarkAblationCombine(b *testing.B) { runExperiment(b, "abl-combine") }

// BenchmarkAblationSearch regenerates the delta-walk vs bisection
// ablation.
func BenchmarkAblationSearch(b *testing.B) { runExperiment(b, "abl-search") }

// BenchmarkAblationOnline regenerates the online-update ablation.
func BenchmarkAblationOnline(b *testing.B) { runExperiment(b, "abl-online") }

// BenchmarkAblationQuantBits regenerates the quantization-width ablation.
func BenchmarkAblationQuantBits(b *testing.B) { runExperiment(b, "abl-quant") }

// BenchmarkAblationInterval regenerates the confidence-interval method
// comparison.
func BenchmarkAblationInterval(b *testing.B) { runExperiment(b, "abl-interval") }

// BenchmarkAblationISA regenerates the analytic-vs-ISA model cross-check.
func BenchmarkAblationISA(b *testing.B) { runExperiment(b, "abl-isa") }

// BenchmarkAblationFixedPoint regenerates the NPU fixed-point datapath
// ablation.
func BenchmarkAblationFixedPoint(b *testing.B) { runExperiment(b, "abl-fixed") }

// --- Microbenchmarks for the performance-critical substrates ------------

// BenchmarkMISRHash measures the reference MISR hash over sobel's
// 9-element input (the table classifier indexes through its affine
// lookup table instead; BenchmarkTableClassify times that).
func BenchmarkMISRHash(b *testing.B) {
	h := misr.NewHasher(misr.Pool()[0], 12)
	words := make([]uint16, 9)
	for i := range words {
		words[i] = uint16(i * 7321)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = h.Hash(words)
	}
}

// BenchmarkTableClassify measures a full 8-table ensemble decision.
func BenchmarkTableClassify(b *testing.B) {
	rng := mathx.NewRNG(1)
	samples := make([]classifier.Sample, 4000)
	for i := range samples {
		in := make([]float64, 9)
		for d := range in {
			in[d] = rng.Float64()
		}
		samples[i] = classifier.Sample{In: in, Bad: in[0] < 0.1}
	}
	tab, err := classifier.TrainTable(classifier.DefaultTableConfig(), samples)
	if err != nil {
		b.Fatal(err)
	}
	in := samples[0].In
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tab.Classify(in)
	}
}

// BenchmarkNPUInvoke measures one accelerator invocation (sobel topology).
func BenchmarkNPUInvoke(b *testing.B) {
	rng := mathx.NewRNG(2)
	var samples []nn.Sample
	for i := 0; i < 64; i++ {
		in := make([]float64, 9)
		for d := range in {
			in[d] = rng.Float64()
		}
		samples = append(samples, nn.Sample{In: in, Out: []float64{in[0]}})
	}
	approx, _ := nn.FitApproximator([]int{9, 8, 1}, samples,
		nn.TrainConfig{Epochs: 5, LearningRate: 0.1, BatchSize: 8, Seed: 1}, 1)
	acc := npu.New(approx)
	scratch := acc.NewScratch()
	dst := make([]float64, 1)
	in := samples[0].In
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc.Invoke(in, dst, scratch)
	}
}

// BenchmarkBDICompress measures compressing a 4 KB sparse classifier
// table.
func BenchmarkBDICompress(b *testing.B) {
	rng := mathx.NewRNG(3)
	data := make([]byte, 4096)
	for i := 0; i < 100; i++ {
		data[rng.Intn(len(data))] = byte(rng.Uint64())
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = bdipkg.CompressedSize(data)
	}
}

// BenchmarkClopperPearson measures one exact confidence-bound evaluation
// in the paper's regime (235/250).
func BenchmarkClopperPearson(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = stats.ClopperPearsonLower(235, 250, 0.975)
	}
}

// BenchmarkExtKMeans regenerates the kmeans extension campaign.
func BenchmarkExtKMeans(b *testing.B) { runExperiment(b, "ext-kmeans") }

// BenchmarkExtMultiKernel regenerates the multi-function tuple extension.
func BenchmarkExtMultiKernel(b *testing.B) { runExperiment(b, "ext-multi") }

// BenchmarkAblationPredictors regenerates the classifier-mechanism
// comparison including the related-work baselines.
func BenchmarkAblationPredictors(b *testing.B) { runExperiment(b, "abl-predictors") }
