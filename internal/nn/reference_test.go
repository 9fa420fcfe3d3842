package nn

import (
	"math"
	"testing"

	"mithra/internal/axbench"
	"mithra/internal/mathx"
)

// referenceTrain is the per-sample training kernel Network.Train
// replaced: jagged gradient buffers, one forward and backward pass per
// sample, the gradient accumulated sample by sample. It is kept only as
// the reference the mini-batch kernel must match bit for bit.
func (n *Network) referenceTrain(samples []Sample, cfg TrainConfig) TrainResult {
	if len(samples) == 0 {
		return TrainResult{}
	}
	n.checkSamples(samples)
	if cfg.Epochs <= 0 {
		cfg.Epochs = 1
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 16
	}
	if cfg.LearningRate <= 0 {
		cfg.LearningRate = 0.1
	}

	rng := mathx.NewRNG(cfg.Seed)
	s := n.NewScratch()
	del := make([][]float64, len(n.W))
	for l := range del {
		del[l] = make([]float64, n.Sizes[l+1])
	}
	gradW, gradB := n.zeroGrads()
	velW, velB := n.zeroGrads()

	res := TrainResult{}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		perm := rng.Perm(len(samples))
		sse := 0.0
		for start := 0; start < len(perm); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(perm) {
				end = len(perm)
			}
			n.clearGrads(gradW, gradB)
			for _, idx := range perm[start:end] {
				sse += n.accumulate(samples[idx], s, del, gradW, gradB)
			}
			n.applyGrads(gradW, gradB, velW, velB, cfg, end-start)
		}
		res.Epochs = epoch + 1
		res.FinalMSE = sse / float64(len(samples))
	}
	return res
}

func (n *Network) zeroGrads() ([][][]float64, [][]float64) {
	gw := make([][][]float64, len(n.W))
	gb := make([][]float64, len(n.B))
	for l := range n.W {
		gw[l] = make([][]float64, len(n.W[l]))
		for j := range n.W[l] {
			gw[l][j] = make([]float64, len(n.W[l][j]))
		}
		gb[l] = make([]float64, len(n.B[l]))
	}
	return gw, gb
}

func (n *Network) clearGrads(gw [][][]float64, gb [][]float64) {
	for l := range gw {
		for j := range gw[l] {
			row := gw[l][j]
			for i := range row {
				row[i] = 0
			}
		}
		for j := range gb[l] {
			gb[l][j] = 0
		}
	}
}

// accumulate adds one sample's gradient into (gw, gb) and returns its
// summed squared error; del holds the deltas per non-input layer.
func (n *Network) accumulate(smp Sample, s *Scratch, del [][]float64, gw [][][]float64, gb [][]float64) float64 {
	out := n.ForwardScratch(smp.In, s)
	last := len(n.W) - 1

	// Output deltas: dE/dz = (y - t) * f'(z).
	sse := 0.0
	for j, y := range out {
		diff := y - smp.Out[j]
		sse += diff * diff
		del[last][j] = diff * n.Acts[last].derivFromOutput(y)
	}
	// Hidden deltas, back to front.
	for l := last - 1; l >= 0; l-- {
		next := del[l+1]
		for j := range del[l] {
			sum := 0.0
			for k := range next {
				sum += n.W[l+1][k][j] * next[k]
			}
			del[l][j] = sum * n.Acts[l].derivFromOutput(s.act[l+1][j])
		}
	}
	// Gradient accumulation.
	for l := range n.W {
		prev := s.act[l]
		for j := range n.W[l] {
			d := del[l][j]
			row := gw[l][j]
			for i := range row {
				row[i] += d * prev[i]
			}
			gb[l][j] += d
		}
	}
	return sse
}

func (n *Network) applyGrads(gw [][][]float64, gb [][]float64, vw [][][]float64, vb [][]float64, cfg TrainConfig, batch int) {
	scale := cfg.LearningRate / float64(batch)
	for l := range n.W {
		for j := range n.W[l] {
			wRow, gRow, vRow := n.W[l][j], gw[l][j], vw[l][j]
			for i := range wRow {
				v := cfg.Momentum*vRow[i] - scale*gRow[i]
				vRow[i] = v
				wRow[i] += v
			}
			v := cfg.Momentum*vb[l][j] - scale*gb[l][j]
			vb[l][j] = v
			n.B[l][j] += v
		}
	}
}

// randomSamples draws count samples with inputs and targets uniform in
// [0, 1), the range both the approximator's and the classifier's scaled
// training sets live in.
func randomSamples(seed uint64, count, in, out int) []Sample {
	rng := mathx.NewRNG(seed)
	samples := make([]Sample, count)
	for i := range samples {
		s := Sample{In: make([]float64, in), Out: make([]float64, out)}
		for k := range s.In {
			s.In[k] = rng.Float64()
		}
		for k := range s.Out {
			s.Out[k] = rng.Float64()
		}
		samples[i] = s
	}
	return samples
}

// TestTrainMatchesReference checks that the mini-batch kernel produces
// exactly the per-sample reference's weights, biases and TrainResult, for
// every topology the compiler trains: each benchmark's NPU and the
// neural classifier sweep.
func TestTrainMatchesReference(t *testing.T) {
	type trainCase struct {
		name    string
		sizes   []int
		acts    []Activation
		samples int
		cfg     TrainConfig
	}
	var cases []trainCase

	// NPUs: core.DefaultOptions().NPUTrain (batch 32) with core's
	// per-benchmark epoch and sample multipliers, applied to a short base
	// run (3 epochs, 150 samples) so the test stays fast. 150 is not a
	// multiple of 32, so most runs end in a ragged batch.
	npuTuning := map[string]struct{ epochsMul, samplesMul float64 }{
		"blackscholes": {14, 5},
		"fft":          {2, 1},
		"inversek2j":   {6, 2},
		"jmeint":       {1, 1},
		"jpeg":         {1, 1},
		"sobel":        {0.017, 0.1},
	}
	for _, b := range axbench.All() {
		cfg := TrainConfig{Epochs: 3, LearningRate: 0.2, Momentum: 0.9, BatchSize: 32, Seed: 1}
		count := 150
		if tune, ok := npuTuning[b.Name()]; ok {
			cfg.Epochs = int(float64(cfg.Epochs)*tune.epochsMul + 0.5)
			if cfg.Epochs < 2 {
				cfg.Epochs = 2
			}
			count = int(float64(count) * tune.samplesMul)
		}
		top := b.Topology()
		cases = append(cases, trainCase{"npu/" + b.Name(), top, Regression(len(top) - 1), count, cfg})
	}
	// Neural classifiers: classifier.DefaultNeuralOptions().Train at batch
	// 16 over the paper's hidden-size sweep; 100 samples leave a ragged
	// batch of 4.
	for _, d := range []int{1, 64} {
		for _, h := range []int{2, 4, 8, 16, 32} {
			cases = append(cases, trainCase{
				name:  "classifier/" + (&Network{Sizes: []int{d, h, 2}}).TopologyString(),
				sizes: []int{d, h, 2}, acts: Classification(2), samples: 100,
				cfg: TrainConfig{Epochs: 3, LearningRate: 0.3, Momentum: 0.9, BatchSize: 16, Seed: 1},
			})
		}
	}
	// Every activation, and a ragged final batch (37 = 2·16 + 5).
	cases = append(cases, trainCase{
		name: "activations+ragged", sizes: []int{5, 7, 4, 3},
		acts: []Activation{Tanh, ReLU, Sigmoid}, samples: 37,
		cfg: TrainConfig{Epochs: 40, LearningRate: 0.4, Momentum: 0.8, BatchSize: 16, Seed: 9},
	})

	for ci, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			samples := randomSamples(uint64(100+ci), c.samples, c.sizes[0], c.sizes[len(c.sizes)-1])
			ref := New(c.sizes, c.acts, mathx.NewRNG(uint64(ci)))
			got := ref.Clone()
			want := ref.referenceTrain(samples, c.cfg)
			res := got.Train(samples, c.cfg)
			if res.Epochs != want.Epochs || math.Float64bits(res.FinalMSE) != math.Float64bits(want.FinalMSE) {
				t.Fatalf("TrainResult %+v, reference %+v", res, want)
			}
			for l := range ref.W {
				for j := range ref.W[l] {
					for i, w := range ref.W[l][j] {
						if math.Float64bits(got.W[l][j][i]) != math.Float64bits(w) {
							t.Fatalf("W[%d][%d][%d] = %v, reference %v", l, j, i, got.W[l][j][i], w)
						}
					}
					if math.Float64bits(got.B[l][j]) != math.Float64bits(ref.B[l][j]) {
						t.Fatalf("B[%d][%d] = %v, reference %v", l, j, got.B[l][j], ref.B[l][j])
					}
				}
			}
		})
	}
}

// BenchmarkTrainEpoch is the nn_train bench row as a Go benchmark: one
// epoch of a [64,32,2] classifier at batch 16.
func BenchmarkTrainEpoch(b *testing.B) {
	samples := randomSamples(1, 512, 64, 2)
	cfg := TrainConfig{Epochs: 1, LearningRate: 0.3, Momentum: 0.9, BatchSize: 16, Seed: 1}
	for _, k := range []struct {
		name  string
		train func(*Network, []Sample, TrainConfig) TrainResult
	}{{"batch", (*Network).Train}, {"reference", (*Network).referenceTrain}} {
		b.Run(k.name, func(b *testing.B) {
			n := New([]int{64, 32, 2}, Classification(2), mathx.NewRNG(1))
			for i := 0; i < b.N; i++ {
				k.train(n, samples, cfg)
			}
		})
	}
}
