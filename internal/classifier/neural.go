package classifier

import (
	"fmt"
	"sort"

	"mithra/internal/mathx"
	"mithra/internal/nn"
	"mithra/internal/npu"
	"mithra/internal/obs"
	"mithra/internal/parallel"
)

// The neural sweep's fixed settings.
const (
	// neuralTiePct is the accuracy slack (fraction) within which a
	// smaller network wins the topology tie-break.
	neuralTiePct = 0.005
	// neuralSeed keys weight initialization.
	neuralSeed = 1
	// neuralHoldoutFrac of the samples are withheld for topology
	// selection.
	neuralHoldoutFrac = 0.2
	// neuralMaxSamples caps the training tuples: the sweep trains one
	// network per hidden size, so a deterministic subsample keeps
	// compilation fast without hurting the boundary the classifier must
	// learn.
	neuralMaxSamples = 8000
)

// NeuralOptions controls neural-classifier training.
type NeuralOptions struct {
	// HiddenSizes is the topology sweep; the paper considers
	// {2, 4, 8, 16, 32} hidden neurons and picks the most accurate
	// network, preferring fewer neurons on near-ties.
	HiddenSizes []int
	// Train configures the underlying SGD.
	Train nn.TrainConfig
	// Parallelism bounds the worker pool training the topology sweep's
	// candidates (<= 0: GOMAXPROCS, 1: serial). Every candidate trains
	// from its own deterministic seed, so the selected network is
	// identical at any setting.
	Parallelism int
	// Obs receives training telemetry (spans, counters). Nil disables;
	// the selected network is identical either way.
	Obs *obs.Obs
}

// DefaultNeuralOptions mirrors the paper's sweep.
func DefaultNeuralOptions() NeuralOptions {
	return NeuralOptions{
		HiddenSizes: []int{2, 4, 8, 16, 32},
		Train: nn.TrainConfig{
			Epochs:       80,
			LearningRate: 0.3,
			Momentum:     0.9,
			BatchSize:    16,
			Seed:         1,
		},
	}
}

// Neural is MITHRA's neural classifier: a three-layer MLP with two output
// neurons (paper §IV-B). One output neuron represents "invoke the
// accelerator", the other "run the precise function"; the larger value
// wins. The network executes on the NPU's processing elements, so its
// overhead is the NPU cost of its own topology.
type Neural struct {
	net      *nn.Network
	inScale  *nn.Scaler
	scratch  *nn.Scratch
	buf      []float64
	overhead Overhead
	// bias shifts the decision boundary toward the precise function: the
	// classifier falls back when out[precise] > out[accelerate] - bias.
	// A positive bias trades false positives for fewer misses — the
	// quality-first asymmetry the paper's designs exhibit.
	bias float64
}

// TrainNeural trains the topology sweep on the labeled samples and returns
// the selected classifier. Bad samples are oversampled to a rough class
// balance, since invocations needing fallback are a small minority (the
// paper's Figure 1 insight) and an unweighted fit would collapse to
// "always accelerate". The selected classifier has no bias; WithBias
// derives biased ones that share its network.
func TrainNeural(inputDim int, samples []Sample, opts NeuralOptions) (*Neural, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("classifier: no training samples")
	}
	if len(opts.HiddenSizes) == 0 {
		return nil, fmt.Errorf("classifier: empty topology sweep")
	}
	for _, s := range samples {
		if len(s.In) != inputDim {
			return nil, fmt.Errorf("classifier: sample dim %d, want %d", len(s.In), inputDim)
		}
	}
	span := opts.Obs.StartSpan("classifier.neural.train",
		obs.A("candidates", len(opts.HiddenSizes)), obs.A("samples", len(samples)))
	defer span.End()
	opts.Obs.Counter("classifier.neural.candidates").Add(int64(len(opts.HiddenSizes)))
	if len(samples) > neuralMaxSamples {
		stride := len(samples)/neuralMaxSamples + 1
		sub := make([]Sample, 0, neuralMaxSamples)
		for i := 0; i < len(samples); i += stride {
			sub = append(sub, samples[i])
		}
		samples = sub
	}

	inputs := make([][]float64, len(samples))
	for i, s := range samples {
		inputs[i] = s.In
	}
	scale := nn.FitScaler(inputs)

	// Split train/holdout deterministically, then balance the training
	// half by oversampling the minority class.
	holdN := int(neuralHoldoutFrac * float64(len(samples)))
	if holdN < 1 {
		holdN = 1
	}
	if holdN >= len(samples) {
		holdN = len(samples) / 2
	}
	holdout := samples[:holdN]
	train := samples[holdN:]
	if len(train) == 0 {
		train = samples
	}

	trainSet := buildBalancedSet(train, scale)
	holdSet := buildBalancedSet(holdout, scale)

	type candidate struct {
		net    *nn.Network
		hidden int
		acc    float64
	}
	// The sweep's candidates are independent: each trains its own network
	// from a seed keyed by its hidden size on the shared (read-only)
	// training set. They are dispatched largest first, since training
	// cost grows with the hidden size and the largest candidate started
	// last would be the sweep's critical path. Each then lands in its
	// hidden-size slot, so the selection below sees the same sequence the
	// serial sweep produced.
	order := make([]int, len(opts.HiddenSizes))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return opts.HiddenSizes[order[a]] > opts.HiddenSizes[order[b]]
	})
	trained, err := parallel.Map(opts.Parallelism, len(order),
		func(k int) (candidate, error) {
			h := opts.HiddenSizes[order[k]]
			net := nn.New([]int{inputDim, h, 2}, nn.Classification(2),
				mathx.NewRNG(neuralSeed).Split(uint64(h)))
			net.Train(trainSet, opts.Train)
			return candidate{net: net, hidden: h, acc: accuracy(net, holdSet)}, nil
		})
	if err != nil {
		return nil, err
	}
	cands := make([]candidate, len(trained))
	for k, c := range trained {
		cands[order[k]] = c
	}

	// Highest accuracy wins; a smaller network within neuralTiePct takes
	// the tie (fewest neurons at equal accuracy).
	best := cands[0]
	for _, c := range cands[1:] {
		if c.acc > best.acc+neuralTiePct {
			best = c
		}
	}

	cycles, energy := npu.CostOf(best.net)
	return &Neural{
		net:      best.net,
		inScale:  scale,
		scratch:  best.net.NewScratch(),
		buf:      make([]float64, inputDim),
		overhead: Overhead{Cycles: cycles, EnergyPJ: energy},
	}, nil
}

func buildBalancedSet(samples []Sample, scale *nn.Scaler) []nn.Sample {
	var good, bad []Sample
	for _, s := range samples {
		if s.Bad {
			bad = append(bad, s)
		} else {
			good = append(good, s)
		}
	}
	toNN := func(s Sample) nn.Sample {
		in := scale.Apply(s.In, make([]float64, len(s.In)))
		// Output layout: neuron 0 = accelerate, neuron 1 = precise.
		if s.Bad {
			return nn.Sample{In: in, Out: []float64{0, 1}}
		}
		return nn.Sample{In: in, Out: []float64{1, 0}}
	}
	out := make([]nn.Sample, 0, 2*len(samples))
	for _, s := range samples {
		out = append(out, toNN(s))
	}
	// Oversample the minority class up to rough parity.
	minority, majority := bad, good
	if len(good) < len(bad) {
		minority, majority = good, bad
	}
	if len(minority) > 0 {
		for rep := len(minority); rep < len(majority); rep += len(minority) {
			for _, s := range minority {
				out = append(out, toNN(s))
			}
		}
	}
	return out
}

func accuracy(net *nn.Network, set []nn.Sample) float64 {
	if len(set) == 0 {
		return 0
	}
	s := net.NewScratch()
	correct := 0
	for _, smp := range set {
		out := net.ForwardScratch(smp.In, s)
		predBad := out[1] > out[0]
		wantBad := smp.Out[1] > smp.Out[0]
		if predBad == wantBad {
			correct++
		}
	}
	return float64(correct) / float64(len(set))
}

// Name implements Classifier.
func (*Neural) Name() string { return "neural" }

// Classify implements Classifier: the larger output neuron wins, with
// the configured conservative bias.
func (n *Neural) Classify(in []float64) bool {
	n.inScale.Apply(in, n.buf)
	out := n.net.ForwardScratch(n.buf, n.scratch)
	return out[1] > out[0]-n.bias
}

// WithBias returns a classifier that shares the trained network but
// applies a different conservative bias (with its own scratch buffers, so
// both remain independently usable).
func (n *Neural) WithBias(bias float64) *Neural {
	return &Neural{
		net:      n.net,
		inScale:  n.inScale,
		scratch:  n.net.NewScratch(),
		buf:      make([]float64, len(n.buf)),
		overhead: n.overhead,
		bias:     bias,
	}
}

// Bias returns the conservative decision margin.
func (n *Neural) Bias() float64 { return n.bias }

// Overhead implements Classifier: the NPU cost of the classifier's own
// topology (it shares the accelerator's execution engine).
func (n *Neural) Overhead() Overhead { return n.overhead }

// SizeBytes implements Classifier: parameters at 2-byte fixed point, the
// precision the paper's Table II sizes assume.
func (n *Neural) SizeBytes() int { return n.net.SizeBytes(2) }

// Topology returns the selected network's layer sizes.
func (n *Neural) Topology() []int { return n.net.Sizes }

// ConcurrentView implements ConcurrentViewer: the view shares the trained
// network and scaler (read-only during classification) but owns its
// scratch buffers, so workers classify concurrently without contending.
func (n *Neural) ConcurrentView() Classifier { return n.WithBias(n.bias) }

var (
	_ Classifier       = (*Neural)(nil)
	_ ConcurrentViewer = (*Neural)(nil)
)
