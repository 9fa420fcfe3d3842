// Package core assembles the complete MITHRA pipeline — the paper's
// contribution end to end. A Context trains the NPU for a benchmark and
// captures the compile/validation dataset traces; Deploy runs the
// statistical optimizer (Algorithm 1) for a requested guarantee and
// pre-trains the hardware classifiers; Evaluate replays validation
// datasets under any design (oracle, table, neural, random, full
// approximation) and reports quality, certified success rate, and the
// simulated performance/energy gains.
package core

import (
	"mithra/internal/axbench"
	"mithra/internal/classifier"
	"mithra/internal/nn"
	"mithra/internal/obs"
	"mithra/internal/threshold"
)

// Options sizes the compilation pipeline. The paper's configuration is
// 250 compile + 250 validation datasets at PaperScale; the defaults here
// are the medium scale used by the experiment binaries, and TestOptions
// shrinks everything for unit tests.
type Options struct {
	// Scale sizes each generated dataset.
	Scale axbench.Scale
	// CompileN and ValidateN are the representative and unseen dataset
	// counts (paper: 250 and 250).
	CompileN, ValidateN int
	// TrainDatasets is how many compile datasets retain per-invocation
	// inputs for classifier training data generation.
	TrainDatasets int
	// MaxTrainSamples bounds the classifier training tuples sampled from
	// the training datasets (the paper notes a single 512x512 image
	// already provides 262,144 tuples — sampling is cheap and sufficient).
	MaxTrainSamples int
	// NPUSampleTarget is the number of kernel input/output pairs used to
	// train the NPU approximator.
	NPUSampleTarget int
	// NPUTrain configures the NPU's offline backprop training.
	NPUTrain nn.TrainConfig
	// TableCfg is the table classifier's base configuration: Deploy
	// picks its quantization width and combination rule per application
	// (the MISR configuration step of the paper's §IV-A).
	TableCfg classifier.TableConfig
	// NeuralOpts configures the neural classifier sweep.
	NeuralOpts classifier.NeuralOptions
	// ThOpts configures the threshold search (threshold.FindBisect).
	ThOpts threshold.Options
	// CompactTraces stores captured traces as float32, halving the
	// dominant memory cost; enabled at paper scale.
	CompactTraces bool
	// Parallelism bounds the worker pools used throughout the pipeline
	// (dataset capture, threshold search, classifier candidate training,
	// design evaluation): <= 0 uses GOMAXPROCS, 1 forces the serial path,
	// anything else is a literal worker count. Results are bit-identical
	// at every setting (internal/parallel's invariant); the knob only
	// trades wall-clock time for cores.
	Parallelism int
	// Seed keys every stochastic component of the pipeline.
	Seed uint64
	// Obs receives pipeline telemetry: tracing spans, counters, and
	// histograms (see internal/obs and DESIGN.md §9). Nil — the default —
	// disables all instrumentation; results are bit-identical either way,
	// since telemetry never feeds back into the result path.
	Obs *obs.Obs
}

// DefaultOptions returns the medium-scale configuration used by the
// experiment binaries.
func DefaultOptions() Options {
	return Options{
		Scale:           axbench.MediumScale(),
		CompileN:        100,
		ValidateN:       100,
		TrainDatasets:   16,
		MaxTrainSamples: 24000,
		NPUSampleTarget: 4000,
		NPUTrain: nn.TrainConfig{
			Epochs:       120,
			LearningRate: 0.2,
			Momentum:     0.9,
			BatchSize:    32,
			Seed:         1,
		},
		TableCfg:   classifier.DefaultTableConfig(),
		NeuralOpts: classifier.DefaultNeuralOptions(),
		ThOpts:     threshold.DefaultOptions(),
		Seed:       42,
	}
}

// PaperOptions returns the paper's full-scale configuration (250+250
// datasets at Table I input sizes). Expect long runtimes.
func PaperOptions() Options {
	o := DefaultOptions()
	o.Scale = axbench.PaperScale()
	o.CompileN = 250
	o.ValidateN = 250
	o.TrainDatasets = 12
	o.CompactTraces = true
	return o
}

// TestOptions returns a configuration small enough for unit tests while
// exercising every code path.
func TestOptions() Options {
	o := DefaultOptions()
	o.Scale = axbench.TestScale()
	o.CompileN = 24
	o.ValidateN = 16
	o.TrainDatasets = 6
	o.MaxTrainSamples = 4000
	o.NPUSampleTarget = 800
	o.NPUTrain.Epochs = 40
	o.NeuralOpts.HiddenSizes = []int{4, 8}
	o.NeuralOpts.Train.Epochs = 30
	return o
}
