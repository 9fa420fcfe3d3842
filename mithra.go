// Package mithra is the public API of this reproduction of "Towards
// Statistical Guarantees in Controlling Quality Tradeoffs for Approximate
// Acceleration" (ISCA 2016).
//
// MITHRA is a hardware-software co-design that decides, per invocation of
// an approximately-accelerated function, whether to invoke the
// accelerator (an NPU) or fall back to the original precise code, while
// providing statistical guarantees — via the Clopper-Pearson exact method
// — that a desired final output quality loss will be met on unseen input
// datasets with high confidence.
//
// The typical flow mirrors the paper's compiler workflow:
//
//	b, _ := mithra.NewBenchmark("sobel")
//	ctx, _ := mithra.NewContext(b, mithra.DefaultOptions())
//	dep, _ := ctx.Deploy(mithra.PaperGuarantee())     // Algorithm 1 + classifier training
//	res := dep.EvaluateValidation(mithra.DesignTable) // unseen-data evaluation
//
// Context building trains the NPU and captures invocation traces; Deploy
// tunes the error threshold for the requested guarantee and pre-trains
// the table-based and neural hardware classifiers; Evaluate replays the
// unseen datasets under a chosen design and reports quality, certified
// success rate, and simulated speedup/energy gains.
//
// The full evaluation campaign (every table and figure of the paper) is
// exposed through Report and the cmd/mithra binaries.
package mithra

import (
	"io"

	"mithra/internal/axbench"
	"mithra/internal/classifier"
	"mithra/internal/core"
	"mithra/internal/dataset"
	"mithra/internal/experiments"
	"mithra/internal/stats"
)

// Re-exported types. These are aliases, so values flow freely between the
// public API and the internal packages.
type (
	// Benchmark is one AxBench application (kernel + application driver +
	// quality metric + timing profile).
	Benchmark = axbench.Benchmark
	// Scale sizes generated datasets (image dimensions, batch sizes, ...).
	Scale = axbench.Scale
	// Options configures the compilation pipeline.
	Options = core.Options
	// Context is a benchmark's compiled, guarantee-independent state:
	// trained NPU plus captured compile/validation traces.
	Context = core.Context
	// Deployment is a tuned threshold plus pre-trained classifiers for
	// one quality guarantee.
	Deployment = core.Deployment
	// Design selects the quality-control mechanism under evaluation.
	Design = core.Design
	// EvalResult aggregates quality, certification, and simulated gains.
	EvalResult = core.EvalResult
	// Guarantee is the statistical guarantee the programmer requests.
	Guarantee = stats.Guarantee
	// Classifier is the hardware decision mechanism interface.
	Classifier = classifier.Classifier
	// TableConfig sizes the table-based classifier.
	TableConfig = classifier.TableConfig
	// ReportConfig parameterizes a full evaluation campaign.
	ReportConfig = experiments.Config
	// Program is a loaded, runnable deployment (real execution with
	// per-invocation quality control; no traces required).
	Program = core.Program
	// RunStats reports one quality-controlled execution.
	RunStats = core.RunStats
	// Image is a grayscale image with [0,1] intensities (PGM-convertible).
	Image = dataset.Image
	// Input is one application input dataset.
	Input = axbench.Input
)

// The evaluated designs.
const (
	DesignNone     = core.DesignNone
	DesignOracle   = core.DesignOracle
	DesignTable    = core.DesignTable
	DesignNeural   = core.DesignNeural
	DesignRandom   = core.DesignRandom
	DesignTableSW  = core.DesignTableSW
	DesignNeuralSW = core.DesignNeuralSW
)

// Benchmarks returns the names of the six AxBench applications in Table I
// order.
func Benchmarks() []string { return axbench.Names() }

// NewBenchmark constructs a benchmark by name.
func NewBenchmark(name string) (Benchmark, error) { return axbench.New(name) }

// NewContext trains the NPU for b and captures all dataset traces.
func NewContext(b Benchmark, opts Options) (*Context, error) { return core.NewContext(b, opts) }

// DefaultOptions is the medium-scale pipeline configuration.
func DefaultOptions() Options { return core.DefaultOptions() }

// PaperOptions is the paper's full-scale configuration (250+250 datasets,
// 512x512 images, ...). Expect long runtimes.
func PaperOptions() Options { return core.PaperOptions() }

// TestOptions is a minimal configuration for smoke tests.
func TestOptions() Options { return core.TestOptions() }

// PaperGuarantee is the paper's headline operating point: 5% quality
// loss, 90% success rate, 95% confidence (two-sided interval convention).
func PaperGuarantee() Guarantee { return stats.PaperGuarantee() }

// Compile is the one-call convenience: build the context for the named
// benchmark and deploy it for the guarantee.
func Compile(benchName string, g Guarantee, opts Options) (*Deployment, error) {
	b, err := axbench.New(benchName)
	if err != nil {
		return nil, err
	}
	ctx, err := core.NewContext(b, opts)
	if err != nil {
		return nil, err
	}
	return ctx.Deploy(g)
}

// DefaultReportConfig is the medium-scale evaluation campaign matching
// the paper's sweep structure.
func DefaultReportConfig() ReportConfig { return experiments.DefaultConfig() }

// Report runs the configured experiments — all of them when ids is empty,
// otherwise the named subset — rendering each table to w.
func Report(cfg ReportConfig, w io.Writer, ids ...string) error {
	s, err := experiments.NewSuite(cfg)
	if err != nil {
		return err
	}
	if len(ids) == 0 {
		return experiments.RunAll(s, w)
	}
	for _, id := range ids {
		if err := experiments.RunOne(s, id, w, experiments.FormatText); err != nil {
			return err
		}
	}
	return nil
}

// LoadProgram deserializes a Deployment.Export artifact into a runnable
// Program.
func LoadProgram(data []byte) (*Program, error) { return core.LoadProgram(data) }

// ReadPGM decodes a P5/P2 portable graymap into an Image.
func ReadPGM(r io.Reader) (*Image, error) { return dataset.ReadPGM(r) }

// NewImageInput wraps an image as a sobel dataset.
func NewImageInput(im *Image) Input { return axbench.NewImageInput(im) }

// NewJPEGInput wraps an image (cropped to 8-pixel multiples) as a jpeg
// dataset.
func NewJPEGInput(im *Image) (Input, error) { return axbench.NewJPEGInput(im) }

// ExperimentIDs lists the regenerable tables/figures (DESIGN.md §4).
func ExperimentIDs() []string {
	rs := experiments.Runners()
	ids := make([]string, len(rs))
	for i, r := range rs {
		ids[i] = r.ID
	}
	return ids
}
