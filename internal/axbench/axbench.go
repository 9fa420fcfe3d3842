// Package axbench reimplements the six AxBench applications the paper
// evaluates MITHRA on (Table I): blackscholes, fft, inversek2j, jmeint,
// jpeg, and sobel. Each benchmark exposes
//
//   - its safe-to-approximate target function (the kernel the NPU
//     replaces), with the exact input/output widths and NPU topology from
//     the paper's Table I;
//   - an application driver that runs the whole program, delegating every
//     kernel invocation to a pluggable Invoker (precise code, the NPU, or
//     MITHRA's classified mix);
//   - the application-specific quality metric; and
//   - a timing/energy profile used by internal/sim (see DESIGN.md for the
//     calibration rationale).
//
// The application drivers are written so the final output is a pure
// function of the per-invocation outputs: kernel outputs never feed the
// inputs of later invocations. This property (which holds for the real
// AxBench codes too — the kernels are data-parallel) is what allows
// internal/trace to capture invocations once and replay decision vectors
// cheaply during threshold search.
package axbench

import (
	"fmt"
	"sort"
	"sync"

	"mithra/internal/mathx"
	"mithra/internal/quality"
)

// Invoker computes the target function for one invocation: it reads in
// and writes the result into out. Implementations must not retain either
// slice.
type Invoker func(in, out []float64)

// Input is one application input dataset (an image, an option batch, a
// signal buffer, ...).
type Input interface {
	// Invocations returns how many kernel invocations running the
	// application on this input will perform.
	Invocations() int
}

// Scale sizes the generated datasets. The paper's inputs (512x512 images,
// 4096-option batches, 2048-point signals, 10000-element streams) are
// PaperScale; unit tests use TestScale to keep runtimes sane while
// preserving every code path.
type Scale struct {
	ImageW, ImageH int // jpeg, sobel
	Options        int // blackscholes
	SignalLen      int // fft; must be a power of two
	Points         int // inversek2j
	Pairs          int // jmeint
}

// PaperScale reproduces the input sizes of the paper's Table I.
func PaperScale() Scale {
	return Scale{ImageW: 512, ImageH: 512, Options: 4096, SignalLen: 2048, Points: 10000, Pairs: 10000}
}

// MediumScale is the default for the experiment binaries: large enough for
// stable statistics, small enough to sweep every figure in minutes.
func MediumScale() Scale {
	return Scale{ImageW: 128, ImageH: 128, Options: 1024, SignalLen: 512, Points: 2048, Pairs: 2048}
}

// TestScale keeps unit tests fast.
func TestScale() Scale {
	return Scale{ImageW: 40, ImageH: 40, Options: 160, SignalLen: 128, Points: 200, Pairs: 200}
}

// Profile carries the calibrated timing/energy parameters of the precise
// application region (see DESIGN.md §2 for the substitution rationale:
// these stand in for MARSSx86 + McPAT measurements and fix the relative
// cost of precise execution vs. NPU invocation per benchmark).
type Profile struct {
	// KernelCycles is the average cost of one precise kernel invocation
	// on the modeled out-of-order core.
	KernelCycles float64
	// KernelFraction is the fraction of baseline (all-precise) runtime
	// spent inside the kernel; the remainder is unaccelerated.
	KernelFraction float64
}

// Benchmark is one AxBench application.
type Benchmark interface {
	// Name returns the benchmark's AxBench name ("sobel", ...).
	Name() string
	// Domain returns the application domain from Table I.
	Domain() string
	// InputDim and OutputDim give the kernel's vector widths.
	InputDim() int
	OutputDim() int
	// Topology returns the NPU topology from Table I (includes the input
	// and output layers).
	Topology() []int
	// Metric returns the application-specific quality metric.
	Metric() quality.Metric
	// Profile returns the calibrated timing/energy profile.
	Profile() Profile
	// GenInput synthesizes one application input dataset from rng.
	GenInput(rng *mathx.RNG, scale Scale) Input
	// Run executes the application on in, calling invoke once per kernel
	// invocation, and returns the flattened final output elements.
	Run(in Input, invoke Invoker) []float64
	// Precise computes the exact kernel: reads in (InputDim values) and
	// writes out (OutputDim values).
	Precise(in, out []float64)
}

// Separable is implemented by benchmarks whose every final-output element
// is computed from exactly one invocation's kernel output (and the input
// dataset): the element-wise and block-wise applications. For them, the
// output under any decision vector is a per-element selection between the
// all-precise and all-approximate outputs, which is what lets
// internal/trace replay a decision vector without running the
// application. fft is not separable: every butterfly stage mixes earlier
// twiddle factors into every output bin.
type Separable interface {
	// Owners returns, for each element of Run(in, ·)'s output, the index
	// of the invocation that element is computed from. The slice is shared
	// by every input of the same shape and must not be modified.
	Owners(in Input) []int
}

// ownerCache memoizes a benchmark's owner slices by input shape, so
// every dataset of one shape shares one slice. It grows by one entry per
// distinct shape; the zero value is ready to use.
type ownerCache struct {
	mu sync.Mutex
	m  map[[2]int][]int
}

// get returns the slice for shape, building it on first use.
func (c *ownerCache) get(shape [2]int, build func() []int) []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if o, ok := c.m[shape]; ok {
		return o
	}
	if c.m == nil {
		c.m = make(map[[2]int][]int)
	}
	o := build()
	c.m[shape] = o
	return o
}

// elementOwners is the layout of an application whose invocation i writes
// output elements [i*per, (i+1)*per).
func (c *ownerCache) elementOwners(n, per int) []int {
	return c.get([2]int{n, per}, func() []int {
		o := make([]int, n*per)
		for e := range o {
			o[e] = e / per
		}
		return o
	})
}

// The separable benchmarks; fft is the one that is not.
var (
	_ Separable = (*Blackscholes)(nil)
	_ Separable = (*InverseK2J)(nil)
	_ Separable = (*Jmeint)(nil)
	_ Separable = (*JPEG)(nil)
	_ Separable = (*KMeans)(nil)
	_ Separable = (*Sobel)(nil)
)

// PreciseInvoker returns an Invoker that runs b's exact kernel.
func PreciseInvoker(b Benchmark) Invoker {
	return b.Precise
}

// registry of benchmark constructors, keyed by name. The paper's Table I
// suite plus extensions.
var registry = map[string]func() Benchmark{
	"blackscholes": func() Benchmark { return NewBlackscholes() },
	"fft":          func() Benchmark { return NewFFT() },
	"inversek2j":   func() Benchmark { return NewInverseK2J() },
	"jmeint":       func() Benchmark { return NewJmeint() },
	"jpeg":         func() Benchmark { return NewJPEG() },
	"sobel":        func() Benchmark { return NewSobel() },
	"kmeans":       func() Benchmark { return NewKMeans() },
}

// extensions lists registered benchmarks beyond the paper's Table I; they
// are excluded from Names/All so the figure reproductions stay faithful.
var extensions = map[string]bool{"kmeans": true}

// Names returns the benchmark names in the paper's Table I order.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		if !extensions[n] {
			names = append(names, n)
		}
	}
	sort.Strings(names) // Table I happens to be alphabetical
	return names
}

// Extensions returns the extra benchmarks available beyond Table I.
func Extensions() []string {
	names := make([]string, 0, len(extensions))
	for n := range extensions {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// New constructs the named benchmark or returns an error listing the
// valid names.
func New(name string) (Benchmark, error) {
	ctor, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("axbench: unknown benchmark %q (valid: %v)", name, Names())
	}
	return ctor(), nil
}

// All constructs every benchmark in Table I order.
func All() []Benchmark {
	names := Names()
	out := make([]Benchmark, len(names))
	for i, n := range names {
		b, err := New(n)
		if err != nil {
			panic(err) // unreachable: names come from the registry
		}
		out[i] = b
	}
	return out
}
