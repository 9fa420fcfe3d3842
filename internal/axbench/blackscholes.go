package axbench

import (
	"math"

	"mithra/internal/dataset"
	"mithra/internal/mathx"
	"mithra/internal/quality"
)

// Blackscholes prices European options with the Black-Scholes closed-form
// model — the PARSEC-derived financial-analysis benchmark. The kernel maps
// the six option parameters to one price; the application prices a batch
// of options and the final output is the price vector.
type Blackscholes struct{ owners ownerCache }

// NewBlackscholes returns the benchmark.
func NewBlackscholes() *Blackscholes { return &Blackscholes{} }

// Name implements Benchmark.
func (*Blackscholes) Name() string { return "blackscholes" }

// Domain implements Benchmark.
func (*Blackscholes) Domain() string { return "Financial Analysis" }

// InputDim implements Benchmark.
func (*Blackscholes) InputDim() int { return 6 }

// OutputDim implements Benchmark.
func (*Blackscholes) OutputDim() int { return 1 }

// Topology implements Benchmark (Table I: 6->8->3->1).
func (*Blackscholes) Topology() []int { return []int{6, 8, 3, 1} }

// Metric implements Benchmark.
func (*Blackscholes) Metric() quality.Metric { return quality.AvgRelativeError{} }

// Profile implements Benchmark. The Black-Scholes kernel is dominated by
// exp/log/sqrt/CND evaluations (~600 core cycles); ~80% of baseline
// runtime is kernel time.
func (*Blackscholes) Profile() Profile {
	return Profile{KernelCycles: 600, KernelFraction: 0.80}
}

// optionsInput is one dataset: a batch of options.
type optionsInput struct {
	opts []dataset.Option
}

// Invocations implements Input.
func (o *optionsInput) Invocations() int { return len(o.opts) }

// GenInput implements Benchmark.
func (*Blackscholes) GenInput(rng *mathx.RNG, scale Scale) Input {
	return &optionsInput{opts: dataset.GenOptions(rng, scale.Options)}
}

// Run implements Benchmark.
func (b *Blackscholes) Run(in Input, invoke Invoker) []float64 {
	data := in.(*optionsInput)
	out := make([]float64, len(data.opts))
	kin := make([]float64, 6)
	kout := make([]float64, 1)
	for i, opt := range data.opts {
		copy(kin, opt.Vector())
		invoke(kin, kout)
		out[i] = kout[0]
	}
	return out
}

// Precise implements Benchmark: the Black-Scholes closed form with the
// cumulative normal distribution computed from erf.
func (*Blackscholes) Precise(in, out []float64) {
	s, k, r, v, t, callPut := in[0], in[1], in[2], in[3], in[4], in[5]
	sqrtT := math.Sqrt(t)
	d1 := (math.Log(s/k) + (r+0.5*v*v)*t) / (v * sqrtT)
	d2 := d1 - v*sqrtT
	discount := k * math.Exp(-r*t)
	if callPut < 0.5 {
		out[0] = s*cnd(d1) - discount*cnd(d2)
	} else {
		out[0] = discount*cnd(-d2) - s*cnd(-d1)
	}
}

// cnd is the standard normal CDF.
func cnd(x float64) float64 {
	return 0.5 * (1 + math.Erf(x/math.Sqrt2))
}

// Owners implements Separable: option i's price is invocation i's output.
func (b *Blackscholes) Owners(in Input) []int {
	return b.owners.elementOwners(in.Invocations(), 1)
}
