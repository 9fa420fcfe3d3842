// Package classifier implements MITHRA's hardware quality-control
// classifiers (paper §IV): the decision mechanisms that map an accelerator
// input vector to a single bit — invoke the accelerator, or fall back to
// the original precise function.
//
// Two realistic designs are provided, matching the paper: a table-based
// classifier (an ensemble of single-bit tables indexed by MISR hashes,
// compressed with BDI) and a neural classifier (a 3-layer MLP executed on
// the NPU itself). A random-filtering baseline reproduces the paper's
// input-oblivious comparison point. The oracle is not a Classifier — it
// needs ground-truth errors, which only exist in captured traces — and
// lives in internal/trace as ThresholdOracle.
package classifier

import (
	"fmt"

	"mithra/internal/mathx"
)

// Sample is one training tuple from the compiler's profiling run: the
// accelerator input vector and whether the accelerator's error on it
// exceeded the tuned threshold (Bad == true means the invocation must run
// precisely).
type Sample struct {
	In  []float64
	Bad bool
}

// Overhead is the per-invocation runtime cost of consulting a classifier.
type Overhead struct {
	Cycles   int
	EnergyPJ float64
}

// Classifier decides, per invocation, whether to run the precise function.
type Classifier interface {
	// Name identifies the design ("table", "neural", "random").
	Name() string
	// Classify returns true when the invocation should fall back to the
	// precise function. Implementations may reuse internal scratch and are
	// not safe for concurrent use.
	Classify(in []float64) bool
	// Overhead returns the per-invocation cost of the decision.
	Overhead() Overhead
	// SizeBytes returns the deployed storage footprint (compressed, for
	// the table design) — the paper's Table II quantity.
	SizeBytes() int
}

// ConcurrentViewer is implemented by classifiers whose trained state can
// back several concurrent evaluation streams. Classify itself reuses
// per-classifier scratch buffers and is never safe to share across
// goroutines; ConcurrentView returns an equivalent classifier — identical
// decisions, identical Overhead — with private scratch, for one worker's
// exclusive use. Views are for read-only classification: updating a view
// (e.g. Table.Update) does not propagate to the original.
type ConcurrentViewer interface {
	Classifier
	ConcurrentView() Classifier
}

// Stats compares a classifier's decisions against the oracle's on labeled
// samples (paper Figure 7).
type Stats struct {
	Total int
	// FalsePositives: invocations the oracle would accelerate but the
	// classifier sent to the precise core (lost benefit).
	FalsePositives int
	// FalseNegatives: invocations the oracle would filter out but the
	// classifier accelerated (quality risk).
	FalseNegatives int
}

// FPRate returns false positives as a fraction of all invocations.
func (s Stats) FPRate() float64 {
	if s.Total == 0 {
		return 0
	}
	return float64(s.FalsePositives) / float64(s.Total)
}

// FNRate returns false negatives as a fraction of all invocations.
func (s Stats) FNRate() float64 {
	if s.Total == 0 {
		return 0
	}
	return float64(s.FalseNegatives) / float64(s.Total)
}

// Evaluate runs c over labeled samples and tallies false decisions
// against the ground-truth labels (which is exactly the oracle's
// decision).
func Evaluate(c Classifier, samples []Sample) Stats {
	st := Stats{Total: len(samples)}
	for _, s := range samples {
		precise := c.Classify(s.In)
		switch {
		case precise && !s.Bad:
			st.FalsePositives++
		case !precise && s.Bad:
			st.FalseNegatives++
		}
	}
	return st
}

// Random is the input-oblivious filtering baseline (paper §V-B1,
// "Comparison with random filtering"): it delegates each invocation to the
// accelerator with a fixed probability, irrespective of the inputs.
type Random struct {
	rate float64
	rng  *mathx.RNG
}

// NewRandom returns a random filter that accelerates with probability
// rate.
func NewRandom(rate float64, seed uint64) *Random {
	if rate < 0 || rate > 1 {
		panic(fmt.Sprintf("classifier: random rate %v outside [0,1]", rate))
	}
	return &Random{rate: rate, rng: mathx.NewRNG(seed)}
}

// Name implements Classifier.
func (*Random) Name() string { return "random" }

// Classify implements Classifier.
func (r *Random) Classify([]float64) bool { return !r.rng.Bool(r.rate) }

// Overhead implements Classifier: a random decision is essentially free
// (an LFSR bit).
func (*Random) Overhead() Overhead { return Overhead{Cycles: 1, EnergyPJ: 0.5} }

// SizeBytes implements Classifier.
func (*Random) SizeBytes() int { return 2 } // the LFSR state

var _ Classifier = (*Random)(nil)
