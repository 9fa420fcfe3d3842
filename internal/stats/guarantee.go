package stats

import "fmt"

// Guarantee describes the statistical guarantee the programmer requests
// from MITHRA: with probability Confidence, at least SuccessRate of unseen
// input datasets will meet the desired final quality loss.
//
// The paper quotes its results "for 95% confidence and 90% success rate"
// and writes the interval's lower limit as S^(97.5%) — i.e. it takes the
// lower limit of the *two-sided* 95% Clopper-Pearson interval, which is a
// one-sided bound at level 1 - (1-0.95)/2 = 97.5%. TwoSided preserves that
// convention (and reproduces the paper's "235 out of 250" operating
// point); setting it to false uses the nominal confidence directly as a
// one-sided level.
type Guarantee struct {
	// QualityLoss is the desired final output quality loss (e.g. 0.05 for
	// the paper's headline 5% level).
	QualityLoss float64
	// SuccessRate is the required fraction of unseen datasets meeting
	// QualityLoss (paper: 0.90).
	SuccessRate float64
	// Confidence is the probability the projection is true (paper: 0.95).
	Confidence float64
	// TwoSided selects the paper's two-sided interval convention.
	TwoSided bool
}

// PaperGuarantee returns the guarantee used for the paper's headline
// results: 5% quality loss, 90% success rate, 95% confidence, two-sided
// interval convention.
func PaperGuarantee() Guarantee {
	return Guarantee{QualityLoss: 0.05, SuccessRate: 0.90, Confidence: 0.95, TwoSided: true}
}

// EffectiveLevel returns the one-sided confidence level at which the
// Clopper-Pearson lower bound is evaluated.
func (g Guarantee) EffectiveLevel() float64 {
	if g.TwoSided {
		return 1 - (1-g.Confidence)/2
	}
	return g.Confidence
}

// LowerBound returns the certified success-rate lower bound for the given
// number of successful datasets.
func (g Guarantee) LowerBound(successes, trials int) float64 {
	return ClopperPearsonLower(successes, trials, g.EffectiveLevel())
}

// BoundTable returns the Clopper-Pearson bounds for every success count
// out of a fixed number of trials: lower[k] is LowerBound(k, trials) and
// upper[k] is the upper limit at the same effective level. A caller that
// re-checks a fixed-size window builds it once and then reads bounds by
// index instead of inverting the Beta distribution per check.
func (g Guarantee) BoundTable(trials int) (lower, upper []float64) {
	lower = make([]float64, trials+1)
	upper = make([]float64, trials+1)
	for k := range lower {
		lower[k] = g.LowerBound(k, trials)
		upper[k] = ClopperPearsonUpper(k, trials, g.EffectiveLevel())
	}
	return lower, upper
}

// Holds reports whether `successes` out of `trials` certifies the
// guarantee.
func (g Guarantee) Holds(successes, trials int) bool {
	return g.LowerBound(successes, trials) >= g.SuccessRate
}

// RequiredSuccesses returns the minimum number of successful datasets out
// of `trials` needed to certify the guarantee, or trials+1 if the sample
// is too small for any outcome to certify it.
func (g Guarantee) RequiredSuccesses(trials int) int {
	return MinSuccesses(trials, g.SuccessRate, g.EffectiveLevel())
}

// Validate reports a descriptive error when the guarantee's parameters are
// outside their domains.
func (g Guarantee) Validate() error {
	if g.QualityLoss < 0 || g.QualityLoss >= 1 {
		return fmt.Errorf("stats: quality loss %v outside [0,1)", g.QualityLoss)
	}
	if g.SuccessRate <= 0 || g.SuccessRate >= 1 {
		return fmt.Errorf("stats: success rate %v outside (0,1)", g.SuccessRate)
	}
	if g.Confidence <= 0 || g.Confidence >= 1 {
		return fmt.Errorf("stats: confidence %v outside (0,1)", g.Confidence)
	}
	return nil
}

func (g Guarantee) String() string {
	return fmt.Sprintf("quality<=%.3g success>=%.0f%% conf=%.0f%%",
		g.QualityLoss, g.SuccessRate*100, g.Confidence*100)
}
