package main

import (
	"math"
	"sort"
)

// tailCandidates are the percentiles a tail latency is reported at, from
// the median up.
var tailCandidates = []float64{50, 90, 99, 99.9, 99.99, 99.999}

// tailPercentile returns the highest candidate percentile that leaves at
// least ten of n samples beyond it, so the figure rests on more than a
// handful of outliers. ok is false when n is too small for even the
// median.
func tailPercentile(n int) (p float64, ok bool) {
	for _, c := range tailCandidates {
		beyond := float64(n) * (1 - c/100)
		// The small slack absorbs float rounding in 1-c/100.
		if beyond+1e-9 < 10 {
			break
		}
		p, ok = c, true
	}
	return p, ok
}

// percentile returns the p-th percentile (0..100) of sorted by nearest
// rank. It returns 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median returns the median of xs without reordering it.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// latencySummary is a latency sample reduced to what the result reports.
type latencySummary struct {
	n        int
	p50, p99 float64
	// tailP is the highest percentile with ten samples beyond it, and
	// tail its value; the human report states both next to n.
	tailP, tail float64
}

func summarize(samples []float64) latencySummary {
	s := sortedCopy(samples)
	ls := latencySummary{n: len(s), p50: percentile(s, 50), p99: percentile(s, 99)}
	if p, ok := tailPercentile(len(s)); ok {
		ls.tailP, ls.tail = p, percentile(s, p)
	}
	return ls
}

// decisionWindow is the window size, in decisions, for windowed
// percentiles: enough for ten samples beyond the p99.
const decisionWindow = 1000

// windowed splits xs, in arrival order, into consecutive windows of w
// samples (a trailing window of fewer than w/2 joins the one before it)
// and returns, for each percentile in ps, the median over windows of
// that window percentile. On a shared virtual machine the host takes a
// CPU away for up to milliseconds a few hundred times a second; a median
// over windows keeps those stalls from deciding a tail figure.
func windowed(xs []float64, w int, ps ...float64) []float64 {
	per := make([][]float64, len(ps))
	for lo := 0; lo < len(xs); {
		hi := min(lo+w, len(xs))
		if len(xs)-hi < w/2 {
			hi = len(xs)
		}
		s := sortedCopy(xs[lo:hi])
		for k, p := range ps {
			per[k] = append(per[k], percentile(s, p))
		}
		lo = hi
	}
	out := make([]float64, len(ps))
	for k := range ps {
		out[k] = median(per[k])
	}
	return out
}
