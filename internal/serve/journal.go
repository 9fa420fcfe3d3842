package serve

import (
	"fmt"
	"hash/fnv"

	"mithra/internal/obs"
)

// DecisionSet accumulates one run's accept/reject decisions in
// invocation order and fingerprints them, so a served run and an offline
// replay can be compared byte-for-byte — the end-to-end determinism
// check behind `mithra journal diff <served> <offline>`.
type DecisionSet struct {
	// Bench names the benchmark the decisions belong to.
	Bench string
	dec   []byte
}

// NewDecisionSet starts an empty set for bench.
func NewDecisionSet(bench string) *DecisionSet {
	return &DecisionSet{Bench: bench}
}

// Append records the next invocation's decision.
func (d *DecisionSet) Append(precise bool) {
	b := byte('a')
	if precise {
		b = 'p'
	}
	d.dec = append(d.dec, b)
}

// AppendBools records a run of decisions (e.g. a Trace.Replay dst slice).
func (d *DecisionSet) AppendBools(dec []bool) {
	for _, p := range dec {
		d.Append(p)
	}
}

// Len returns the number of recorded decisions.
func (d *DecisionSet) Len() int { return len(d.dec) }

// Bytes returns the decision string: one byte per invocation, 'p' for
// precise fallback, 'a' for accelerated.
func (d *DecisionSet) Bytes() []byte { return append([]byte(nil), d.dec...) }

// Digest fingerprints the decision sequence (FNV-1a over the decision
// bytes), rendered as a stable string for journal configs.
func (d *DecisionSet) Digest() string {
	h := fnv.New64a()
	h.Write(d.dec) //nolint:errcheck // hash.Hash never errors
	return fmt.Sprintf("fnv1a:%016x", h.Sum64())
}

// WriteJournal writes a standalone decision journal to path: a run
// journal whose config is exactly the decision fingerprint (benchmark,
// invocation count, digest). Two runs that decided identically produce
// journals that `mithra journal diff` reports clean, regardless of which
// side was served and which was replayed offline, and at any client
// shape.
func (d *DecisionSet) WriteJournal(path string, seed uint64) error {
	o, err := obs.New(obs.Options{JournalPath: path})
	if err != nil {
		return fmt.Errorf("serve: decision journal: %w", err)
	}
	o.RunStart("decisions", seed, map[string]any{
		"bench":  d.Bench,
		"count":  d.Len(),
		"digest": d.Digest(),
	}, nil)
	return o.Close(nil)
}
