// Package obs is the pipeline's observability layer: hierarchical
// tracing spans, a concurrency-safe metrics registry, an append-only
// JSONL run journal, a leveled logger, and an opt-in pprof/expvar debug
// endpoint — all stdlib-only.
//
// The layer is designed around the repository's determinism contract
// (DESIGN.md §8, internal/lint): telemetry lives entirely outside the
// deterministic result path, every wall-clock read flows through an
// injected Clock whose single time.Now call carries an audited
// //lint:ignore suppression, and journals are canonically ordered so
// that two same-seed runs differ only in timestamp fields regardless of
// worker count or goroutine scheduling (see DESIGN.md §9 for the span
// taxonomy, metric names, and journal schema).
//
// Everything is nil-safe: a nil *Obs (telemetry disabled, the default)
// turns every span, counter, and log call into a no-op, so instrumented
// pipeline code carries no conditionals.
package obs

import (
	"fmt"
	"io"
)

// Options configures an Obs bundle.
type Options struct {
	// Clock stamps spans, journal events, and snapshots (nil: RealClock).
	Clock Clock
	// Trace enables span collection.
	Trace bool
	// Metrics enables the metrics registry.
	Metrics bool
	// JournalPath, when non-empty, writes the run journal to this file.
	JournalPath string
	// JournalWriter overrides JournalPath with an in-memory destination
	// (tests). When both are empty no journal is produced.
	JournalWriter io.Writer
	// Log is the progress logger surfaced via Obs.Log (may be nil).
	Log *Logger
}

// Obs bundles the observability instruments threaded through the
// pipeline (core.Options.Obs, threshold.Options.Obs, ...). The zero
// value of *Obs — nil — disables everything.
type Obs struct {
	clock   Clock
	tracer  *Tracer
	reg     *Registry
	journal *Journal
	logger  *Logger
	root    *Span
}

// New assembles an Obs. It returns an error only when the journal file
// cannot be created.
func New(o Options) (*Obs, error) {
	clock := o.Clock
	if clock == nil {
		clock = RealClock()
	}
	b := &Obs{clock: clock, logger: o.Log}
	if o.Trace {
		b.tracer = NewTracer(clock)
	}
	if o.Metrics {
		b.reg = NewRegistry()
	}
	switch {
	case o.JournalWriter != nil:
		b.journal = NewJournal(o.JournalWriter, clock)
	case o.JournalPath != "":
		j, err := OpenJournal(o.JournalPath, clock)
		if err != nil {
			return nil, err
		}
		b.journal = j
	}
	return b, nil
}

// Log returns the progress logger (nil-safe; the logger itself is also
// nil-safe).
func (o *Obs) Log() *Logger {
	if o == nil {
		return nil
	}
	return o.logger
}

// Metrics returns the registry (nil when metrics are disabled).
func (o *Obs) Metrics() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Journal returns the run journal (nil when journaling is disabled).
func (o *Obs) Journal() *Journal {
	if o == nil {
		return nil
	}
	return o.journal
}

// StartSpan opens a span under this Obs's scope root (nil root: a
// journal root span). Nil-safe.
func (o *Obs) StartSpan(name string, attrs ...Attr) *Span {
	if o == nil {
		return nil
	}
	return o.tracer.Start(o.root, name, attrs...)
}

// Scope returns a shallow copy of the bundle whose StartSpan parents new
// spans under parent — how the pipeline nests telemetry across package
// boundaries without threading span arguments through every signature
// (core.Deploy scopes the threshold search under its deploy span, the
// CLI scopes the whole pipeline under its run span). Nil-safe.
func (o *Obs) Scope(parent *Span) *Obs {
	if o == nil || parent == nil {
		return o
	}
	cp := *o
	cp.root = parent
	return &cp
}

// Counter returns the named counter (nil-safe no-op when metrics are
// disabled).
func (o *Obs) Counter(name string) *Counter { return o.Metrics().Counter(name) }

// Gauge returns the named gauge. Gauges are last-write-wins: set them
// only from serial code (see Registry).
func (o *Obs) Gauge(name string) *Gauge { return o.Metrics().Gauge(name) }

// Histogram returns the named fixed-bucket histogram.
func (o *Obs) Histogram(name string, bounds []float64) *Histogram {
	return o.Metrics().Histogram(name, bounds)
}

// Note records a freeform named journal event (refused snapshot
// installs, WAL recovery, fault-plan activation). Nil-safe.
func (o *Obs) Note(name string, attrs map[string]any) {
	o.Journal().Note(name, attrs)
}

// RunStart records the run identity in the journal. Nil-safe.
func (o *Obs) RunStart(cmd string, seed uint64, config, runtime map[string]any) {
	o.Journal().RunStart(cmd, seed, config, runtime)
}

// Close drains the tracer, snapshots the registry, and finalizes the
// journal with the run status ("ok", or "error" with runErr's message).
// Nil-safe; an Obs without a journal closes trivially.
func (o *Obs) Close(runErr error) error {
	if o == nil || o.journal == nil {
		return nil
	}
	now := o.clock.Now()
	if o.tracer != nil {
		o.journal.AddSpans(o.tracer.Drain(now))
	}
	if o.reg != nil {
		o.journal.AddMetrics(o.reg.Snapshot())
	}
	status := "ok"
	if runErr != nil {
		status = "error"
	}
	if err := o.journal.Close(status, runErr); err != nil {
		return fmt.Errorf("obs: close journal: %w", err)
	}
	return nil
}
