package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// Journal is the append-only JSONL event stream of one run: run identity,
// serialized spans, metric snapshots, and a final status. Events are
// buffered in memory and written when the journal closes, after the span
// trees have been canonically ordered — so two runs of the same workload
// at any worker count produce journals whose only differences are
// timestamp fields (ts, dur_ns) and the runtime block. The volatile key
// set is shared with DiffJournals.
//
// A journal is small (one event per span plus a handful of bookkeeping
// lines), so buffering costs nothing; crash-time visibility comes from
// the live debug endpoint, not the journal.
type Journal struct {
	clock Clock

	mu     sync.Mutex
	w      io.Writer
	closer io.Closer
	events []event
	closed bool
}

// event is the single wire envelope for every journal line. One struct
// (rather than one per event type) pins a global field order, so journal
// bytes are stable across event kinds.
type event struct {
	T       string         `json:"t"`
	Seq     int            `json:"seq"`
	TS      string         `json:"ts,omitempty"`
	Cmd     string         `json:"cmd,omitempty"`
	Seed    *uint64        `json:"seed,omitempty"`
	Config  map[string]any `json:"config,omitempty"`
	Runtime map[string]any `json:"runtime,omitempty"`
	Name    string         `json:"name,omitempty"`
	Path    string         `json:"path,omitempty"`
	Attrs   map[string]any `json:"attrs,omitempty"`
	DurNS   int64          `json:"dur_ns,omitempty"`
	Metrics *Snapshot      `json:"metrics,omitempty"`
	Status  string         `json:"status,omitempty"`
	Error   string         `json:"error,omitempty"`
}

// NewJournal buffers events and writes them to w at Close (nil clock:
// RealClock).
func NewJournal(w io.Writer, clock Clock) *Journal {
	if clock == nil {
		clock = RealClock()
	}
	return &Journal{clock: clock, w: w}
}

// OpenJournal creates (truncating) the journal file at path.
func OpenJournal(path string, clock Clock) (*Journal, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("obs: create journal: %w", err)
	}
	j := NewJournal(f, clock)
	j.closer = f
	return j, nil
}

func (j *Journal) stamp(t time.Time) string { return t.UTC().Format(time.RFC3339Nano) }

// RunStart records the run's identity: the command, the experiment seed,
// the configuration that shapes results, and a runtime block (worker
// counts, toolchain, VCS revision) that is excluded from journal diffs.
// Nil-safe.
func (j *Journal) RunStart(cmd string, seed uint64, config, runtime map[string]any) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.events = append(j.events, event{
		T: "run_start", TS: j.stamp(j.clock.Now()),
		Cmd: cmd, Seed: &seed, Config: config, Runtime: runtime,
	})
}

// Note appends a freeform named event — resilience bookkeeping like
// refused snapshot installs, WAL recoveries, and fault-plan activation
// that belongs in the run record but is neither a span nor a metric.
// Nil-safe and concurrency-safe; events buffer until Close like every
// other journal line.
func (j *Journal) Note(name string, attrs map[string]any) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.events = append(j.events, event{
		T: "note", TS: j.stamp(j.clock.Now()), Name: name, Attrs: attrs,
	})
}

// AddSpans appends serialized spans (from Tracer.Drain). Nil-safe.
func (j *Journal) AddSpans(evs []SpanEvent) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, e := range evs {
		j.events = append(j.events, event{
			T: "span", TS: j.stamp(e.Start),
			Name: e.Name, Path: e.Path, Attrs: e.Attrs,
			DurNS: e.Dur.Nanoseconds(),
		})
	}
}

// AddMetrics appends a metrics snapshot. Nil-safe.
func (j *Journal) AddMetrics(s Snapshot) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	snap := s
	j.events = append(j.events, event{
		T: "metrics", TS: j.stamp(j.clock.Now()), Metrics: &snap,
	})
}

// Close appends the run_end event and writes every buffered line.
// Nil-safe; closing twice is an error-free no-op.
func (j *Journal) Close(status string, runErr error) error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	end := event{T: "run_end", TS: j.stamp(j.clock.Now()), Status: status}
	if runErr != nil {
		end.Error = runErr.Error()
	}
	j.events = append(j.events, end)

	bw := bufio.NewWriter(j.w)
	for i := range j.events {
		j.events[i].Seq = i
		line, err := json.Marshal(j.events[i])
		if err != nil {
			return fmt.Errorf("obs: encode journal event %d: %w", i, err)
		}
		bw.Write(line)
		bw.WriteByte('\n')
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("obs: write journal: %w", err)
	}
	if j.closer != nil {
		return j.closer.Close()
	}
	return nil
}
