package serve

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"mithra/internal/classifier"
	"mithra/internal/core"
	"mithra/internal/fault"
	"mithra/internal/obs"
	"mithra/internal/stats"
	"mithra/internal/watch"
)

// ErrorProbe measures the true accelerator error for one input — the
// precise path the sporadic sampler routes invocations through. A probe
// instance owns its scratch buffers and is used by exactly one
// connection reader; NewProbe on the snapshot mints one per reader.
type ErrorProbe func(in []float64) float64

// Snapshot is one benchmark's immutable serving state: the pre-trained
// classifier, the tuned threshold, and the guarantee it certifies — the
// online counterpart of what the paper's compiler encodes into the
// program binary. Snapshots are never mutated after Install; the online
// update path builds a new one and swaps it in atomically.
type Snapshot struct {
	// Bench names the benchmark this snapshot serves.
	Bench string
	// Version is assigned by Registry.Install: 1 for the initial
	// snapshot, incremented on every online-update swap.
	Version uint32
	// Threshold is the tuned accelerator error bound (Equation 1's th).
	Threshold float64
	// G is the quality guarantee the threshold was certified for; the
	// online updater re-checks it over sampled invocations.
	G stats.Guarantee
	// Table is the serving classifier (the design with an online update
	// rule, paper §IV-C1).
	Table *classifier.Table
	// Ref is the build-time reference input histogram the watch monitor
	// compares live traffic against (nil or invalid: divergence gauges
	// disabled). Compiled into the program blob alongside the classifier.
	Ref *watch.Reference
	// probe mints per-reader error probes (nil: sampling measures
	// nothing and the online path is disabled).
	probe func() ErrorProbe
	// blob is the serialized compiled program this snapshot was loaded
	// from (nil when built in-process via NewSnapshot). It is what makes
	// snapshots WAL-persistable: Export splices the current table into
	// this blob, so a WAL record is self-contained and recovery is just
	// LoadSnapshot.
	blob []byte
}

// NewSnapshot assembles a serving snapshot. probeFactory may be nil,
// which disables the error-sampling path.
func NewSnapshot(bench string, tab *classifier.Table, threshold float64,
	g stats.Guarantee, probeFactory func() ErrorProbe) (*Snapshot, error) {
	if bench == "" {
		return nil, fmt.Errorf("serve: snapshot needs a benchmark name")
	}
	if tab == nil {
		return nil, fmt.Errorf("serve: snapshot for %s has no table classifier", bench)
	}
	return &Snapshot{
		Bench:     bench,
		Threshold: threshold,
		G:         g,
		Table:     tab,
		probe:     probeFactory,
	}, nil
}

// SnapshotFromProgram builds a serving snapshot from a loaded compiled
// program (`mithra compile -o` → core.LoadProgram). The error probe runs
// the real precise kernel and the real accelerator, exactly as the
// paper's runtime sampling does.
func SnapshotFromProgram(p *core.Program) (*Snapshot, error) {
	probe := func() ErrorProbe {
		scratch := p.Accel.NewScratch()
		pBuf := make([]float64, p.Bench.OutputDim())
		aBuf := make([]float64, p.Bench.OutputDim())
		return func(in []float64) float64 {
			p.Bench.Precise(in, pBuf)
			p.Accel.Invoke(in, aBuf, scratch)
			maxe := 0.0
			for i := range pBuf {
				d := pBuf[i] - aBuf[i]
				if d < 0 {
					d = -d
				}
				if d > maxe {
					maxe = d
				}
			}
			return maxe
		}
	}
	s, err := NewSnapshot(p.Bench.Name(), p.Table, p.Threshold, p.G, probe)
	if err != nil {
		return nil, err
	}
	if len(p.RefBounds) > 0 {
		ref := &watch.Reference{Bounds: p.RefBounds, Counts: p.RefCounts}
		if ref.Valid() {
			s.Ref = ref
		}
	}
	return s, nil
}

// LoadSnapshot decodes an exported deployment blob and builds its serving
// snapshot. The blob is retained so the snapshot (and every online-update
// descendant of it) can be persisted to the WAL via Export.
func LoadSnapshot(blob []byte) (*Snapshot, error) {
	p, err := core.LoadProgram(blob)
	if err != nil {
		return nil, err
	}
	s, err := SnapshotFromProgram(p)
	if err != nil {
		return nil, err
	}
	s.blob = append([]byte(nil), blob...)
	return s, nil
}

// Export serializes the snapshot as a self-contained compiled-program
// blob: the original deployment blob with the current classifier table
// spliced in, so online-update state survives a crash. Snapshots built
// in-process without a source blob (NewSnapshot) are not exportable.
func (s *Snapshot) Export() ([]byte, error) {
	if s.blob == nil {
		return nil, fmt.Errorf("serve: snapshot %s has no source blob to export", s.Bench)
	}
	var cp core.CompiledProgram
	if err := gob.NewDecoder(bytes.NewReader(s.blob)).Decode(&cp); err != nil {
		return nil, fmt.Errorf("serve: export snapshot %s: %w", s.Bench, err)
	}
	tab, err := s.Table.Encode()
	if err != nil {
		return nil, fmt.Errorf("serve: export snapshot %s: %w", s.Bench, err)
	}
	cp.Table = tab
	cp.Threshold = s.Threshold
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(cp); err != nil {
		return nil, fmt.Errorf("serve: export snapshot %s: %w", s.Bench, err)
	}
	return buf.Bytes(), nil
}

// SetReference installs the divergence reference histogram — test
// scaffolding mirroring what SnapshotFromProgram decodes from a
// compiled blob.
func (s *Snapshot) SetReference(ref *watch.Reference) { s.Ref = ref }

// SetProbe overrides the snapshot's error-probe factory — test scaffolding
// for exercising the online path against a synthetic error model while
// keeping the snapshot loadable from a real compiled blob.
func (s *Snapshot) SetProbe(probeFactory func() ErrorProbe) {
	s.probe = probeFactory
}

// NewProbe mints a per-reader error probe, or nil when sampling is
// disabled for this snapshot.
func (s *Snapshot) NewProbe() ErrorProbe {
	if s.probe == nil {
		return nil
	}
	return s.probe()
}

// view returns a private-scratch classifier equivalent to the snapshot's
// serving classifier, for one connection reader's exclusive use.
func (s *Snapshot) view() classifier.Classifier {
	return s.Table.ConcurrentView()
}

// WithFoldIn returns a copy of s whose table has the given violating
// inputs folded in, in order — exactly the transformation the online
// updater applies when a guarantee re-check fails. The copy has no
// version yet; Registry.Install assigns the next one.
func (s *Snapshot) WithFoldIn(inputs [][]float64) *Snapshot {
	tab := s.Table.Clone()
	for _, in := range inputs {
		tab.Update(in, true)
	}
	return s.withTable(tab)
}

// FoldIn is the replication message for this snapshot (DESIGN.md §15):
// its benchmark, version and encoded table.
func (s *Snapshot) FoldIn() (*FoldIn, error) {
	tab, err := s.Table.Encode()
	if err != nil {
		return nil, err
	}
	return &FoldIn{Bench: s.Bench, Version: s.Version, Table: tab}, nil
}

// WithReplica returns a copy of s serving the table a peer replicated
// (FoldIn.Table) at that peer's version, for Registry.Install to publish
// unchanged. A table that does not decode, or that was fit for another
// input width or configuration than s's, is refused.
func (s *Snapshot) WithReplica(version uint32, table []byte) (*Snapshot, error) {
	tab, err := classifier.DecodeTable(table)
	if err != nil {
		return nil, err
	}
	if tab.InputDim() != s.Table.InputDim() || tab.Config() != s.Table.Config() {
		return nil, fmt.Errorf("serve: replicated %s table (dim %d, %+v) does not match the served one (dim %d, %+v)",
			s.Bench, tab.InputDim(), tab.Config(), s.Table.InputDim(), s.Table.Config())
	}
	cp := s.withTable(tab)
	cp.Version = version
	return cp, nil
}

// withTable returns a copy of s serving an updated table (the online
// update path's copy-on-write step). The copy has no version yet;
// Registry.Install assigns the next one.
func (s *Snapshot) withTable(tab *classifier.Table) *Snapshot {
	cp := *s
	cp.Table = tab
	cp.Version = 0
	return &cp
}

// snapshotMap is the registry's published state: benchmark name →
// current snapshot.
type snapshotMap map[string]*Snapshot

// Registry holds the current snapshot per benchmark behind an atomic
// pointer to an immutable map. Readers (the decision hot path) load the
// pointer once per batch and never lock; writers copy the map, replace
// one entry, and publish the copy — a snapshot swap is therefore atomic
// and never observed mid-request.
type Registry struct {
	mu      sync.Mutex // serializes writers
	cur     atomic.Pointer[snapshotMap]
	swaps   atomic.Int64
	persist func(*Snapshot) error // guarded by mu
}

// NewRegistry builds a registry and installs the given snapshots.
func NewRegistry(snaps ...*Snapshot) *Registry {
	r := &Registry{}
	empty := snapshotMap{}
	r.cur.Store(&empty)
	for _, s := range snaps {
		r.Install(s) //nolint:errcheck // no persist hook yet, cannot fail
	}
	return r
}

// Get returns the current snapshot for bench, or nil.
//
//mithra:hotpath
func (r *Registry) Get(bench string) *Snapshot {
	return (*r.cur.Load())[bench]
}

// SetPersist installs the write-ahead persistence hook. Install calls it
// with the version-stamped snapshot before publishing; a hook error
// aborts the install, so a snapshot is never observable by readers
// unless it is durable on disk first.
func (r *Registry) SetPersist(fn func(*Snapshot) error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.persist = fn
}

// Install publishes s as the current snapshot for its benchmark and
// returns the snapshot it replaced (nil for a first install). A preset
// version above the predecessor's (or any nonzero one on a first
// install) is kept — that is how WAL recovery reinstates the exact
// pre-crash version and how a replica jumps to a peer's version — and
// otherwise the installed version is the predecessor's plus one. When a
// persist hook is set and fails, nothing is published and the previous
// snapshot keeps serving — the caller decides how to degrade (the
// online updater journals the refusal and its monitor retries).
func (r *Registry) Install(s *Snapshot) (*Snapshot, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	old := *r.cur.Load()
	prev := old[s.Bench]
	var base uint32
	if prev != nil {
		base = prev.Version
	}
	if s.Version <= base {
		s.Version = base + 1
	}
	if r.persist != nil {
		if err := r.persist(s); err != nil {
			return prev, fmt.Errorf("serve: persist snapshot %s v%d: %w", s.Bench, s.Version, err)
		}
	}
	if prev != nil {
		r.swaps.Add(1)
	}
	next := make(snapshotMap, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[s.Bench] = s
	r.cur.Store(&next)
	return prev, nil
}

// AttachWAL wires crash-safe persistence into the registry: every
// subsequent Install exports the snapshot and stores it write-ahead in
// the WAL before readers can see it. faults may inject install failures
// (fault.SiteSnapshotInstall); o counts successful persists.
func AttachWAL(reg *Registry, wal *WAL, faults *fault.Set, o *obs.Obs) {
	reg.SetPersist(func(s *Snapshot) error {
		if faults.Site(fault.SiteSnapshotInstall).Hit() {
			return fmt.Errorf("%w: snapshot install", fault.ErrInjected)
		}
		blob, err := s.Export()
		if err != nil {
			return err
		}
		if err := wal.StoreSnapshot(s.Bench, s.Version, blob); err != nil {
			return err
		}
		o.Counter("serve.wal.snapshots").Inc()
		return nil
	})
}

// Swaps returns how many times an installed snapshot replaced a previous
// one (the online-update counter; first installs don't count).
func (r *Registry) Swaps() int64 { return r.swaps.Load() }

// Benches lists the registered benchmark names in sorted order.
func (r *Registry) Benches() []string {
	m := *r.cur.Load()
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
