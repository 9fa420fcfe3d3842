// Package fault is the deterministic fault-injection framework behind
// mithrad's chaos testing (DESIGN.md §11). A fault plan names injection
// sites and per-site firing rates; every injector derives its decision
// stream from the plan seed and the site's stable identity via
// mathx.NewRNG(parallel.Seed(seed, site)), never from the wall clock or
// scheduling order — so a chaos run is replayable: the same plan makes
// the same site fire on the same sequence of checks every time.
//
// The package is inside the nondeterminism lint scope: injectors may
// sleep (a latency fault is a delay, not a clock read) but never read
// time.Now, the process-global RNG, or process identity.
//
// A nil *Set (fault injection disabled, the default) turns every site
// lookup and Hit check into a no-op, so instrumented serving code
// carries no conditionals.
package fault

import (
	"sync"

	"mithra/internal/mathx"
	"mithra/internal/parallel"
)

// The well-known injection sites threaded through the serving stack.
// A plan may name any site string; these are the ones mithrad honors.
const (
	// SiteConnReset fails a connection read and closes the socket, as a
	// peer reset would.
	SiteConnReset = "conn.reset"
	// SiteConnSlowRead delays a connection read by the plan's sleep
	// duration (a latency fault).
	SiteConnSlowRead = "conn.slowread"
	// SiteFramePartial writes only half of a buffer and closes the
	// socket, tearing a frame mid-write.
	SiteFramePartial = "frame.partial"
	// SiteWorkerPanic panics inside a decision, in the connection
	// reader's per-request panic barrier (the name predates the reader
	// deciding requests itself; plans keep using it).
	SiteWorkerPanic = "worker.panic"
	// SiteSnapshotInstall fails the durable snapshot-install (WAL) step.
	SiteSnapshotInstall = "snapshot.install"
	// SiteProbeDrift inflates the measured accelerator error of a sampled
	// observation above the snapshot threshold — injected input drift.
	// Checked through HitAt (keyed by request ID, not draw order), so the
	// drifted set is identical at any worker count; the site's limit
	// bounds the drifted ID range rather than a fire count.
	SiteProbeDrift = "probe.drift"
	// SitePeerDrop drops one cluster forward or fold-in send mid-flight:
	// the frame is discarded and the peer link torn down, as a crashed
	// peer would. Scoped per directed node pair ("a>b"), so each link's
	// drop schedule replays from the plan seed independently; @limit
	// bounds the drops per link.
	SitePeerDrop = "peer.drop"
	// SiteConnPartition severs a node pair: dials fail and in-flight
	// sends error until the injector's @limit fires are exhausted. Scoped
	// per unordered node pair (cluster.PairKey), so both sides observe
	// the same seeded partition schedule.
	SiteConnPartition = "conn.partition"
)

// Injector decides, deterministically, whether the n-th check of one
// site fires. The decision stream is a pure function of the injector's
// derived seed; the mutex only serializes the sequence counter so
// concurrent callers each consume one draw.
type Injector struct {
	mu     sync.Mutex
	rng    *mathx.RNG
	seed   uint64
	rate   float64
	limit  int // fire at most this many times (0: unlimited)
	from   int // firing window start (plan form <rate>@<lo>-<hi>)
	fired  int
	checks int
}

func newInjector(seed uint64, site SiteConfig) *Injector {
	return &Injector{rng: mathx.NewRNG(seed), seed: seed,
		rate: site.Rate, limit: site.Limit, from: site.From}
}

// Hit consumes one draw and reports whether the fault fires. Nil-safe:
// a nil injector never fires.
func (i *Injector) Hit() bool {
	if i == nil {
		return false
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	i.checks++
	if i.checks <= i.from {
		// Before the firing window opens: the fault does not exist yet.
		// The draw is still consumed so a windowed stream replays the
		// same decisions as an unwindowed one shifted into place.
		i.rng.Float64()
		return false
	}
	if i.limit > 0 && i.fired >= i.limit {
		return false
	}
	if i.rng.Float64() >= i.rate {
		return false
	}
	i.fired++
	return true
}

// HitAt reports whether the fault fires for identity id — a pure
// function of (injector seed, id), independent of check order, so the
// set of hit identities is the same at any worker count. Unlike Hit,
// the site's limit bounds the identity range rather than the fire
// count: limit N means only ids From..From+N-1 can fire (so
// "probe.drift=1@200" drifts exactly request IDs 0..199, and
// "probe.drift=1@300-500" drifts IDs 300..499 — a mid-run regime
// change). Nil-safe: a nil injector never fires.
func (i *Injector) HitAt(id uint64) bool {
	if i == nil {
		return false
	}
	if id < uint64(i.from) {
		return false
	}
	if i.limit > 0 && id >= uint64(i.from)+uint64(i.limit) {
		return false
	}
	hit := i.rate >= 1 || mathx.NewRNG(i.seed).Split(id).Float64() < i.rate
	i.mu.Lock()
	i.checks++
	if hit {
		i.fired++
	}
	i.mu.Unlock()
	return hit
}

// Fired reports how many times the injector has fired. Nil-safe.
func (i *Injector) Fired() int {
	if i == nil {
		return 0
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.fired
}

// Checks reports how many draws the injector has consumed. Nil-safe.
func (i *Injector) Checks() int {
	if i == nil {
		return 0
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.checks
}

// Set is a live injector collection built from a plan. Injectors are
// memoized per site (and per scope key), so every check of one site
// consumes the next draw of that site's private stream.
type Set struct {
	plan  *Plan
	mu    sync.Mutex
	sites map[string]*Injector
}

// NewSet builds the runtime injectors for a plan (nil plan: nil set,
// every site disabled).
func NewSet(p *Plan) *Set {
	if p == nil {
		return nil
	}
	return &Set{plan: p, sites: make(map[string]*Injector)}
}

// Plan returns the plan the set was built from (nil for a nil set).
func (s *Set) Plan() *Plan {
	if s == nil {
		return nil
	}
	return s.plan
}

// Site returns the process-wide injector for one site, or nil when the
// set is nil or the plan does not name the site.
func (s *Set) Site(name string) *Injector {
	return s.scoped(name, name)
}

// Scoped returns an injector for site whose decision stream is derived
// from (plan seed, site, key) — e.g. one stream per accepted connection,
// so each connection's fault sequence is independent of how other
// connections interleave. The site's rate and limit apply per scope.
func (s *Set) Scoped(site, key string) *Injector {
	return s.scoped(site, site+"\x00"+key)
}

func (s *Set) scoped(site, full string) *Injector {
	if s == nil {
		return nil
	}
	cfg, ok := s.plan.Sites[site]
	if !ok || cfg.Rate <= 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	inj := s.sites[full]
	if inj == nil {
		inj = newInjector(parallel.Seed(s.plan.Seed, full), cfg)
		s.sites[full] = inj
	}
	return inj
}

// Fired sums how many times the named site fired across every scope.
// Nil-safe.
func (s *Set) Fired(site string) int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	// Summation is commutative, so the map's iteration order is immaterial.
	for full, inj := range s.sites {
		if full == site || (len(full) > len(site) && full[:len(site)] == site && full[len(site)] == '\x00') {
			n += inj.Fired()
		}
	}
	return n
}
