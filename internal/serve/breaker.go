package serve

import (
	"sync"

	"mithra/internal/obs"
)

// The per-benchmark circuit breaker is the serving stack's fail-safe
// degradation valve. MITHRA's guarantee has a built-in safe direction:
// invoking the precise function is always quality-safe, so when a shard
// is unhealthy the breaker answers requests with the wire-level
// DecisionPrecise fallback instead of risking blind approximation or
// unbounded queueing.
//
// The state machine is the classic closed/open/half-open — with
// deterministic, clock-free scheduling: transitions are driven by
// request and outcome counts, never by timers, so the breaker obeys the
// package's nondeterminism contract and a replayed fault plan walks the
// exact same transition sequence.
//
//	closed    — requests flow; a sliding window of the last Window
//	            outcomes is tallied, and when failures exceed
//	            ErrBudget*Window the breaker opens. Failures are
//	            panics recovered inside a decision.
//	open      — requests get the precise fallback immediately. Every
//	            ProbeAfter-th fallback schedules a probe: the breaker
//	            moves to half-open and admits real work again.
//	half-open — requests flow, watched: any failure reopens the breaker;
//	            Probes consecutive successes close it.
//
// A snapshot-install failure (the WAL refused a repaired snapshot while
// the guarantee is violated) force-opens the breaker: if the guarantee
// cannot be restored by repair, it is restored by serving precise.
type BreakerConfig struct {
	// Window is the closed-state outcome window (default 64).
	Window int
	// ErrBudget is the failure fraction per window that trips the
	// breaker (default 0.5).
	ErrBudget float64
	// ProbeAfter is how many open-state fallbacks are served between
	// half-open probes (default 32).
	ProbeAfter int
	// Probes is how many consecutive half-open successes close the
	// breaker (default 8).
	Probes int
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Window <= 0 {
		c.Window = 64
	}
	if c.ErrBudget <= 0 {
		c.ErrBudget = 0.5
	}
	if c.ProbeAfter <= 0 {
		c.ProbeAfter = 32
	}
	if c.Probes <= 0 {
		c.Probes = 8
	}
	return c
}

// Breaker states.
const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

func stateName(s int) string {
	switch s {
	case breakerClosed:
		return "closed"
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// breaker is one shard's circuit breaker. All state lives behind one
// mutex; the counters it guards make every transition a deterministic
// function of the shard's outcome sequence.
type breaker struct {
	bench string
	cfg   BreakerConfig
	o     *obs.Obs

	// guarantee, when set, reports the shard's current guarantee-monitor
	// state name; breaker transition notes carry it so a journal reader
	// can correlate fail-safe degradation with guarantee health. Must be
	// safe to call from any goroutine (watch.Monitor.StateName is).
	guarantee func() string

	mu    sync.Mutex
	state int
	// closed: sliding outcome window
	seen, failed int
	// open: fallbacks served since the last probe
	rejected int
	// half-open: consecutive successes
	okStreak int
}

func newBreaker(bench string, cfg BreakerConfig, o *obs.Obs) *breaker {
	return &breaker{bench: bench, cfg: cfg.withDefaults(), o: o}
}

// admit reports whether a request may be classified. A false return
// means the caller must serve the precise fallback.
func (b *breaker) admit() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerOpen:
		b.rejected++
		if b.rejected >= b.cfg.ProbeAfter {
			b.transitionLocked(breakerHalfOpen, "probe scheduled")
			return true
		}
		return false
	default:
		return true
	}
}

// onSuccess records one decided request (any non-panicking completion).
func (b *breaker) onSuccess() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		b.windowLocked(false)
	case breakerHalfOpen:
		b.okStreak++
		if b.okStreak >= b.cfg.Probes {
			b.transitionLocked(breakerClosed, "probes healthy")
		}
	}
}

// onFailure records one failed request: a panic recovered inside its
// decision.
func (b *breaker) onFailure(reason string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		b.windowLocked(true)
	case breakerHalfOpen:
		b.transitionLocked(breakerOpen, "probe failed: "+reason)
	}
}

// forceOpen trips the breaker regardless of state — the fail-safe for
// faults that invalidate serving itself (snapshot install failure while
// the guarantee is violated).
func (b *breaker) forceOpen(reason string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != breakerOpen {
		b.transitionLocked(breakerOpen, reason)
	}
}

// windowLocked tallies one closed-state outcome and trips the breaker
// when the window's failures exceed the budget.
func (b *breaker) windowLocked(failed bool) {
	b.seen++
	if failed {
		b.failed++
	}
	if float64(b.failed) > b.cfg.ErrBudget*float64(b.cfg.Window) {
		b.transitionLocked(breakerOpen, "error budget exceeded")
		return
	}
	if b.seen >= b.cfg.Window {
		b.seen, b.failed = 0, 0
	}
}

// transitionLocked performs a state change: counters reset, the
// serve.breaker.* metric ticks, and the transition lands in the journal.
func (b *breaker) transitionLocked(to int, reason string) {
	from := b.state
	b.state = to
	b.seen, b.failed, b.rejected, b.okStreak = 0, 0, 0, 0
	switch to {
	case breakerOpen:
		b.o.Counter("serve.breaker.open").Inc()
	case breakerHalfOpen:
		b.o.Counter("serve.breaker.half_open").Inc()
	case breakerClosed:
		b.o.Counter("serve.breaker.closed").Inc()
	}
	attrs := map[string]any{
		"bench": b.bench, "from": stateName(from), "to": stateName(to), "reason": reason,
	}
	if b.guarantee != nil {
		if g := b.guarantee(); g != "" {
			attrs["guarantee"] = g
		}
	}
	b.o.Note("breaker", attrs)
}

// currentState reports the state (for tests and the HTTP inspector).
func (b *breaker) currentState() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
