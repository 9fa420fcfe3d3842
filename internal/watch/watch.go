// Package watch implements mithrawatch, the continuous guarantee
// observability subsystem (DESIGN.md §14): a per-shard monitor that
// re-checks the Clopper-Pearson guarantee over deterministic sliding
// windows of sampled observations and drives an explicit state machine
//
//	holding → at-risk → violated → recovering → holding
//
// whose transitions are journaled via obs.Note and exported as
// watch.guarantee.* gauges and counters, plus streaming input-histogram
// divergence gauges (PSI, L1) against a reference distribution baked
// into the snapshot at compile time. The monitor has one mode: it also
// marks a per-window CP trajectory, escalates at-risk and violated into
// a sampling boost and table fold-ins, and accounts recovery episodes
// (recovery.go). Escalation acts through the hooks Arm attaches; a
// monitor without them marks windows and closes episodes but never
// boosts or folds.
//
// Cost. The check only runs on a full window, so its trial count is
// always Config.Window and only the success count varies. NewMonitor
// computes the lower and upper bound for every count 0..Window once
// (stats.Guarantee.BoundTable); each re-check is then two slice reads,
// with no Beta-quantile inversion per observation.
//
// Determinism contract. Every window and threshold is measured in
// request counts, never wall clock. The monitor consumes only the
// already-allocating sampled-observation path (the serve updater), so
// the zero-alloc steady decide path is untouched. Observations are
// released to the state machine in request-ID order through a bounded
// reorder buffer (Config.Lag): as long as the server's in-flight skew —
// the clients' connections × pipeline depth — stays under Lag, the
// released sequence, and therefore every transition note and final gauge
// value, is byte-identical at any client shape.
package watch

import (
	"strconv"

	"mithra/internal/obs"
	"mithra/internal/stats"
)

// State is the guarantee monitor's state-machine position.
type State uint8

const (
	// Holding: the sliding-window Clopper-Pearson check certifies the
	// guarantee with margin to spare.
	Holding State = iota
	// AtRisk: the check still certifies, but the certified lower bound
	// sits within riskMargin of the required success rate.
	AtRisk
	// Violated: the window no longer certifies the guarantee.
	Violated
	// Recovering: the window certifies again after a violation; the
	// monitor demands Window consecutive certifying observations before
	// declaring the guarantee restored.
	Recovering
)

func (s State) String() string {
	switch s {
	case Holding:
		return "holding"
	case AtRisk:
		return "at-risk"
	case Violated:
		return "violated"
	case Recovering:
		return "recovering"
	}
	return "unknown"
}

// Config tunes a Monitor. The zero value yields the defaults below.
type Config struct {
	// Enabled is ignored: whoever builds a monitor runs one (the serve
	// layer builds one per shard exactly when it samples).
	Enabled bool
	// Window is the sliding-window size in sampled observations
	// (default 64). The Clopper-Pearson check is evaluated once the
	// window has filled and on every observation after that. Leaving
	// recovering takes Window consecutive certifying observations.
	Window int
	// Lag is the reorder-buffer depth: observations are released to the
	// state machine in request-ID order once more than Lag are pending
	// (default DefaultLag). It must exceed the maximum in-flight ID skew
	// (the clients' connections × pipeline depth) for the notes to be
	// the same at any client shape.
	Lag int
	// Recheck sizes the escalation (recovery.go): violation → sampling
	// boost + table fold-in, bounded per recovery episode.
	Recheck Recheck
}

// DefaultLag is the reorder-buffer depth an unset Config.Lag gets.
const DefaultLag = 512

const (
	// riskMargin is the lower-bound headroom (certified lower bound
	// minus required success rate) below which a holding guarantee is
	// reported as at-risk.
	riskMargin = 0.02
	// exemplarRing bounds the ring of most recent guarantee-relevant
	// (failing) request IDs attached to transition notes.
	exemplarRing = 8
)

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = 64
	}
	if c.Lag <= 0 {
		c.Lag = DefaultLag
	}
	c.Recheck = c.Recheck.withDefaults(c)
	return c
}

// Obs is one sampled observation delivered to the monitor: the request
// identity, the sampled kernel input, whether the probe measured the
// approximate output as bad, and whether the request was routed precise
// (a precise routing never degrades output quality, so it always counts
// as a success). In must not be mutated after delivery — the monitor
// retains failing inputs until the next fold-in.
type Obs struct {
	ID      uint32
	Bad     bool
	Precise bool
	In      []float64
}

// Monitor re-checks one benchmark's guarantee over a sliding window of
// sampled observations. It is not concurrency-safe: exactly one
// goroutine (the shard's updater) may call its methods.
type Monitor struct {
	bench string
	g     stats.Guarantee
	cfg   Config
	o     *obs.Obs
	div   *Tracker

	// lower and upper are a full window's Clopper-Pearson bounds indexed
	// by its success count; required is the first count whose lower
	// bound certifies (Window+1: none does).
	lower, upper []float64
	required     int

	gState, gLower, gUpper, gMargin, gDwell *obs.Gauge
	gPSI, gL1                               *obs.Gauge
	cSamples, cTransitions, cViolations     *obs.Counter

	pending minHeap

	ring      []bool
	head      int
	filled    int
	successes int

	state         State
	dwell         int
	seen          int
	recoverStreak int

	exemplars [exemplarRing]uint32
	exHead    int
	exLen     int

	// Escalation and episode state (recovery.go).
	esc        Escalation
	reclassify Reclassify

	lastID     uint32
	boostUntil uint32 // end of the last armed boost window (0: none)
	windowTick int
	windowIdx  int
	lastRepair int // seen at the last repair attempt

	badPending [][]float64

	inEpisode    bool
	episodeStart int // seen at violation entry
	firstFold    int // seen at the episode's first fold-in (0: none yet)
	foldIns      int // fold-ins this episode
	exceeded     bool

	traj     [trajectoryLen]float64 // trailing per-window lower bounds
	trajHead int
	trajLen  int

	gWindowLower, gLastDwell, gLastTTR, gLastFoldIns *obs.Gauge
	cEpisodes, cFoldIns, cBoosts, cExceeded          *obs.Counter
}

// NewMonitor builds a monitor for one benchmark shard. ref may be nil
// (divergence gauges disabled). o may be nil or metrics-less; every
// instrument handle degrades to a no-op.
func NewMonitor(bench string, g stats.Guarantee, ref *Reference, cfg Config, o *obs.Obs) *Monitor {
	cfg = cfg.withDefaults()
	m := &Monitor{
		bench:      bench,
		g:          g,
		cfg:        cfg,
		o:          o,
		ring:       make([]bool, cfg.Window),
		badPending: make([][]float64, 0, maxPending),
	}
	m.lower, m.upper = g.BoundTable(cfg.Window)
	m.required = cfg.Window + 1
	for k, lb := range m.lower {
		if lb >= g.SuccessRate {
			m.required = k
			break
		}
	}
	m.pending.a = make([]Obs, 0, cfg.Lag+1)
	if ref.Valid() {
		m.div = NewTracker(ref)
	}
	m.gState = o.Gauge("watch.guarantee.state." + bench)
	m.gLower = o.Gauge("watch.guarantee.lower_bound." + bench)
	m.gUpper = o.Gauge("watch.guarantee.upper_bound." + bench)
	m.gMargin = o.Gauge("watch.guarantee.margin." + bench)
	m.gDwell = o.Gauge("watch.guarantee.dwell." + bench)
	m.gPSI = o.Gauge("watch.divergence.psi." + bench)
	m.gL1 = o.Gauge("watch.divergence.l1." + bench)
	m.cSamples = o.Counter("watch.samples." + bench)
	m.cTransitions = o.Counter("watch.guarantee.transitions." + bench)
	m.cViolations = o.Counter("watch.guarantee.violations." + bench)
	m.gWindowLower = o.Gauge("watch.cp.window_lower." + bench)
	m.gLastDwell = o.Gauge("watch.recovery.last_dwell." + bench)
	m.gLastTTR = o.Gauge("watch.recovery.last_ttr." + bench)
	m.gLastFoldIns = o.Gauge("watch.recovery.last_foldins." + bench)
	m.cEpisodes = o.Counter("watch.recovery.episodes." + bench)
	m.cFoldIns = o.Counter("watch.recovery.foldins." + bench)
	m.cBoosts = o.Counter("watch.recovery.boosts." + bench)
	m.cExceeded = o.Counter("watch.recovery.exceeded." + bench)
	// Static context for the status surface: the required success rate
	// and the window the bound is computed over.
	o.Gauge("watch.guarantee.target." + bench).Set(g.SuccessRate)
	o.Gauge("watch.guarantee.window." + bench).Set(float64(cfg.Window))
	m.gState.Set(float64(Holding))
	return m
}

// State returns the guarantee state.
func (m *Monitor) State() State {
	if m == nil {
		return Holding
	}
	return m.state
}

// Observe feeds one sampled observation. ob.In is the sampled kernel
// input (consumed immediately for the divergence histogram — bucket
// counts are commutative, so divergence needs no reordering); the
// guarantee state machine only advances once the observation is released
// from the ID-ordered reorder buffer. Annotated hotpath: the monitor
// rides the sampled-observation path, and while that path already
// allocates (the input copy), the monitor itself must add nothing per
// sample — only state transitions (rare, cold) may allocate.
//
//mithra:hotpath
func (m *Monitor) Observe(ob Obs) {
	if m == nil {
		return
	}
	m.cSamples.Inc()
	if m.div != nil {
		m.div.Observe(ob.In)
		m.gPSI.Set(m.div.PSI())
		m.gL1.Set(m.div.L1())
	}
	m.pending.push(ob)
	for m.pending.len() > m.cfg.Lag {
		m.ingest(m.pending.pop())
	}
}

// Flush drains the reorder buffer in ID order (server shutdown: no more
// observations can arrive, so every pending observation is releasable).
func (m *Monitor) Flush() {
	if m == nil {
		return
	}
	for m.pending.len() > 0 {
		m.ingest(m.pending.pop())
	}
}

// Seen returns the number of observations released to the state machine.
func (m *Monitor) Seen() int {
	if m == nil {
		return 0
	}
	return m.seen
}

func (m *Monitor) ingest(ob Obs) {
	m.seen++
	m.dwell++
	m.lastID = ob.ID
	routed := ob.Precise
	if m.reclassify != nil {
		// After the first fold-in, routing is recomputed against the
		// monitor's own deterministic table view, which advances exactly
		// at the release index that triggered each fold-in. The served
		// snapshot swap lands at a racy wall-clock moment relative to
		// in-flight decisions; fold-ins are monotone (a routing the old
		// table called precise stays precise), so the deterministic view
		// dominates the served routing and the window accounting is
		// byte-identical at any client shape.
		routed = m.reclassify(ob.In)
	}
	success := routed || !ob.Bad
	if !success {
		m.exemplar(ob.ID)
		m.collect(ob)
	}
	if m.filled == len(m.ring) {
		if m.ring[m.head] {
			m.successes--
		}
	} else {
		m.filled++
	}
	m.ring[m.head] = success
	if success {
		m.successes++
	}
	m.head++
	if m.head == len(m.ring) {
		m.head = 0
	}
	if m.filled < len(m.ring) {
		// Warming up: no evaluation until the first full window — a
		// short window's exact lower bound would report a spurious
		// violation on startup.
		m.gDwell.Set(float64(m.dwell))
		return
	}
	if m.windowTick++; m.windowTick >= m.cfg.Window {
		m.windowTick = 0
		m.windowMark()
	}
	m.evaluate()
	if m.state == Violated {
		// Still violated after the entry-time fold-in: the pending set
		// keeps growing as more of the drifted distribution is observed;
		// fold again RepairEvery releases after the last attempt until
		// the window certifies or the episode bound trips.
		if m.seen-m.lastRepair >= m.cfg.Recheck.RepairEvery {
			m.repair()
		}
	}
}

// evaluate re-checks the guarantee. ingest calls it only on a full
// window, so the bound table indexed by the success count applies.
func (m *Monitor) evaluate() {
	holds := m.successes >= m.required
	lb, ub := m.lower[m.successes], m.upper[m.successes]
	margin := lb - m.g.SuccessRate

	next := m.state
	switch m.state {
	case Holding, AtRisk:
		switch {
		case !holds:
			next = Violated
		case margin < riskMargin:
			next = AtRisk
		default:
			next = Holding
		}
	case Violated:
		if holds {
			next = Recovering
		}
	case Recovering:
		if !holds {
			next = Violated
		} else if m.recoverStreak++; m.recoverStreak >= m.cfg.Window {
			next = Holding
		}
	}
	if next != m.state {
		m.transition(next, lb, margin)
	}
	m.gState.Set(float64(m.state))
	m.gLower.Set(lb)
	m.gUpper.Set(ub)
	m.gMargin.Set(margin)
	m.gDwell.Set(float64(m.dwell))
}

func (m *Monitor) transition(next State, lb, margin float64) {
	m.cTransitions.Inc()
	if next == Violated {
		m.cViolations.Inc()
	}
	m.o.Note("guarantee", map[string]any{
		"bench":       m.bench,
		"from":        m.state.String(),
		"to":          next.String(),
		"seen":        m.seen,
		"dwell":       m.dwell,
		"successes":   m.successes,
		"window":      m.filled,
		"lower_bound": FormatFloat(lb),
		"margin":      FormatFloat(margin),
		"exemplars":   m.exemplarList(),
	})
	m.state = next
	m.dwell = 0
	m.recoverStreak = 0
	m.onTransition(next)
}

// exemplar records a guarantee-relevant (failing) request ID in the
// bounded ring.
func (m *Monitor) exemplar(id uint32) {
	m.exemplars[m.exHead] = id
	m.exHead++
	if m.exHead == len(m.exemplars) {
		m.exHead = 0
	}
	if m.exLen < len(m.exemplars) {
		m.exLen++
	}
}

// exemplarList renders the exemplar ring oldest-first as a compact
// comma-joined string (transition-time only; never on the steady path).
func (m *Monitor) exemplarList() string {
	if m.exLen == 0 {
		return ""
	}
	start := m.exHead - m.exLen
	if start < 0 {
		start += len(m.exemplars)
	}
	buf := make([]byte, 0, m.exLen*8)
	for i := 0; i < m.exLen; i++ {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendUint(buf, uint64(m.exemplars[(start+i)%len(m.exemplars)]), 10)
	}
	return string(buf)
}

// FormatFloat is the canonical float rendering shared by every surface
// divergence and bound values flow through (journal notes, text and
// Prometheus exposition): shortest round-trippable 'g' form, so bytes
// can never differ across platforms.
func FormatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// appendFloat appends v's FormatFloat form to buf.
func appendFloat(buf []byte, v float64) []byte { return strconv.AppendFloat(buf, v, 'g', -1, 64) }

// minHeap is a binary min-heap of observations keyed by request ID (the
// reorder buffer). Push/pop are allocation-free at steady state: the
// backing array is pre-sized to Lag+1.
type minHeap struct{ a []Obs }

func (h *minHeap) len() int { return len(h.a) }

//mithra:hotpath
func (h *minHeap) push(ob Obs) {
	h.a = append(h.a, ob)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.a[p].ID <= h.a[i].ID {
			break
		}
		h.a[p], h.a[i] = h.a[i], h.a[p]
		i = p
	}
}

//mithra:hotpath
func (h *minHeap) pop() Obs {
	top := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && h.a[l].ID < h.a[small].ID {
			small = l
		}
		if r < last && h.a[r].ID < h.a[small].ID {
			small = r
		}
		if small == i {
			break
		}
		h.a[i], h.a[small] = h.a[small], h.a[i]
		i = small
	}
	return top
}
