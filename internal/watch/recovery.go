package watch

// Recheck mode (DESIGN.md §16): the continuous-monitoring escalation
// layer on top of the sliding-window state machine. When armed, the
// monitor does four more things, all measured in released-observation
// counts so the journal is byte-identical at any client shape:
//
//   - marks a per-window Clopper-Pearson lower bound every Window
//     releases (`cp_window` notes + the watch.cp.window_lower gauge), the
//     CP trajectory the robustness line argues must accompany end-point
//     quality;
//   - escalates at-risk and violated into a forced sampling-rate boost
//     over a deterministic future request-ID window;
//   - escalates violated into a table fold-in of the violating inputs
//     collected so far, repeated every RepairEvery releases while the
//     violation persists, bounded by MaxFoldIns per episode;
//   - accounts recovery episodes: dwell time outside holding,
//     time-to-recover after the first fold-in, and fold-ins-to-recover,
//     journaled as a `recovery` note when the state machine re-enters
//     holding.
//
// Determinism. The fold-in hook returns a Reclassify view of the
// repaired table; from that release onward the monitor recomputes every
// observation's routing against its own view instead of trusting the
// racy served routing (see Monitor.ingest). The boost window's bounds
// are pure functions of the triggering release's request ID.

import (
	"strconv"

	"mithra/internal/obs"
)

// Recheck tunes the escalation layer; zero value (Enabled=false) keeps
// the monitor purely observational.
type Recheck struct {
	// Enabled arms per-window CP marks, escalation, and episode
	// accounting.
	Enabled bool
	// MaxFoldIns bounds fold-ins per recovery episode (default 8). When
	// the bound trips the monitor journals `recovery_exceeded` once and
	// stops folding until the episode ends — the CI drift job gates on
	// never reaching it.
	MaxFoldIns int
	// RepairEvery is the number of released observations between
	// repeated fold-ins while a violation persists (default: Window).
	RepairEvery int
	// BoostDelay is how many request IDs past the triggering release the
	// forced-sampling window opens (default: 8×Lag). Like Lag, it is a
	// determinism contract: the boost must be armed on the decide path
	// before the first ID in the window arrives, so BoostDelay has to
	// exceed the in-flight ID skew past the release frontier —
	// roughly Lag/SampleRate plus the updater channel plus the clients'
	// connections × pipeline depth. The serve layer fills it in from the
	// sample rate when unset.
	BoostDelay int
	// BoostLen is the forced-sampling window length in request IDs
	// (default 4096).
	BoostLen int
	// MaxPending bounds the violating inputs retained between fold-ins
	// (default 256).
	MaxPending int
	// Trajectory is how many trailing per-window lower bounds the
	// `recovery` note carries (default 16).
	Trajectory int
}

func (r Recheck) withDefaults(c Config) Recheck {
	if !r.Enabled {
		return r
	}
	if r.MaxFoldIns <= 0 {
		r.MaxFoldIns = 8
	}
	if r.RepairEvery <= 0 {
		r.RepairEvery = c.Window
	}
	if r.BoostDelay <= 0 {
		r.BoostDelay = 8 * c.Lag
	}
	if r.BoostLen <= 0 {
		r.BoostLen = 4096
	}
	if r.MaxPending <= 0 {
		r.MaxPending = 256
	}
	if r.Trajectory <= 0 {
		r.Trajectory = 16
	}
	return r
}

// Reclassify reports whether the repaired table routes an input precise.
// It is called only from the monitor's goroutine.
type Reclassify func(in []float64) bool

// Escalation wires the monitor's recheck-mode decisions back into the
// serving stack. Both hooks run on the monitor's goroutine (the shard
// updater) at deterministic release positions.
type Escalation struct {
	// FoldIn folds the collected violating inputs into the serving table
	// (clone → Update → Registry.Install → replicate) and returns the
	// deterministic routing view of the repaired table. ok=false means
	// the install failed and the fold must be retried; the monitor then
	// keeps the pending inputs and does not advance its view.
	FoldIn func(inputs [][]float64) (view Reclassify, ok bool)
	// Boost arms forced sampling for request IDs in [from, until).
	Boost func(from, until uint32)
}

// recovery is the monitor's recheck-mode state, embedded in Monitor.
type recovery struct {
	esc        Escalation
	reclassify Reclassify

	lastID      uint32
	boostUntil  uint32 // end of the last armed boost window (0: none)
	windowTick  int
	windowIdx   int
	sinceRepair int

	badPending [][]float64

	inEpisode    bool
	episodeStart int // m.seen at violation entry
	firstFold    int // m.seen at the episode's first fold-in (0: none yet)
	foldIns      int // fold-ins this episode
	exceeded     bool

	traj     []float64 // trailing per-window lower bounds
	trajHead int
	trajLen  int

	gWindowLower, gLastDwell, gLastTTR, gLastFoldIns *obs.Gauge
	cEpisodes, cFoldIns, cBoosts, cExceeded          *obs.Counter
}

func (r *recovery) init(m *Monitor) {
	r.badPending = make([][]float64, 0, m.cfg.Recheck.MaxPending)
	r.traj = make([]float64, m.cfg.Recheck.Trajectory)
	b := m.bench
	r.gWindowLower = m.o.Gauge("watch.cp.window_lower." + b)
	r.gLastDwell = m.o.Gauge("watch.recovery.last_dwell." + b)
	r.gLastTTR = m.o.Gauge("watch.recovery.last_ttr." + b)
	r.gLastFoldIns = m.o.Gauge("watch.recovery.last_foldins." + b)
	r.cEpisodes = m.o.Counter("watch.recovery.episodes." + b)
	r.cFoldIns = m.o.Counter("watch.recovery.foldins." + b)
	r.cBoosts = m.o.Counter("watch.recovery.boosts." + b)
	r.cExceeded = m.o.Counter("watch.recovery.exceeded." + b)
}

// Arm attaches the escalation hooks. Call once, before the first
// Observe; a monitor without hooks still marks windows and accounts
// episodes but cannot repair.
func (m *Monitor) Arm(esc Escalation) {
	if m == nil {
		return
	}
	m.rec.esc = esc
}

// FoldInsThisEpisode reports fold-ins in the current (or, after it ends,
// most recent) recovery episode — test and status surface.
func (m *Monitor) FoldInsThisEpisode() int {
	if m == nil {
		return 0
	}
	return m.rec.foldIns
}

// collect retains a violating observation's input for the next fold-in.
// Bounded by MaxPending; inputs are owned by the monitor from delivery
// (the serve path copies each sampled input).
func (r *recovery) collect(ob Obs) {
	if r.esc.FoldIn == nil || ob.In == nil || len(r.badPending) >= cap(r.badPending) {
		return
	}
	r.badPending = append(r.badPending, ob.In)
}

// onTransition runs after the state machine commits a transition (the
// `guarantee` note is already journaled, so escalation notes always
// follow their trigger).
func (m *Monitor) onTransition(prev, next State) {
	switch next {
	case AtRisk:
		// Early escalation: more samples tighten the CP bound before the
		// window tips over.
		m.boostSampling()
	case Violated:
		if !m.rec.inEpisode {
			m.rec.inEpisode = true
			m.rec.episodeStart = m.seen
			m.rec.firstFold = 0
			m.rec.foldIns = 0
			m.rec.exceeded = false
		}
		m.boostSampling()
		m.repair()
	case Holding:
		if m.rec.inEpisode {
			m.finishEpisode()
		}
	}
	_ = prev
}

// boostSampling arms a forced-sampling window over a deterministic
// future request-ID range.
func (m *Monitor) boostSampling() {
	r := &m.rec
	if r.esc.Boost == nil {
		return
	}
	if r.boostUntil != 0 && r.lastID < r.boostUntil {
		// The previous window's IDs have not all been released yet.
		// Replacing the armed window now would change the sampling
		// verdict of in-flight IDs depending on decide timing — skip;
		// the skip itself is deterministic (lastID is a release-stream
		// position).
		return
	}
	from := r.lastID + uint32(m.cfg.Recheck.BoostDelay)
	until := from + uint32(m.cfg.Recheck.BoostLen)
	if until < from { // uint32 wrap at the very end of the ID space
		until = ^uint32(0)
	}
	r.esc.Boost(from, until)
	r.boostUntil = until
	r.cBoosts.Inc()
	m.o.Note("boost", map[string]any{
		"bench": m.bench,
		"from":  from,
		"until": until,
		"seen":  m.seen,
	})
}

// repair folds the pending violating inputs into the serving table and
// advances the monitor's deterministic routing view.
func (m *Monitor) repair() {
	r := &m.rec
	r.sinceRepair = 0
	if r.esc.FoldIn == nil || len(r.badPending) == 0 {
		return
	}
	if r.foldIns >= m.cfg.Recheck.MaxFoldIns {
		if !r.exceeded {
			r.exceeded = true
			r.cExceeded.Inc()
			m.o.Note("recovery_exceeded", map[string]any{
				"bench":   m.bench,
				"foldins": r.foldIns,
				"bound":   m.cfg.Recheck.MaxFoldIns,
				"seen":    m.seen,
			})
		}
		return
	}
	view, ok := r.esc.FoldIn(r.badPending)
	r.foldIns++
	r.cFoldIns.Inc()
	if r.firstFold == 0 {
		r.firstFold = m.seen
	}
	m.o.Note("foldin", map[string]any{
		"bench":           m.bench,
		"inputs":          len(r.badPending),
		"episode_foldins": r.foldIns,
		"applied":         ok,
		"seen":            m.seen,
	})
	if ok {
		if view != nil {
			r.reclassify = view
		}
		r.badPending = r.badPending[:0]
	}
}

// windowMark records one per-window CP lower bound: gauge, trajectory
// ring, and a `cp_window` note. It runs every Window releases on the
// steady path, so it allocates nothing unless a journal is attached.
func (m *Monitor) windowMark() {
	r := &m.rec
	lb := m.lower[m.successes]
	r.windowIdx++
	r.gWindowLower.Set(lb)
	r.traj[r.trajHead] = lb
	r.trajHead++
	if r.trajHead == len(r.traj) {
		r.trajHead = 0
	}
	if r.trajLen < len(r.traj) {
		r.trajLen++
	}
	if m.o.Journal() == nil {
		return
	}
	m.o.Note("cp_window", map[string]any{
		"bench":       m.bench,
		"window":      r.windowIdx,
		"successes":   m.successes,
		"size":        m.filled,
		"lower_bound": FormatFloat(lb),
	})
}

// trajectoryList renders the trailing per-window lower bounds
// oldest-first in FormatFloat form (episode end only).
func (r *recovery) trajectoryList() string {
	if r.trajLen == 0 {
		return ""
	}
	start := r.trajHead - r.trajLen
	if start < 0 {
		start += len(r.traj)
	}
	buf := make([]byte, 0, r.trajLen*12)
	for i := 0; i < r.trajLen; i++ {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendFloat(buf, r.traj[(start+i)%len(r.traj)])
	}
	return string(buf)
}

// finishEpisode closes a recovery episode as the state machine re-enters
// holding, publishing the robustness metrics the drift suite gates on.
func (m *Monitor) finishEpisode() {
	r := &m.rec
	r.inEpisode = false
	dwell := m.seen - r.episodeStart // releases spent outside holding
	ttr := 0
	if r.firstFold > 0 {
		ttr = m.seen - r.firstFold // releases from first repair to restored
	}
	r.cEpisodes.Inc()
	r.gLastDwell.Set(float64(dwell))
	r.gLastTTR.Set(float64(ttr))
	r.gLastFoldIns.Set(float64(r.foldIns))
	m.o.Note("recovery", map[string]any{
		"bench":           m.bench,
		"dwell":           dwell,
		"time_to_recover": ttr,
		"foldins":         r.foldIns,
		"exceeded":        strconv.FormatBool(r.exceeded),
		"trajectory":      r.trajectoryList(),
		"seen":            m.seen,
	})
}
