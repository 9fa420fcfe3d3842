package watch

// Escalation (DESIGN.md §16): the continuous-monitoring layer on top of
// the sliding-window state machine. Every monitor does four more things,
// all measured in released-observation counts so the journal is
// byte-identical at any client shape:
//
//   - marks a per-window Clopper-Pearson lower bound every Window
//     releases (`cp_window` notes + the watch.cp.window_lower gauge), the
//     CP trajectory the robustness line argues must accompany end-point
//     quality;
//   - escalates at-risk and violated into a forced sampling-rate boost
//     over a deterministic future request-ID window (Escalation.Boost);
//   - escalates violated into a table fold-in of the violating inputs
//     collected so far (Escalation.FoldIn), repeated every RepairEvery
//     releases while the violation persists, bounded by MaxFoldIns per
//     episode;
//   - accounts recovery episodes: dwell time outside holding,
//     time-to-recover after the first fold-in, and fold-ins-to-recover,
//     journaled as a `recovery` note when the state machine re-enters
//     holding.
//
// Without hooks (Arm never called) the monitor still marks windows and
// closes episodes, but never boosts or folds.
//
// Determinism. The fold-in hook returns a Reclassify view of the
// repaired table; from that release onward the monitor recomputes every
// observation's routing against its own view instead of trusting the
// racy served routing (see Monitor.ingest). The boost window's bounds
// are pure functions of the triggering release's request ID.

import "strconv"

// Recheck sizes the escalation.
type Recheck struct {
	// Enabled is ignored: every monitor escalates through the hooks Arm
	// attaches.
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
}

const (
	// boostLen is the forced-sampling window length in request IDs.
	boostLen = 4096
	// maxPending bounds the violating inputs retained between fold-ins.
	maxPending = 256
	// trajectoryLen is how many trailing per-window lower bounds the
	// `recovery` note carries.
	trajectoryLen = 16
)

func (r Recheck) withDefaults(c Config) Recheck {
	if r.MaxFoldIns <= 0 {
		r.MaxFoldIns = 8
	}
	if r.RepairEvery <= 0 {
		r.RepairEvery = c.Window
	}
	if r.BoostDelay <= 0 {
		r.BoostDelay = 8 * c.Lag
	}
	return r
}

// Reclassify reports whether the repaired table routes an input precise.
// It is called only from the monitor's goroutine.
type Reclassify func(in []float64) bool

// Escalation wires the monitor's escalation decisions back into the
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

// Arm attaches the escalation hooks. Call once, before the first
// Observe; a monitor without hooks still marks windows and accounts
// episodes but cannot repair.
func (m *Monitor) Arm(esc Escalation) {
	if m == nil {
		return
	}
	m.esc = esc
}

// collect retains a violating observation's input for the next fold-in.
// Bounded by maxPending; inputs are owned by the monitor from delivery
// (the serve path copies each sampled input).
func (m *Monitor) collect(ob Obs) {
	if m.esc.FoldIn == nil || ob.In == nil || len(m.badPending) >= cap(m.badPending) {
		return
	}
	m.badPending = append(m.badPending, ob.In)
}

// onTransition runs after the state machine commits a transition (the
// `guarantee` note is already journaled, so escalation notes always
// follow their trigger).
func (m *Monitor) onTransition(next State) {
	switch next {
	case AtRisk:
		// Early escalation: more samples tighten the CP bound before the
		// window tips over.
		m.boostSampling()
	case Violated:
		if !m.inEpisode {
			m.inEpisode = true
			m.episodeStart = m.seen
			m.firstFold = 0
			m.foldIns = 0
			m.exceeded = false
		}
		m.boostSampling()
		m.repair()
	case Holding:
		if m.inEpisode {
			m.finishEpisode()
		}
	}
}

// boostSampling arms a forced-sampling window over a deterministic
// future request-ID range.
func (m *Monitor) boostSampling() {
	if m.esc.Boost == nil {
		return
	}
	if m.boostUntil != 0 && m.lastID < m.boostUntil {
		// The previous window's IDs have not all been released yet.
		// Replacing the armed window now would change the sampling
		// verdict of in-flight IDs depending on decide timing — skip;
		// the skip itself is deterministic (lastID is a release-stream
		// position).
		return
	}
	from := m.lastID + uint32(m.cfg.Recheck.BoostDelay)
	until := from + boostLen
	if until < from { // uint32 wrap at the very end of the ID space
		until = ^uint32(0)
	}
	m.esc.Boost(from, until)
	m.boostUntil = until
	m.cBoosts.Inc()
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
	m.lastRepair = m.seen
	if m.esc.FoldIn == nil || len(m.badPending) == 0 {
		return
	}
	if m.foldIns >= m.cfg.Recheck.MaxFoldIns {
		if !m.exceeded {
			m.exceeded = true
			m.cExceeded.Inc()
			m.o.Note("recovery_exceeded", map[string]any{
				"bench":   m.bench,
				"foldins": m.foldIns,
				"bound":   m.cfg.Recheck.MaxFoldIns,
				"seen":    m.seen,
			})
		}
		return
	}
	view, ok := m.esc.FoldIn(m.badPending)
	m.foldIns++
	m.cFoldIns.Inc()
	if m.firstFold == 0 {
		m.firstFold = m.seen
	}
	m.o.Note("foldin", map[string]any{
		"bench":           m.bench,
		"inputs":          len(m.badPending),
		"episode_foldins": m.foldIns,
		"applied":         ok,
		"seen":            m.seen,
	})
	if ok {
		if view != nil {
			m.reclassify = view
		}
		m.badPending = m.badPending[:0]
	}
}

// windowMark records one per-window CP lower bound: gauge, trajectory
// ring, and a `cp_window` note. It runs every Window releases on the
// steady path, so it allocates nothing unless a journal is attached.
func (m *Monitor) windowMark() {
	lb := m.lower[m.successes]
	m.windowIdx++
	m.gWindowLower.Set(lb)
	m.traj[m.trajHead] = lb
	m.trajHead++
	if m.trajHead == len(m.traj) {
		m.trajHead = 0
	}
	if m.trajLen < len(m.traj) {
		m.trajLen++
	}
	if m.o.Journal() == nil {
		return
	}
	m.o.Note("cp_window", map[string]any{
		"bench":       m.bench,
		"window":      m.windowIdx,
		"successes":   m.successes,
		"size":        m.filled,
		"lower_bound": FormatFloat(lb),
	})
}

// trajectoryList renders the trailing per-window lower bounds
// oldest-first in FormatFloat form (episode end only).
func (m *Monitor) trajectoryList() string {
	if m.trajLen == 0 {
		return ""
	}
	start := m.trajHead - m.trajLen
	if start < 0 {
		start += len(m.traj)
	}
	buf := make([]byte, 0, m.trajLen*12)
	for i := 0; i < m.trajLen; i++ {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendFloat(buf, m.traj[(start+i)%len(m.traj)])
	}
	return string(buf)
}

// finishEpisode closes a recovery episode as the state machine re-enters
// holding, publishing the robustness metrics the drift suite gates on.
func (m *Monitor) finishEpisode() {
	m.inEpisode = false
	dwell := m.seen - m.episodeStart // releases spent outside holding
	ttr := 0
	if m.firstFold > 0 {
		ttr = m.seen - m.firstFold // releases from first repair to restored
	}
	m.cEpisodes.Inc()
	m.gLastDwell.Set(float64(dwell))
	m.gLastTTR.Set(float64(ttr))
	m.gLastFoldIns.Set(float64(m.foldIns))
	m.o.Note("recovery", map[string]any{
		"bench":           m.bench,
		"dwell":           dwell,
		"time_to_recover": ttr,
		"foldins":         m.foldIns,
		"exceeded":        strconv.FormatBool(m.exceeded),
		"trajectory":      m.trajectoryList(),
		"seen":            m.seen,
	})
}
