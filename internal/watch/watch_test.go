package watch

import (
	"bytes"
	"math"
	"testing"
	"time"

	"mithra/internal/obs"
	"mithra/internal/stats"
)

func testGuarantee() stats.Guarantee {
	return stats.Guarantee{QualityLoss: 0.05, SuccessRate: 0.6, Confidence: 0.9}
}

// notesObs builds a notes-only deterministic observability bundle: no
// metrics, fake clock, journal into buf — the journal bytes are a pure
// function of the note sequence.
func notesObs(t *testing.T, buf *bytes.Buffer) *obs.Obs {
	t.Helper()
	clock := obs.NewFakeClock(time.Unix(1700000000, 0))
	o, err := obs.New(obs.Options{Clock: clock, JournalWriter: buf})
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// feed pushes one in-order observation and releases it immediately.
func feed(m *Monitor, id uint32, bad bool) {
	m.Observe(Obs{ID: id, Bad: bad})
	m.Flush()
}

// transitionsOf extracts the from→to pairs of the guarantee notes.
func transitionsOf(t *testing.T, journal []byte) [][2]string {
	t.Helper()
	entries, err := obs.ReadJournal(bytes.NewReader(journal))
	if err != nil {
		t.Fatal(err)
	}
	var out [][2]string
	for _, e := range entries {
		if e["t"] != "note" || e["name"] != "guarantee" {
			continue
		}
		attrs := e["attrs"].(map[string]any)
		out = append(out, [2]string{attrs["from"].(string), attrs["to"].(string)})
	}
	return out
}

// TestStateMachineCycle drives the monitor through the full
// holding→violated→recovering→holding cycle and checks the journaled
// transition chain is contiguous.
func TestStateMachineCycle(t *testing.T) {
	var buf bytes.Buffer
	o := notesObs(t, &buf)
	g := testGuarantee()
	cfg := Config{Window: 8, Lag: 4}
	m := NewMonitor("fft", g, nil, cfg, o)

	if m.State() != Holding {
		t.Fatalf("initial state %v, want holding", m.State())
	}
	id := uint32(0)
	for i := 0; i < 8; i++ { // fill the window with successes
		feed(m, id, false)
		id++
	}
	if m.State() != Holding {
		t.Fatalf("after healthy warmup: %v, want holding", m.State())
	}
	for i := 0; i < 8; i++ { // drive every window slot bad
		feed(m, id, true)
		id++
	}
	if m.State() != Violated {
		t.Fatalf("after failure burst: %v, want violated", m.State())
	}
	for i := 0; i < 2*cfg.Window; i++ { // heal the window, then dwell a window
		feed(m, id, false)
		id++
	}
	if m.State() != Holding {
		t.Fatalf("after recovery: %v, want holding", m.State())
	}
	if err := o.Close(nil); err != nil {
		t.Fatal(err)
	}

	trs := transitionsOf(t, buf.Bytes())
	if len(trs) < 3 {
		t.Fatalf("want >= 3 transitions, got %v", trs)
	}
	for i := 1; i < len(trs); i++ { // the chain must be contiguous
		if trs[i][0] != trs[i-1][1] {
			t.Fatalf("broken transition chain at %d: %v", i, trs)
		}
	}
	sawViolated := false
	for _, tr := range trs {
		if tr[1] == "violated" {
			sawViolated = true
		}
	}
	if !sawViolated || trs[len(trs)-1][1] != "holding" {
		t.Fatalf("want a violation and a final holding, got %v", trs)
	}
}

// TestViolationNoteCarriesExemplars checks the transition note attaches
// the bounded ring of failing request IDs: ten failures land in the
// warm-up window, and the violation at its first evaluation carries only
// the eight most recent.
func TestViolationNoteCarriesExemplars(t *testing.T) {
	var buf bytes.Buffer
	o := notesObs(t, &buf)
	m := NewMonitor("fft", testGuarantee(), nil, Config{Window: 16, Lag: 1}, o)
	for i := uint32(0); i < 16; i++ {
		feed(m, i, i%3 != 0)
	}
	if m.State() != Violated {
		t.Fatalf("state %v after a window of 10 failures in 16, want violated", m.State())
	}
	if err := o.Close(nil); err != nil {
		t.Fatal(err)
	}
	entries, err := obs.ReadJournal(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range entries {
		if e["t"] != "note" || e["name"] != "guarantee" {
			continue
		}
		attrs := e["attrs"].(map[string]any)
		if attrs["to"] == "violated" {
			found = true
			// Failing IDs 1,2,4,5,7,8,10,11,13,14: the ring drops the
			// oldest two.
			if ex := attrs["exemplars"].(string); ex != "4,5,7,8,10,11,13,14" {
				t.Fatalf("violated note exemplars %q, want the 8 most recent failing IDs", ex)
			}
		}
	}
	if !found {
		t.Fatal("no violated transition journaled")
	}
}

// TestWarmupDoesNotEvaluate: no state change or transition note may be
// produced before the first full window, however bad the samples.
func TestWarmupDoesNotEvaluate(t *testing.T) {
	var buf bytes.Buffer
	o := notesObs(t, &buf)
	cfg := Config{Enabled: true, Window: 16, Lag: 1}
	m := NewMonitor("fft", testGuarantee(), nil, cfg, o)
	for i := uint32(0); i < 15; i++ {
		feed(m, i, true)
	}
	if m.State() != Holding {
		t.Fatalf("state %v during warmup, want holding", m.State())
	}
	if err := o.Close(nil); err != nil {
		t.Fatal(err)
	}
	if trs := transitionsOf(t, buf.Bytes()); len(trs) != 0 {
		t.Fatalf("transitions during warmup: %v", trs)
	}
}

// obSeq is the deterministic observation stream shared by the reorder
// tests: a healthy lead-in, a violation burst, and a long recovery.
func obSeq(n int) []Obs {
	out := make([]Obs, n)
	for i := range out {
		out[i] = Obs{ID: uint32(i), Bad: i >= 100 && i < 140}
	}
	return out
}

// TestReorderDeterminism: feeding the same observations in ID order and
// in a skewed order (displacement below Lag) must produce byte-identical
// journals — the property the cross-worker CI gate rests on.
func TestReorderDeterminism(t *testing.T) {
	run := func(shuffle bool) []byte {
		var buf bytes.Buffer
		o := notesObs(t, &buf)
		cfg := Config{Window: 16, Lag: 16}
		m := NewMonitor("fft", testGuarantee(), nil, cfg, o)
		obs := obSeq(300)
		if shuffle {
			// Reverse disjoint chunks of 8: max displacement 7 < Lag.
			for base := 0; base+8 <= len(obs); base += 8 {
				for i, j := base, base+7; i < j; i, j = i+1, j-1 {
					obs[i], obs[j] = obs[j], obs[i]
				}
			}
		}
		for _, ob := range obs {
			m.Observe(ob)
		}
		m.Flush()
		if m.Seen() != 300 {
			t.Fatalf("seen %d, want 300", m.Seen())
		}
		if err := o.Close(nil); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	ordered, skewed := run(false), run(true)
	if len(transitionsOf(t, ordered)) == 0 {
		t.Fatal("sequence produced no transitions; test is vacuous")
	}
	if !bytes.Equal(ordered, skewed) {
		t.Fatalf("journal differs under reorder:\nA: %s\nB: %s", ordered, skewed)
	}
}

// TestNilMonitor: every exported method must be a nil-safe no-op (the
// serve shard carries a nil monitor when watching is disarmed).
func TestNilMonitor(t *testing.T) {
	var m *Monitor
	m.Observe(Obs{ID: 1, In: []float64{1}})
	m.Flush()
	if m.Seen() != 0 || m.State() != Holding {
		t.Fatal("nil monitor is not inert")
	}
}

func TestDivergence(t *testing.T) {
	var ins [][]float64
	for i := 0; i < 100; i++ {
		ins = append(ins, []float64{-0.5, 0.05, 0.5})
	}
	ref := BuildReference(nil, ins)
	if !ref.Valid() {
		t.Fatal("built reference reports invalid")
	}
	if ref.Total() != 300 {
		t.Fatalf("total %d, want 300", ref.Total())
	}

	same := NewTracker(ref)
	for i := 0; i < 50; i++ {
		same.Observe([]float64{-0.5, 0.05, 0.5})
	}
	if psi := same.PSI(); psi > 1e-9 {
		t.Fatalf("identical distribution PSI = %g, want ~0", psi)
	}
	if l1 := same.L1(); l1 > 1e-9 {
		t.Fatalf("identical distribution L1 = %g, want 0", l1)
	}

	drifted := NewTracker(ref)
	for i := 0; i < 50; i++ {
		drifted.Observe([]float64{0.95, 0.95, 0.95})
	}
	if psi := drifted.PSI(); psi < 1 {
		t.Fatalf("drifted PSI = %g, want large", psi)
	}
	if l1 := drifted.L1(); l1 < 1 {
		t.Fatalf("drifted L1 = %g, want ~2", l1)
	}
	if zero := NewTracker(ref); zero.PSI() != 0 || zero.L1() != 0 {
		t.Fatal("divergence must be zero before the first observation")
	}
}

func TestReferenceValid(t *testing.T) {
	var nilRef *Reference
	if nilRef.Valid() {
		t.Fatal("nil reference reports valid")
	}
	if (&Reference{Bounds: []float64{0}, Counts: []int64{1}}).Valid() {
		t.Fatal("shape-mismatched reference reports valid")
	}
	if (&Reference{Bounds: []float64{0}, Counts: []int64{0, 0}}).Valid() {
		t.Fatal("empty reference reports valid")
	}
	if !(&Reference{Bounds: []float64{0}, Counts: []int64{1, 0}}).Valid() {
		t.Fatal("valid reference reports invalid")
	}
}

// TestFormatFloatCanonical pins the canonical float rendering on awkward
// inputs — the journal/exposition byte-stability satellite.
func TestFormatFloatCanonical(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		0.02:    "0.02",
		5e-324:  "5e-324", // smallest denormal
		-0.0625: "-0.0625",
	}
	for v, want := range cases {
		if got := FormatFloat(v); got != want {
			t.Fatalf("FormatFloat(%g) = %q, want %q", v, got, want)
		}
	}
	if got := FormatFloat(negZero()); got != "-0" {
		t.Fatalf("FormatFloat(-0) = %q, want -0", got)
	}
}

// negZero defeats constant folding (the literal -0.0 is +0 in Go).
func negZero() float64 {
	z := 0.0
	return -z
}

// TestBoundTableExact: the monitor's per-window bound table holds the
// same floats the direct Clopper-Pearson calls return, its required
// count is the guarantee's, and the state machine's two readings of the
// table — holds (k ≥ required) and the margin's sign (lower[k] ≥
// SuccessRate) — agree at every count.
func TestBoundTableExact(t *testing.T) {
	for _, g := range []stats.Guarantee{testGuarantee(), stats.PaperGuarantee()} {
		for _, window := range []int{16, 32, 64} {
			m := NewMonitor("fft", g, nil, Config{Window: window}, nil)
			if len(m.lower) != window+1 || len(m.upper) != window+1 {
				t.Fatalf("%v window %d: table sizes %d/%d, want %d", g, window, len(m.lower), len(m.upper), window+1)
			}
			for k := 0; k <= window; k++ {
				lb := g.LowerBound(k, window)
				ub := stats.ClopperPearsonUpper(k, window, g.EffectiveLevel())
				if math.Float64bits(m.lower[k]) != math.Float64bits(lb) {
					t.Errorf("%v window %d: lower[%d] = %v, direct %v", g, window, k, m.lower[k], lb)
				}
				if math.Float64bits(m.upper[k]) != math.Float64bits(ub) {
					t.Errorf("%v window %d: upper[%d] = %v, direct %v", g, window, k, m.upper[k], ub)
				}
				if holds, certifies := k >= m.required, m.lower[k] >= g.SuccessRate; holds != certifies {
					t.Errorf("%v window %d k %d: holds=%v but lower bound certifies=%v", g, window, k, holds, certifies)
				}
			}
			if want := g.RequiredSuccesses(window); m.required != want {
				t.Errorf("%v window %d: required %d, RequiredSuccesses %d", g, window, m.required, want)
			}
		}
	}
}

// TestObserveSteadyZeroAlloc pins the Observe hotpath promise in the
// serving shape: divergence reference attached, metrics on, no journal,
// a holding stream. Each run feeds two full windows, so
// a per-window allocation (the cp_window mark) cannot hide below one per
// run.
func TestObserveSteadyZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under the race detector")
	}
	ins := make([][]float64, 64)
	for i := range ins {
		ins[i] = []float64{float64(i) / 64, 0.5, -0.25}
	}
	o, err := obs.New(obs.Options{Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	const window = 32
	m := NewMonitor("fft", testGuarantee(), BuildReference(nil, ins), Config{Window: window, Lag: 64}, o)
	id := uint32(0)
	feedWindows := func() {
		for i := 0; i < 2*window; i++ {
			m.Observe(Obs{ID: id, In: ins[id%uint32(len(ins))]})
			id++
		}
	}
	feedWindows()
	feedWindows() // past the reorder lag and the first full window
	if allocs := testing.AllocsPerRun(50, feedWindows); allocs != 0 {
		t.Fatalf("steady holding Observe: %v allocs per %d observations, want 0", allocs, 2*window)
	}
	if m.State() != Holding || m.windowIdx == 0 {
		t.Fatalf("state %v after %d window marks: the stream did not reach a steady holding check", m.State(), m.windowIdx)
	}
}
