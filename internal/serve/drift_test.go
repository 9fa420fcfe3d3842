package serve

// mithradrift acceptance: under every seeded drift scenario (gradual,
// sudden, seasonal, heavy-tail) the guarantee monitor must walk the
// full holding → violated → … → recovering → holding cycle, restore the
// guarantee within the configured fold-in bound, and journal a recovery
// record — byte-identically at both client shapes. The drifted
// stream is produced client-side by dataset.Drift (exactly what
// `mithra loadgen -drift` does), so these tests pin the whole
// dataset → serve → watch loop.

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"mithra/internal/dataset"
	"mithra/internal/mathx"
	"mithra/internal/obs"
	"mithra/internal/watch"
)

// driftNoteNames are the deterministic note streams the cross-shape
// gate diffs. (The full journal also carries the final metrics snapshot,
// whose served-decision counters legitimately depend on snapshot-swap
// timing, so the gate compares these notes, not raw journal bytes.)
var driftNoteNames = []string{"guarantee", "boost", "foldin", "cp_window", "recovery", "recovery_exceeded"}

// driftBaseInputs is the stationary request stream: distinct vectors in
// [0, 0.9)^3, all in the synthetic table's trained-good region and the
// probe's accuracy domain, replayed for several passes. A small distinct
// set matters: drifted at a stable intensity, every pass revisits the
// same drifted vectors, so the quantized cells a fold-in repairs cover
// the whole drifted distribution after one pass.
func driftBaseInputs(n int) [][]float64 {
	rng := mathx.NewRNG(5)
	out := make([][]float64, n)
	for i := range out {
		out[i] = []float64{rng.Float64() * 0.9, rng.Float64() * 0.9, rng.Float64() * 0.9}
	}
	return out
}

// driftProbeFactory models an accelerator that is accurate on its
// training domain and degrades sharply outside it — the failure mode
// distribution drift actually induces. In-domain inputs measure zero
// error; any component beyond the domain (with slack for quantizer edge
// cells) measures far above the 0.1 snapshot threshold.
func driftProbeFactory() ErrorProbe {
	return func(in []float64) float64 {
		for _, x := range in {
			if x < -0.02 || x > 1.02 {
				return 1
			}
		}
		return 0
	}
}

// driftScenario drives one drift spec against a sampling server and
// returns the rendered deterministic note streams plus the recovery
// summaries. The stream is base inputs replayed `repeats` times with the
// drift transform applied by global request index — what loadgen sends —
// decided at one client shape.
func driftScenario(t *testing.T, shape clientShape, spec string, sampleRate float64, repeats int) string {
	t.Helper()
	d, err := dataset.ParseDrift(spec)
	if err != nil {
		t.Fatal(err)
	}
	base := driftBaseInputs(120)
	snap := syntheticSnapshot(t, "synth", driftProbeFactory)
	ref := watch.BuildReference(nil, base)
	if !ref.Valid() {
		t.Fatal("reference invalid")
	}
	snap.SetReference(ref)

	var journal bytes.Buffer
	o, err := obs.New(obs.Options{
		Clock:         obs.NewFakeClock(time.Unix(1700000000, 0)),
		JournalWriter: &journal,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Lag 128 covers the widest shape's in-flight skew (4 connections of
	// 32-request windows): the monitor releases in ID order at both.
	cfg := Config{
		SampleRate: sampleRate,
		SampleSeed: 11,
		Obs:        o,
		Watch: watch.Config{
			Window: 16, Lag: 128,
			Recheck: watch.Recheck{MaxFoldIns: 8, RepairEvery: 40},
		},
	}
	s, addr := startServer(t, cfg, snap)

	// Observations from several connections race to the updater; the
	// reorder buffer plus the monitor's deterministic table view restore
	// determinism.
	ins := make([][]float64, len(base)*repeats)
	for i := range ins {
		ins[i] = d.Apply(nil, base[i%len(base)], uint64(i))
	}
	if err := dialShape(t, addr, shape).decide("synth", 0, ins, make([]DecideResponse, len(ins))); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := o.Close(nil); err != nil {
		t.Fatal(err)
	}

	entries, err := obs.ReadJournal(bytes.NewReader(journal.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var rendered strings.Builder
	for _, name := range driftNoteNames {
		obs.RenderNotes(&rendered, entries, name)
	}
	return rendered.String()
}

// checkDriftCycle asserts the guarantee-note stream walks one or more
// complete holding → violated → … → recovering → holding cycles and the
// recovery notes stay within the fold-in bound.
func checkDriftCycle(t *testing.T, notes string, maxFoldIns int) {
	t.Helper()
	var trs [][2]string
	recoveries := 0
	for _, line := range strings.Split(notes, "\n") {
		if strings.HasPrefix(line, "note recovery_exceeded") {
			t.Fatalf("fold-in bound exceeded: %s", line)
		}
		if strings.HasPrefix(line, "note recovery ") {
			recoveries++
			if !strings.Contains(line, "exceeded=false") {
				t.Fatalf("recovery note reports exceeded: %s", line)
			}
			foldins := noteAttrInt(t, line, "foldins=")
			if foldins > maxFoldIns {
				t.Fatalf("recovery needed %d fold-ins, bound %d: %s", foldins, maxFoldIns, line)
			}
			if foldins < 1 {
				t.Fatalf("recovery without any fold-in (scenario too weak): %s", line)
			}
		}
		if !strings.HasPrefix(line, "note guarantee ") {
			continue
		}
		from := noteAttr(line, "from=")
		to := noteAttr(line, "to=")
		trs = append(trs, [2]string{from, to})
	}
	if len(trs) < 3 {
		t.Fatalf("want >= 3 guarantee transitions, got %v", trs)
	}
	if trs[0] != [2]string{"holding", "violated"} {
		t.Fatalf("first transition %v, want holding→violated", trs[0])
	}
	for i := 1; i < len(trs); i++ {
		if trs[i][0] != trs[i-1][1] {
			t.Fatalf("broken transition chain at %d: %v", i, trs)
		}
	}
	sawRecovering := false
	for _, tr := range trs {
		if tr[1] == "recovering" {
			sawRecovering = true
		}
	}
	if !sawRecovering {
		t.Fatalf("no recovering transition journaled: %v", trs)
	}
	if last := trs[len(trs)-1]; last[1] != "holding" {
		t.Fatalf("final transition %v, want re-entry into holding", last)
	}
	if recoveries == 0 {
		t.Fatal("no recovery note journaled")
	}
}

// noteAttr pulls one `k=v` attr value out of a rendered note line.
func noteAttr(line, key string) string {
	i := strings.Index(line, key)
	if i < 0 {
		return ""
	}
	v := line[i+len(key):]
	if j := strings.IndexAny(v, " }"); j >= 0 {
		v = v[:j]
	}
	return v
}

func noteAttrInt(t *testing.T, line, key string) int {
	t.Helper()
	v := noteAttr(line, key)
	n := 0
	for _, c := range v {
		if c < '0' || c > '9' {
			t.Fatalf("attr %s not an int in %q", key, line)
		}
		n = n*10 + int(c-'0')
	}
	return n
}

// runDriftScenario is the shared acceptance body: full cycle, bounded
// fold-ins, and byte-identical note streams at both client shapes.
func runDriftScenario(t *testing.T, spec string, sampleRate float64, repeats int) string {
	t.Helper()
	want := driftScenario(t, clientShapes[0], spec, sampleRate, repeats)
	checkDriftCycle(t, want, 8)
	for _, shape := range clientShapes[1:] {
		if got := driftScenario(t, shape, spec, sampleRate, repeats); got != want {
			t.Fatalf("drift note stream differs across client shapes:\n--- %v ---\n%s\n--- %v ---\n%s",
				clientShapes[0], want, shape, got)
		}
	}
	return want
}

func TestDriftSuddenRecovery(t *testing.T) {
	runDriftScenario(t, "kind=sudden,at=300,shift=0.35,seed=3", 1, 10)
}

func TestDriftGradualRecovery(t *testing.T) {
	runDriftScenario(t, "kind=gradual,start=200,ramp=160,shift=0.35,seed=3", 1, 10)
}

func TestDriftSeasonalRecovery(t *testing.T) {
	// period == len(base inputs): every pass drifts each input at the
	// same intensity, so season 1's fold-ins cover every later season.
	runDriftScenario(t, "kind=seasonal,period=120,mix=1,shift=0.4,seed=3", 1, 10)
}

func TestDriftHeavyTailRecovery(t *testing.T) {
	// Contaminated vectors saturate past the quantizer's domain in every
	// component, collapsing onto the table's corner cells — a finite cell
	// set that one or two fold-ins cover.
	runDriftScenario(t, "kind=heavytail,start=200,rate=0.3,tail=3,seed=5", 1, 10)
}

// TestDriftBoostedSampling runs the sudden scenario at half sampling:
// the violation must arm the forced-sampling boost window, and the note
// streams must stay byte-identical across client shapes even though
// boost membership is decided on the racy decide path (the BoostDelay
// contract).
func TestDriftBoostedSampling(t *testing.T) {
	notes := runDriftScenario(t, "kind=sudden,at=300,shift=0.35,seed=3", 0.5, 10)
	if !strings.Contains(notes, "note boost ") {
		t.Fatal("no boost note journaled at sample-rate 0.5")
	}
}

// TestDriftSparseSamplingBoost runs the sudden scenario at a tenth
// sampling. There the release frontier trails the decided requests by
// at least Lag/SampleRate = 1280 request IDs, and by more while the
// updater's channel backs up: past the monitor's own 8×Lag = 1024 boost
// delay. The server scales the delay to the sample rate (boostDelay), so
// the boost window still opens past every decided ID and the note
// streams stay byte-identical across client shapes.
func TestDriftSparseSamplingBoost(t *testing.T) {
	notes := runDriftScenario(t, "kind=sudden,at=300,shift=0.35,seed=3", 0.1, 60)
	if !strings.Contains(notes, "note boost ") {
		t.Fatal("no boost note journaled at sample-rate 0.1")
	}
}
