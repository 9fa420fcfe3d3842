package serve

import (
	"bytes"
	"context"
	"testing"
	"time"

	"mithra/internal/fault"
	"mithra/internal/mathx"
	"mithra/internal/obs"
	"mithra/internal/watch"
)

// watchInputs is the deterministic request stream the guarantee-watch
// tests drive: inputs in [0, 0.9) so the synthetic table routes them
// approximate (in[0] > 0.9 is the trained bad region) and the sampled
// observations actually exercise the guarantee check.
func watchInputs(n int) [][]float64 {
	rng := mathx.NewRNG(5)
	out := make([][]float64, n)
	for i := range out {
		out[i] = []float64{rng.Float64() * 0.9, rng.Float64() * 0.9, rng.Float64() * 0.9}
	}
	return out
}

// driftJournal boots a watch-armed server with an injected input-drift
// fault (IDs 0..119 measure bad), pushes one deterministic request
// stream through it at one client shape, and returns the notes-only
// journal bytes. The journal must be a pure function of the stream —
// not of the client shape — which is what the cross-shape CI gate
// diffs.
func driftJournal(t *testing.T, shape clientShape) []byte {
	t.Helper()
	plan, err := fault.ParsePlan("seed=7,probe.drift=1@120")
	if err != nil {
		t.Fatal(err)
	}
	// The probe itself measures a healthy accelerator; only the injected
	// drift forces observations bad, and it is keyed by request ID.
	snap := syntheticSnapshot(t, "synth", func() ErrorProbe {
		return func(in []float64) float64 { return 0 }
	})
	ins := watchInputs(400)
	ref := watch.BuildReference(nil, ins)
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
	cfg := Config{
		SampleRate: 1,
		SampleSeed: 11,
		Freeze:     true,
		Obs:        o,
		Faults:     fault.NewSet(plan),
		Watch:      watch.Config{Window: 16, Lag: 512},
	}
	s, addr := startServer(t, cfg, snap)

	// Observations from several connections race to the updater, and only
	// the monitor's reorder buffer restores determinism.
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
	return journal.Bytes()
}

// guaranteeTransitions extracts the journaled guarantee state
// transitions as from→to pairs.
func guaranteeTransitions(t *testing.T, journal []byte) [][2]string {
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

// TestWatchDriftAcceptance is the monitor's acceptance gate: under
// injected input drift the journal must record the state machine leaving
// and re-entering holding (holding → violated → … → holding, passing
// through recovering), and the journal bytes must be identical at both
// client shapes.
func TestWatchDriftAcceptance(t *testing.T) {
	j1 := driftJournal(t, clientShapes[0])
	j4 := driftJournal(t, clientShapes[1])

	trs := guaranteeTransitions(t, j1)
	if len(trs) < 3 {
		t.Fatalf("want >= 3 transitions, got %v", trs)
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

	if !bytes.Equal(j1, j4) {
		t.Fatalf("journal differs across client shapes:\n--- %v ---\n%s\n--- %v ---\n%s", clientShapes[0], j1, clientShapes[1], j4)
	}
}

// TestTracePropagation: an armed client stamps every decide frame with
// its trace ID (the v2 wire form) and the server echoes it on each
// response.
func TestTracePropagation(t *testing.T) {
	snap := syntheticSnapshot(t, "synth", nil)
	_, addr := startServer(t, Config{}, snap)
	cl, err := Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const trace uint64 = 0xABCDEF0123456789
	cl.SetTrace(trace)
	ins := watchInputs(8)
	resps, err := cl.DecideBatch("synth", 100, ins)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range resps {
		if r.TraceID != trace {
			t.Fatalf("response %d trace %#x, want %#x", i, r.TraceID, trace)
		}
	}

	cl.SetTrace(0) // disarmed: back to v1 frames, zero trace echoed
	resps, err = cl.DecideBatch("synth", 200, ins)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range resps {
		if r.TraceID != 0 {
			t.Fatalf("untraced response %d carries trace %#x", i, r.TraceID)
		}
	}
}
