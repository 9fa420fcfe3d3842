package bench

import "testing"

// TestSmokeRunProducesAllStages runs the full harness in smoke mode and
// checks the contract the CI gate depends on: every stage reports, and
// every hermetic stage measures exactly zero allocations per op — the
// perf trajectory's hard floor.
func TestSmokeRunProducesAllStages(t *testing.T) {
	if testing.Short() {
		t.Skip("harness run in -short mode")
	}
	rows, err := Run(Config{Smoke: true, Label: "bench-smoke"})
	if err != nil {
		t.Fatal(err)
	}
	byStage := make(map[string]Row, len(rows))
	for _, r := range rows {
		if r.Label != "bench-smoke" {
			t.Errorf("row %q has label %q", r.Stage, r.Label)
		}
		byStage[r.Stage] = r
	}
	for stage := range hermeticStages {
		r, ok := byStage[stage]
		if !ok {
			t.Errorf("hermetic stage %s missing from run", stage)
			continue
		}
		if r.NsPerOp <= 0 {
			t.Errorf("stage %s: ns/op = %v", stage, r.NsPerOp)
		}
		if !raceEnabled && r.AllocsPerOp != 0 {
			t.Errorf("stage %s: %d allocs/op, want 0 — the zero-alloc decide path regressed", stage, r.AllocsPerOp)
		}
	}
	if r, ok := byStage["nn_train"]; !ok || r.NsPerOp <= 0 {
		t.Errorf("nn_train stage missing or untimed: %+v", r)
	}
	for _, stage := range []string{"rtt_p1", "rtt_p32"} {
		r, ok := byStage[stage]
		if !ok {
			t.Errorf("RTT stage %s missing from run", stage)
			continue
		}
		if r.DecisionsPerSec <= 0 || r.P50us <= 0 || r.P99us < r.P50us {
			t.Errorf("stage %s: implausible RTT row %+v", stage, r)
		}
		if !raceEnabled && r.AllocsPerOp > RTTAllocSlack {
			t.Errorf("stage %s: %d allocs/op exceeds slack %d", stage, r.AllocsPerOp, RTTAllocSlack)
		}
	}
	// A fresh run must pass Compare against itself rendered and reloaded —
	// the exact loop CI runs against the committed file.
	rep := &Report{}
	rep.Merge(rows...)
	if probs := Compare(rep, rep, 0); len(probs) != 0 {
		t.Fatalf("self-compare failed: %v", probs)
	}
}
