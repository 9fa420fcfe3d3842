package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestBenchCLISmokeAndCompare drives the bench subcommand the way CI
// does: a smoke run writes the report, a second smoke run gates against
// it, and a doctored regression (an alloc on a hermetic stage) fails the
// gate with a nonzero exit.
func TestBenchCLISmokeAndCompare(t *testing.T) {
	if testing.Short() {
		t.Skip("bench harness run in -short mode")
	}
	dir := t.TempDir()
	out := filepath.Join(dir, "BENCH_serve.json")

	code, stdout, stderr := mithraCLI("bench", "-smoke", "-out", out, "-quiet")
	if code != 0 {
		t.Fatalf("bench exit %d: %s", code, stderr)
	}
	for _, stage := range []string{"decide_steady", "wire_encode", "ring_lookup", "cluster_hop", "watch_observe", "rtt_p1", "rtt_p32"} {
		if !strings.Contains(stdout, stage) {
			t.Errorf("bench output missing stage %s:\n%s", stage, stdout)
		}
	}

	var doc struct {
		Runs []struct {
			Stage       string `json:"stage"`
			AllocsPerOp int64  `json:"allocs_per_op"`
		} `json:"runs"`
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Runs) < 8 {
		t.Fatalf("bench wrote %d rows, want >= 8", len(doc.Runs))
	}

	// The gate passes against the file the run itself produced (loose
	// ratio: this is CI's configuration, where timing noise is expected
	// and the allocation contract does the real gating).
	code, _, stderr = mithraCLI("bench", "-smoke", "-compare", out, "-ratio", "50", "-quiet")
	if code != 0 {
		t.Fatalf("bench -compare exit %d: %s", code, stderr)
	}

	// Doctor a regression into the committed file: rewrite decide_steady's
	// allocs_per_op to -1 so the fresh zero-alloc measurement reads as a
	// one-alloc regression against it.
	doctored := doctorAllocs(t, string(raw))
	bad := filepath.Join(dir, "doctored.json")
	if err := os.WriteFile(bad, []byte(doctored), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr = mithraCLI("bench", "-smoke", "-compare", bad, "-ratio", "50", "-quiet")
	if code == 0 {
		t.Fatal("doctored regression passed the compare gate")
	}
	if !strings.Contains(stderr, "allocs/op regressed") {
		t.Fatalf("gate failure does not name the alloc regression: %s", stderr)
	}
}

// doctorAllocs rewrites the decide_steady row's allocs_per_op to -1, so
// a fresh zero-alloc measurement reads as a one-alloc regression.
func doctorAllocs(t *testing.T, raw string) string {
	t.Helper()
	var doc map[string]any
	if err := json.Unmarshal([]byte(raw), &doc); err != nil {
		t.Fatal(err)
	}
	runs, ok := doc["runs"].([]any)
	if !ok {
		t.Fatal("doctored file has no runs")
	}
	found := false
	for _, r := range runs {
		row := r.(map[string]any)
		if row["stage"] == "decide_steady" {
			row["allocs_per_op"] = -1
			found = true
		}
	}
	if !found {
		t.Fatal("decide_steady row not found to doctor")
	}
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}
