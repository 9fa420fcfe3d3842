package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mithra"
	"mithra/internal/core"
)

var update = flag.Bool("update", false, "rewrite golden files with the current output")

// TestReportGolden pins the rendered output of the report command's code
// path (mithra.Report builds the same suite and renders the same tables
// as cmdReport's text format) at test scale on a single benchmark. The pipeline is deterministic by construction — seeded
// RNG streams and the parallel engine's bit-identical guarantee — so the
// full report text, numbers included, is stable and diffable.
func TestReportGolden(t *testing.T) {
	cfg := mithra.DefaultReportConfig()
	cfg.Opts = core.TestOptions()
	cfg.Benchmarks = []string{"fft"}
	cfg.QualityLevels = []float64{0.05, 0.10}
	// Test-scale sample counts cannot certify the paper's 90%@95%
	// guarantee; mirror cmdReport's -scale test adjustment.
	cfg.SuccessRate = 0.6
	cfg.Confidence = 0.9
	cfg.TwoSided = false

	var buf bytes.Buffer
	if err := mithra.Report(cfg, &buf, "table1", "fig6"); err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()

	path := filepath.Join("testdata", "report.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run 'go test -update' to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("report output differs from %s (run 'go test -update' after verifying):\n--- got ---\n%s\n--- want ---\n%s",
			path, got, want)
	}
}

// TestReportExpFormat checks that -format renders a single experiment
// (-exp) as well as the full report.
func TestReportExpFormat(t *testing.T) {
	var out, errb bytes.Buffer
	args := []string{"-exp", "table1", "-scale", "test", "-benchmarks", "fft", "-format", "csv"}
	if code := cmdReport(args, &out, &errb); code != 0 {
		t.Fatalf("report exited %d: %s", code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "benchmark,domain,") || !strings.HasPrefix(lines[1], "fft,") {
		t.Fatalf("table1 CSV = %q, want a header and one fft row", out.String())
	}
}
