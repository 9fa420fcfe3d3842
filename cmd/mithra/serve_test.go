package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"mithra/internal/serve"
)

// compiledFixture compiles one test-scale deployment through the real
// CLI and shares the blob across tests (compilation dominates cost).
var compiledFixture = sync.OnceValues(func() ([]byte, error) {
	dir, err := os.MkdirTemp("", "mithra-serve-test")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	out := filepath.Join(dir, "prog.bin")
	code, stdout, stderr := mithraCLI("compile", "-bench", "fft", "-scale", "test",
		"-quality", "0.10", "-success", "0.6", "-confidence", "0.9", "-two-sided=false",
		"-seed", "42", "-o", out, "-quiet")
	if code != 0 {
		return nil, fmt.Errorf("compile exit %d: %s", code, stderr)
	}
	// The deployment diagnostics: full-approximation quality loss, the
	// auto-tuned table configuration and guard band, the neural bias.
	if !compileDiagRe.MatchString(stdout) {
		return nil, fmt.Errorf("compile output lacks the deployment diagnostics:\n%s", stdout)
	}
	return os.ReadFile(out)
})

var compileDiagRe = regexp.MustCompile(`(?s)full-approx quality loss [0-9.]+%.*` +
	`bits=[0-9]+ combine=\S+ guard=[0-9.]+\).*neural classifier .*, bias -?[0-9.]+\n`)

func fixtureFile(t *testing.T) string {
	t.Helper()
	blob, err := compiledFixture()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "prog.bin")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestDecideLoadgenUsageErrors(t *testing.T) {
	cases := []struct {
		name     string
		args     []string
		wantCode int
		wantErr  string
	}{
		{"decide without config", []string{"decide"}, 2, "error[usage]: decide: -config is required"},
		{"decide bad scale", []string{"decide", "-config", "x.bin", "-scale", "huge"}, 2, "unknown scale"},
		{"decide missing file", []string{"decide", "-config", "definitely-missing.bin"}, 1, "error[io]: decide:"},
		{"loadgen no target", []string{"loadgen", "-config", "x.bin"}, 2, "need exactly one of -addr / -unix"},
		{"loadgen both targets", []string{"loadgen", "-addr", "a", "-unix", "b"}, 2, "need exactly one of -addr / -unix"},
		{"loadgen bad conns", []string{"loadgen", "-addr", "a", "-config", "x.bin", "-conns", "0"}, 2, "must be >= 1"},
		{"loadgen without config", []string{"loadgen", "-addr", "a"}, 2, "-config is required"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, _, stderr := mithraCLI(c.args...)
			if code != c.wantCode {
				t.Errorf("exit = %d, want %d (stderr: %s)", code, c.wantCode, stderr)
			}
			if !strings.Contains(stderr, c.wantErr) {
				t.Errorf("stderr %q missing %q", stderr, c.wantErr)
			}
		})
	}
}

var digestRe = regexp.MustCompile(`digest\s+(fnv1a:[0-9a-f]{16})`)

// TestServedMatchesOfflineCLI is the CLI-level determinism acceptance
// check: `mithra decide` (offline) and `mithra loadgen` (served, via a
// frozen sampling server) must print the same decision digest, and
// `mithra journal diff` over their decision journals must be clean.
func TestServedMatchesOfflineCLI(t *testing.T) {
	prog := fixtureFile(t)
	dir := t.TempDir()
	offline := filepath.Join(dir, "offline.jsonl")
	served := filepath.Join(dir, "served.jsonl")
	benchJSON := filepath.Join(dir, "BENCH_serve.json")

	// Offline reference.
	code, stdout, stderr := mithraCLI("decide", "-config", prog, "-scale", "test",
		"-seed", "7", "-decisions", offline, "-quiet")
	if code != 0 {
		t.Fatalf("decide exit %d: %s", code, stderr)
	}
	m := digestRe.FindStringSubmatch(stdout)
	if m == nil {
		t.Fatalf("decide output has no digest:\n%s", stdout)
	}
	offlineDigest := m[1]

	// A serving instance with sporadic sampling on but frozen — the
	// configuration whose decisions must equal the offline replay.
	blob, err := compiledFixture()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := serve.LoadSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.NewServer(serve.NewRegistry(snap), serve.Config{
		SampleRate: 0.25, SampleSeed: 17, Freeze: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck // exits nil on drain
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx) //nolint:errcheck // best-effort teardown
	}()

	code, stdout, stderr = mithraCLI("loadgen", "-addr", ln.Addr().String(),
		"-config", prog, "-scale", "test", "-seed", "7", "-conns", "3", "-pipeline", "16",
		"-decisions", served, "-bench-json", benchJSON, "-label", "served", "-quiet")
	if code != 0 {
		t.Fatalf("loadgen exit %d: %s", code, stderr)
	}
	m = digestRe.FindStringSubmatch(stdout)
	if m == nil {
		t.Fatalf("loadgen output has no digest:\n%s", stdout)
	}
	if m[1] != offlineDigest {
		t.Fatalf("served digest %s != offline digest %s", m[1], offlineDigest)
	}

	// The decision journals diff clean.
	code, stdout, stderr = mithraCLI("journal", "diff", offline, served)
	if code != 0 {
		t.Fatalf("journal diff exit %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "journals identical") {
		t.Errorf("diff verdict missing from %q", stdout)
	}

	// The bench row landed with sane numbers.
	raw, err := os.ReadFile(benchJSON)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Runs []struct {
			Label           string  `json:"label"`
			Bench           string  `json:"bench"`
			Decisions       int     `json:"decisions"`
			DecisionsPerSec float64 `json:"decisions_per_sec"`
			AllocsPerOp     *int64  `json:"allocs_per_op"`
			BytesPerOp      *int64  `json:"bytes_per_op"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("BENCH_serve.json: %v", err)
	}
	if len(doc.Runs) != 1 || doc.Runs[0].Label != "served" || doc.Runs[0].Bench != "fft" ||
		doc.Runs[0].Decisions == 0 || doc.Runs[0].DecisionsPerSec <= 0 {
		t.Fatalf("bench rows = %+v", doc.Runs)
	}
	// The allocation fields are part of the schema even when zero —
	// they are the regression-gated half of the perf trajectory.
	if doc.Runs[0].AllocsPerOp == nil || doc.Runs[0].BytesPerOp == nil {
		t.Fatalf("bench row missing allocs_per_op/bytes_per_op: %s", raw)
	}

	// A second loadgen run with a new identity merges in, sorted into the
	// canonical row order (label asc), rather than clobbering the file.
	code, _, stderr = mithraCLI("loadgen", "-addr", ln.Addr().String(),
		"-config", prog, "-scale", "test", "-seed", "7", "-repeat", "2",
		"-bench-json", benchJSON, "-label", "repeat2", "-quiet")
	if code != 0 {
		t.Fatalf("second loadgen exit %d: %s", code, stderr)
	}
	raw, _ = os.ReadFile(benchJSON)
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Runs) != 2 || doc.Runs[0].Label != "repeat2" || doc.Runs[1].Label != "served" {
		t.Fatalf("bench rows after merge = %+v", doc.Runs)
	}

	// Re-running an identity replaces its row in place: the file is a
	// trajectory (one row per configuration), not a log.
	code, _, stderr = mithraCLI("loadgen", "-addr", ln.Addr().String(),
		"-config", prog, "-scale", "test", "-seed", "7", "-repeat", "2",
		"-bench-json", benchJSON, "-label", "repeat2", "-quiet")
	if code != 0 {
		t.Fatalf("third loadgen exit %d: %s", code, stderr)
	}
	raw, _ = os.ReadFile(benchJSON)
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Runs) != 2 {
		t.Fatalf("same-identity rerun grew the file: %+v", doc.Runs)
	}
}
