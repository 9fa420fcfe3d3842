package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestSmoke builds mithrad and this program, then runs every workload
// for one second on test-scale deployments, untraced and traced, and
// checks that each prints exactly the declared metric set with the
// declared units and passes its correctness checks.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon")
	}
	bin := t.TempDir()
	for pkg, out := range map[string]string{"mithra/cmd/mithrad": "mithrad", ".": "perfbench"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(bin, out), pkg)
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", pkg, err, msg)
		}
	}
	work := t.TempDir()
	for _, w := range workloadNames {
		for _, traced := range []string{"0", "1"} {
			t.Run(w+"/trace"+traced, func(t *testing.T) {
				cmd := exec.Command(filepath.Join(bin, "perfbench"), "-smoke", "-bin-dir", bin, "-work-dir", work,
					"--workload", w, "--seed", "3", "--seconds", "1", "--trace", traced)
				var stderr strings.Builder
				cmd.Stderr = &stderr
				stdout, err := cmd.Output()
				if err != nil {
					t.Fatalf("%v\n%s", err, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not a result: %v\n%s", err, stdout)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, stderr.String())
				}
				want := endToEnd
				if traced == "1" {
					want = perLayer
				}
				var got, missing []string
				for name := range res.Metrics {
					got = append(got, name)
				}
				sort.Strings(got)
				for _, s := range want {
					mv, ok := res.Metrics[s.name]
					if !ok {
						missing = append(missing, s.name)
						continue
					}
					if mv.Unit != s.unit {
						t.Errorf("%s: unit %q, want %q", s.name, mv.Unit, s.unit)
					}
					if traced == "0" && !(mv.Value > 0) {
						t.Errorf("%s = %v, want > 0", s.name, mv.Value)
					}
				}
				if len(missing) > 0 || len(got) != len(want) {
					t.Errorf("metrics %v; missing %v", got, missing)
				}
			})
		}
	}
	if _, err := os.Stat(filepath.Join(work, "spans-serve_open_fft-seed3.jsonl")); err != nil {
		t.Errorf("traced run wrote no spans: %v", err)
	}
}
