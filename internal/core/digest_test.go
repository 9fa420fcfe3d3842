package core

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"testing"

	"mithra/internal/axbench"
)

var update = flag.Bool("update", false, "rewrite golden files with the current output")

// digestOutEnv names the file a child test process writes its digests
// to; set only in that child.
const digestOutEnv = "MITHRA_EXPORT_DIGEST_OUT"

// TestExportDigestsGolden pins the compiled artifact of every registered
// benchmark at TestOptions: one fnv-1a digest of Deployment.Export per
// benchmark. A change meant to be bit-identical (a faster search, a
// cheaper replay) must leave this file untouched; an intentional
// re-baseline rewrites it with 'go test -update' and says so.
//
// gob numbers types process-wide in first-use order, so an Export's bytes
// depend on what the process gob-encoded before it. The digests are
// therefore computed in a fresh child process whose first encoding is an
// Export, as in `mithra compile`.
func TestExportDigestsGolden(t *testing.T) {
	if out := os.Getenv(digestOutEnv); out != "" {
		if err := os.WriteFile(out, exportDigests(t), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	out := filepath.Join(t.TempDir(), "digests")
	cmd := exec.Command(os.Args[0], "-test.run=^TestExportDigestsGolden$", "-test.count=1")
	cmd.Env = append(os.Environ(), digestOutEnv+"="+out)
	if msg, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("digest child: %v\n%s", err, msg)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "export_digests.golden")
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
		t.Errorf("export digests differ from %s (run 'go test -update' only for an intentional re-baseline):\n--- got ---\n%s--- want ---\n%s",
			path, got, want)
	}
}

// exportDigests deploys every registered benchmark at TestOptions and
// returns one "name fnv1a:digest" line per benchmark, sorted by name.
func exportDigests(t *testing.T) []byte {
	names := append(axbench.Names(), axbench.Extensions()...)
	sort.Strings(names)
	var buf bytes.Buffer
	for _, name := range names {
		d, err := sharedContext(t, name).Deploy(testGuarantee())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		blob, err := d.Export()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		h := fnv.New64a()
		h.Write(blob) //nolint:errcheck // hash.Hash never errors
		fmt.Fprintf(&buf, "%s fnv1a:%016x\n", name, h.Sum64())
	}
	return buf.Bytes()
}
