package core

import (
	"bytes"
	"encoding/gob"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"mithra/internal/axbench"
)

var update = flag.Bool("update", false, "rewrite golden files with the current output")

// goldenDigests is the pinned Export digest of every registered
// benchmark at TestOptions.
var goldenDigests = filepath.Join("testdata", "export_digests.golden")

// TestExportDigestsGolden pins the compiled artifact of every registered
// benchmark at TestOptions: one fnv-1a digest of Deployment.Export per
// benchmark. A change meant to be bit-identical (a faster search, a
// cheaper replay) must leave this file untouched; an intentional
// re-baseline rewrites it with 'go test -update' and says so.
func TestExportDigestsGolden(t *testing.T) {
	got := exportDigests(t)
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenDigests), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenDigests, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	checkGoldenDigests(t, got)
}

// TestExportIgnoresGobHistory checks that an export's bytes are a
// function of the deployment alone. gob numbers types process-wide in
// first-use order and writes those numbers into every stream, so a
// process that gob-encoded other types first would export different
// bytes unless the wire types are numbered before anything else runs.
func TestExportIgnoresGobHistory(t *testing.T) {
	type unrelated struct {
		Name   string
		Counts map[string][]int64
		Scale  [][]float32
	}
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode(unrelated{Name: "x", Counts: map[string][]int64{"a": {1}}, Scale: [][]float32{{2}}}); err != nil {
		t.Fatal(err)
	}
	d, err := sharedContext(t, "fft").Deploy(testGuarantee())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Neural.Encode(); err != nil {
		t.Fatal(err)
	}
	checkGoldenDigests(t, exportDigests(t))
}

// checkGoldenDigests compares digests against the committed golden file.
func checkGoldenDigests(t *testing.T, got []byte) {
	t.Helper()
	want, err := os.ReadFile(goldenDigests)
	if err != nil {
		t.Fatalf("%v (run 'go test -update' to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("export digests differ from %s (run 'go test -update' only for an intentional re-baseline):\n--- got ---\n%s--- want ---\n%s",
			goldenDigests, got, want)
	}
}

// exportDigests deploys every registered benchmark at TestOptions and
// returns one "name fnv1a:digest" line per benchmark, sorted by name.
func exportDigests(t *testing.T) []byte {
	t.Helper()
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
