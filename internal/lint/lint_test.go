package lint

import (
	"path/filepath"
	"testing"
)

// Each fixture demonstrates at least one true positive (the diagnostic
// fires on a bad pattern) and one true negative (the blessed pattern stays
// clean); see the fixture files for the catalogue.

func TestNondeterminismFixtures(t *testing.T) {
	// "core" ends in a scoped package name; "outside" proves the scope
	// boundary (same calls, no findings).
	runFixture(t, "core", NondeterminismAnalyzer)
	runFixture(t, "outside", NondeterminismAnalyzer)
}

func TestMapOrderFixtures(t *testing.T) {
	runFixture(t, "maporder", MapOrderAnalyzer)
}

func TestParallelCaptureFixtures(t *testing.T) {
	runFixture(t, "parallelcapture", ParallelCaptureAnalyzer)
}

func TestFloatReduceFixtures(t *testing.T) {
	runFixture(t, "floatreduce", FloatReduceAnalyzer)
}

func TestIgnoreDirectives(t *testing.T) {
	// Suppression is driver-level, so any analyzer exercises it; maporder
	// has the most convenient single-line findings.
	runFixture(t, "ignore", MapOrderAnalyzer)
}

func TestHotpathAllocFixtures(t *testing.T) {
	runFixture(t, "hotpath", HotpathAllocAnalyzer)
}

func TestDurableWriteFixtures(t *testing.T) {
	runFixture(t, filepath.Join("durable", "fault"), DurableWriteAnalyzer)
}

func TestAtomicSwapFixtures(t *testing.T) {
	runFixture(t, filepath.Join("atomics", "serve"), AtomicSwapAnalyzer)
}

// TestRepoIsClean runs the full suite over the module itself: the tree
// must stay free of determinism findings, and every package must
// type-check. This is the same gate CI applies via cmd/mithralint.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("Load found no packages")
	}
	for _, p := range pkgs {
		for _, e := range p.TypeErrors {
			t.Errorf("%s: type error: %v", p.Path, e)
		}
	}
	diags, err := Run(pkgs, Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("finding on the tree: %s", d)
	}
}
