package trace

import (
	"math"
	"testing"

	"mithra/internal/axbench"
	"mithra/internal/mathx"
)

// allBenchmarks is every registered benchmark, extensions included.
func allBenchmarks(t *testing.T) []axbench.Benchmark {
	t.Helper()
	var out []axbench.Benchmark
	for _, name := range append(axbench.Names(), axbench.Extensions()...) {
		b, err := axbench.New(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

// TestSelectionReplayMatchesApplicationReplay checks, for every separable
// benchmark at test scale, that Replay's per-element selection equals a
// replay through the application bit for bit on random decision vectors
// of several densities. fft must stay on the application replay.
func TestSelectionReplayMatchesApplicationReplay(t *testing.T) {
	for _, b := range allBenchmarks(t) {
		t.Run(b.Name(), func(t *testing.T) {
			_, separable := b.(axbench.Separable)
			if separable == (b.Name() == "fft") {
				t.Fatalf("separable = %v", separable)
			}
			acc := testAccel(t, b)
			in := b.GenInput(mathx.NewRNG(40), axbench.TestScale())
			tr := Capture(b, in, acc, Options{})
			if (tr.owners != nil) != separable {
				t.Fatalf("owners set = %v, separable = %v", tr.owners != nil, separable)
			}
			rng := mathx.NewRNG(41)
			for _, pPrecise := range []float64{0, 0.1, 0.5, 0.9, 1} {
				dec := make([]bool, tr.N)
				for i := range dec {
					dec[i] = rng.Bool(pPrecise)
				}
				decide := func(i int) bool { return dec[i] }
				got := tr.Replay(b, in, nil, decide)
				want := tr.runReplay(b, in, nil, decide)
				if len(got) != len(want) {
					t.Fatalf("p=%v: %d outputs, application replay %d", pPrecise, len(got), len(want))
				}
				for e := range want {
					if math.Float64bits(got[e]) != math.Float64bits(want[e]) {
						t.Fatalf("p=%v: output %d is %v, application replay %v", pPrecise, e, got[e], want[e])
					}
				}
			}
		})
	}
}

// TestReplayCallsDecideOncePerInvocationInOrder pins the call order both
// replay paths give decide: 0, 1, ..., N-1, once each. Stateful deciders
// (the random design draws one RNG value per call) depend on it.
func TestReplayCallsDecideOncePerInvocationInOrder(t *testing.T) {
	for _, b := range allBenchmarks(t) {
		t.Run(b.Name(), func(t *testing.T) {
			acc := testAccel(t, b)
			in := b.GenInput(mathx.NewRNG(42), axbench.TestScale())
			tr := Capture(b, in, acc, Options{})
			var calls []int
			dst := make([]bool, tr.N)
			tr.Replay(b, in, dst, func(i int) bool {
				calls = append(calls, i)
				return i%3 == 0
			})
			if len(calls) != tr.N {
				t.Fatalf("decide called %d times for %d invocations", len(calls), tr.N)
			}
			for k, i := range calls {
				if i != k {
					t.Fatalf("call %d asked for invocation %d", k, i)
				}
				if dst[i] != (i%3 == 0) {
					t.Fatalf("dst[%d] = %v", i, dst[i])
				}
			}
		})
	}
}

// misowned declares a separable benchmark's owners shifted by one
// invocation.
type misowned struct {
	axbench.Benchmark
}

func (m misowned) Owners(in axbench.Input) []int {
	o := append([]int(nil), m.Benchmark.(axbench.Separable).Owners(in)...)
	n := in.Invocations()
	for e := range o {
		o[e] = (o[e] + 1) % n
	}
	return o
}

// TestCaptureRejectsWrongOwners checks that Capture's mixed-vector check
// refuses an owner declaration that does not match the application, and
// that compact traces never select.
func TestCaptureRejectsWrongOwners(t *testing.T) {
	b, _ := axbench.New("jpeg")
	acc := testAccel(t, b)
	in := b.GenInput(mathx.NewRNG(43), axbench.TestScale())
	if tr := Capture(b, in, acc, Options{Compact: true}); tr.owners != nil {
		t.Error("a compact trace selects instead of replaying the application")
	}
	defer func() {
		if recover() == nil {
			t.Error("Capture accepted owners that do not match the application")
		}
	}()
	Capture(misowned{b}, in, acc, Options{})
}
