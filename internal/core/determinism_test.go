package core

import (
	"bytes"
	"reflect"
	"testing"

	"mithra/internal/axbench"
)

// allDesigns is every evaluation path, including the software-classifier
// cost models.
var allDesigns = []Design{DesignNone, DesignOracle, DesignTable,
	DesignNeural, DesignRandom, DesignTableSW, DesignNeuralSW}

// TestParallelMatchesSerial is the parallel engine's central invariant:
// for every benchmark, deploying and evaluating with the worker pool
// produces results bit-identical to the serial path — same tuned
// threshold, same selected classifier configurations (down to the raw
// table bytes), and reflect.DeepEqual-identical EvalResults for every
// design.
func TestParallelMatchesSerial(t *testing.T) {
	for _, name := range axbench.Names() {
		t.Run(name, func(t *testing.T) {
			ctx := sharedContext(t, name)
			// Context fields are shared read-only between the two copies;
			// only the worker-count knob differs.
			serialCtx, parCtx := *ctx, *ctx
			serialCtx.Opts.Parallelism = 1
			parCtx.Opts.Parallelism = 4

			g := testGuarantee()
			ds, err := serialCtx.Deploy(g)
			if err != nil {
				t.Fatal(err)
			}
			dp, err := parCtx.Deploy(g)
			if err != nil {
				t.Fatal(err)
			}

			if !reflect.DeepEqual(ds.Th, dp.Th) {
				t.Errorf("thresholds differ:\nserial   %+v\nparallel %+v", ds.Th, dp.Th)
			}
			if ds.TableGuard != dp.TableGuard {
				t.Errorf("table guard bands differ: %v vs %v", ds.TableGuard, dp.TableGuard)
			}
			if ds.Table.Config() != dp.Table.Config() {
				t.Errorf("tuned table configs differ: %+v vs %+v", ds.Table.Config(), dp.Table.Config())
			}
			if !bytes.Equal(ds.Table.RawBytes(), dp.Table.RawBytes()) {
				t.Error("trained table contents differ")
			}
			if !reflect.DeepEqual(ds.Neural.Topology(), dp.Neural.Topology()) {
				t.Errorf("neural topologies differ: %v vs %v", ds.Neural.Topology(), dp.Neural.Topology())
			}
			if ds.Neural.Bias() != dp.Neural.Bias() {
				t.Errorf("neural biases differ: %v vs %v", ds.Neural.Bias(), dp.Neural.Bias())
			}
			if ds.RandomRate != dp.RandomRate {
				t.Errorf("random rates differ: %v vs %v", ds.RandomRate, dp.RandomRate)
			}
			// Topology and bias alone would pass a sweep that picked the
			// same size with different weights: compare the encoded
			// network and the whole exported program too.
			for _, enc := range []struct {
				what string
				f    func(*Deployment) ([]byte, error)
			}{
				{"neural classifier encodings", func(d *Deployment) ([]byte, error) { return d.Neural.Encode() }},
				{"exported programs", (*Deployment).Export},
			} {
				bs, err := enc.f(ds)
				if err != nil {
					t.Fatal(err)
				}
				bp, err := enc.f(dp)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(bs, bp) {
					t.Errorf("%s differ", enc.what)
				}
			}

			for _, design := range allDesigns {
				rs := ds.EvaluateValidation(design)
				rp := dp.EvaluateValidation(design)
				if !reflect.DeepEqual(rs, rp) {
					t.Errorf("%v: results differ:\nserial   %+v\nparallel %+v", design, rs, rp)
				}
			}
		})
	}
}

// TestCaptureParallelismInvariant checks the front of the pipeline: trace
// capture with the worker pool produces datasets bit-identical to a
// serial build (per-index RNG stream labels make each capture a pure
// function of its index).
func TestCaptureParallelismInvariant(t *testing.T) {
	b, err := axbench.New("fft")
	if err != nil {
		t.Fatal(err)
	}
	opts := TestOptions()
	opts.Parallelism = 1
	serial, err := NewContext(b, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Parallelism = 4
	par, err := NewContext(b, opts)
	if err != nil {
		t.Fatal(err)
	}

	if serial.FullQuality != par.FullQuality {
		t.Errorf("full quality differs: %v vs %v", serial.FullQuality, par.FullQuality)
	}
	compare := func(kind string, a, b []struct {
		maxErr, preciseOut []float64
	}) {
		for i := range a {
			if !reflect.DeepEqual(a[i].maxErr, b[i].maxErr) {
				t.Fatalf("%s dataset %d: MaxErr differs", kind, i)
			}
			if !reflect.DeepEqual(a[i].preciseOut, b[i].preciseOut) {
				t.Fatalf("%s dataset %d: PreciseOut differs", kind, i)
			}
		}
	}
	flat := func(ctx *Context, validate bool) []struct {
		maxErr, preciseOut []float64
	} {
		src := ctx.Compile
		if validate {
			src = ctx.Validate
		}
		out := make([]struct {
			maxErr, preciseOut []float64
		}, len(src))
		for i, d := range src {
			out[i].maxErr = d.Tr.MaxErr
			out[i].preciseOut = d.Tr.PreciseOut
		}
		return out
	}
	compare("compile", flat(serial, false), flat(par, false))
	compare("validate", flat(serial, true), flat(par, true))
}
