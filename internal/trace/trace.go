// Package trace captures the per-invocation behaviour of a benchmark
// running against an approximate accelerator, and replays the application
// under arbitrary accelerate/fallback decision vectors without re-running
// either the precise kernel or the accelerator.
//
// This is the engine room of Algorithm 1: the statistical optimizer needs
// the final output quality at many candidate thresholds, and the paper's
// benchmarks all have data-parallel kernels (an invocation's outputs never
// feed a later invocation's inputs), so one capture per dataset suffices.
// Every later threshold probe is a replay that evaluates neither the
// kernel nor the accelerator: for a separable application
// (axbench.Separable) it selects each final-output element from the
// recorded all-precise or all-approximate output, and otherwise it feeds
// the recorded kernel outputs through the application's post-processing.
package trace

import (
	"fmt"
	"math"

	"mithra/internal/axbench"
	"mithra/internal/npu"
)

// Trace records one dataset's invocations: the precise and approximate
// kernel outputs, the per-invocation accelerator error, and optionally the
// kernel inputs (needed only when generating classifier training data).
type Trace struct {
	N      int // number of invocations
	InDim  int
	OutDim int

	// Precise and Approx hold N*OutDim values each, invocation-major
	// (nil when the trace was captured compact).
	Precise []float64
	Approx  []float64
	// Compact storage (float32) used for paper-scale captures, where the
	// full-precision arrays would dominate memory. At most one of the two
	// representations is populated.
	Precise32 []float32
	Approx32  []float32
	// MaxErr[i] is the max elementwise |precise - approx| of invocation i
	// — the quantity the paper's Equation 1 thresholds.
	MaxErr []float64
	// Inputs holds N*InDim values when captured with inputs, else nil
	// (Inputs32 when compact).
	Inputs   []float64
	Inputs32 []float32

	// PreciseOut and ApproxOut are the application's final outputs when
	// every invocation runs precisely / on the accelerator.
	PreciseOut []float64
	ApproxOut  []float64

	// owners[e] is the invocation final-output element e is computed from,
	// when the benchmark is separable and the trace full-precision (nil
	// otherwise); Capture checks it before setting it.
	owners []int
}

// Compact reports whether the trace uses float32 storage.
func (t *Trace) Compact() bool { return t.Precise32 != nil || t.Approx32 != nil }

// Options controls what Capture records.
type Options struct {
	// KeepInputs stores the kernel input vectors (used for classifier
	// training data generation; costs N*InDim floats).
	KeepInputs bool
	// Compact stores recorded vectors as float32, halving trace memory.
	// The ~1e-7 relative rounding is far below the accelerator errors
	// being measured; paper-scale runs (512x512 images, 250+250 datasets)
	// need this to stay in RAM.
	Compact bool
}

// Capture runs the application once, evaluating both the precise kernel
// and the accelerator for every invocation, and assembles the trace.
func Capture(b axbench.Benchmark, in axbench.Input, acc *npu.Accelerator, opts Options) *Trace {
	n := in.Invocations()
	inDim, outDim := b.InputDim(), b.OutputDim()
	t := &Trace{
		N:      n,
		InDim:  inDim,
		OutDim: outDim,
		MaxErr: make([]float64, n),
	}
	if opts.Compact {
		t.Precise32 = make([]float32, n*outDim)
		t.Approx32 = make([]float32, n*outDim)
		if opts.KeepInputs {
			t.Inputs32 = make([]float32, n*inDim)
		}
	} else {
		t.Precise = make([]float64, n*outDim)
		t.Approx = make([]float64, n*outDim)
		if opts.KeepInputs {
			t.Inputs = make([]float64, n*inDim)
		}
	}

	scratch := acc.NewScratch()
	pBuf := make([]float64, outDim)
	aBuf := make([]float64, outDim)
	idx := 0
	recorder := func(kin, kout []float64) {
		if idx >= n {
			panic(fmt.Sprintf("trace: benchmark %s made more invocations (%d) than Invocations() reported (%d)",
				b.Name(), idx+1, n))
		}
		b.Precise(kin, pBuf)
		acc.Invoke(kin, aBuf, scratch)
		maxe := 0.0
		for i := range pBuf {
			d := pBuf[i] - aBuf[i]
			if d < 0 {
				d = -d
			}
			if d > maxe {
				maxe = d
			}
		}
		t.MaxErr[idx] = maxe
		t.storeOut(idx, pBuf, aBuf)
		if opts.KeepInputs {
			t.storeIn(idx, kin)
		}
		copy(kout, aBuf)
		idx++
	}
	t.ApproxOut = b.Run(in, recorder)
	if idx != n {
		panic(fmt.Sprintf("trace: benchmark %s made %d invocations, Invocations() reported %d",
			b.Name(), idx, n))
	}
	t.PreciseOut = t.runReplay(b, in, nil, allPrecise)
	// Compact traces keep the application replay: their ApproxOut comes
	// from the unrounded accelerator outputs, so a selection would differ
	// from a replay of the float32 records in the last bits.
	if s, ok := b.(axbench.Separable); ok && !opts.Compact {
		t.owners = s.Owners(in)
		t.checkSelection(b, in)
	}
	return t
}

// checkSelection replays one mixed decision vector (odd invocations
// precise) both ways and panics unless the selection equals the
// application replay bit for bit, so a wrong owner declaration cannot
// pass silently at any scale.
func (t *Trace) checkSelection(b axbench.Benchmark, in axbench.Input) {
	if len(t.owners) != len(t.PreciseOut) || len(t.ApproxOut) != len(t.PreciseOut) {
		panic(fmt.Sprintf("trace: benchmark %s declares %d output owners for %d outputs",
			b.Name(), len(t.owners), len(t.PreciseOut)))
	}
	for e, o := range t.owners {
		if o < 0 || o >= t.N {
			panic(fmt.Sprintf("trace: benchmark %s: output %d owned by invocation %d of %d",
				b.Name(), e, o, t.N))
		}
	}
	mixed := func(i int) bool { return i%2 == 1 }
	want := t.runReplay(b, in, nil, mixed)
	got := t.selectReplay(nil, mixed)
	for e := range want {
		if math.Float64bits(got[e]) != math.Float64bits(want[e]) {
			panic(fmt.Sprintf("trace: benchmark %s: selection replay of output %d is %v, application replay %v",
				b.Name(), e, got[e], want[e]))
		}
	}
}

// Decision chooses how invocation i executes during a replay. Returning
// true means fall back to the precise kernel (the classifier "filtered
// out" the invocation); false means use the accelerator.
type Decision func(i int) bool

func allPrecise(int) bool { return true }

// AllApprox is the always-invoke decision (the conventional approximate
// acceleration the paper improves on).
func AllApprox(int) bool { return false }

// ThresholdOracle returns the ideal decision for threshold th: fall back
// exactly when the recorded accelerator error exceeds th (the paper's
// oracle design).
func (t *Trace) ThresholdOracle(th float64) Decision {
	return func(i int) bool { return t.MaxErr[i] > th }
}

// Replay returns the application's final output when each invocation
// runs precisely or on the accelerator according to decide (nil means
// all-precise). It calls decide(0), ..., decide(N-1) exactly once each, in
// order, and evaluates neither the kernel nor the accelerator. A
// separable benchmark's full-precision trace selects each output element
// from PreciseOut or ApproxOut by its owning invocation's decision;
// otherwise the application re-runs with each invocation fed its recorded
// precise or approximate output.
//
// The optional dst slice receives the per-invocation decisions when
// non-nil (it must have length N); sim uses this to cost the run.
func (t *Trace) Replay(b axbench.Benchmark, in axbench.Input, dst []bool, decide Decision) []float64 {
	if decide == nil {
		decide = allPrecise
	}
	if dst != nil && len(dst) != t.N {
		panic(fmt.Sprintf("trace: decision dst length %d, want %d", len(dst), t.N))
	}
	if t.owners != nil {
		return t.selectReplay(dst, decide)
	}
	return t.runReplay(b, in, dst, decide)
}

// selectReplay is Replay for a separable benchmark: out[e] is
// PreciseOut[e] when e's owning invocation runs precisely, else
// ApproxOut[e].
func (t *Trace) selectReplay(dst []bool, decide Decision) []float64 {
	if dst == nil {
		dst = make([]bool, t.N)
	}
	for i := range dst {
		dst[i] = decide(i)
	}
	out := make([]float64, len(t.owners))
	for e, o := range t.owners {
		if dst[o] {
			out[e] = t.PreciseOut[e]
		} else {
			out[e] = t.ApproxOut[e]
		}
	}
	return out
}

// runReplay is Replay through the application: each invocation's recorded
// output is copied into the kernel's output slot.
func (t *Trace) runReplay(b axbench.Benchmark, in axbench.Input, dst []bool, decide Decision) []float64 {
	idx := 0
	replayer := func(kin, kout []float64) {
		if idx >= t.N {
			panic("trace: replay exceeded recorded invocations")
		}
		precise := decide(idx)
		if dst != nil {
			dst[idx] = precise
		}
		t.loadOut(idx, precise, kout)
		idx++
	}
	out := b.Run(in, replayer)
	if idx != t.N {
		panic("trace: replay made fewer invocations than recorded")
	}
	return out
}

// storeOut records one invocation's precise and approximate outputs.
func (t *Trace) storeOut(idx int, p, a []float64) {
	off := idx * t.OutDim
	if t.Compact() {
		for i := range p {
			t.Precise32[off+i] = float32(p[i])
			t.Approx32[off+i] = float32(a[i])
		}
		return
	}
	copy(t.Precise[off:off+t.OutDim], p)
	copy(t.Approx[off:off+t.OutDim], a)
}

// loadOut writes invocation idx's recorded output (precise or approximate)
// into kout.
func (t *Trace) loadOut(idx int, precise bool, kout []float64) {
	off := idx * t.OutDim
	if t.Compact() {
		src := t.Approx32
		if precise {
			src = t.Precise32
		}
		for i := range kout {
			kout[i] = float64(src[off+i])
		}
		return
	}
	src := t.Approx
	if precise {
		src = t.Precise
	}
	copy(kout, src[off:off+t.OutDim])
}

// storeIn records one invocation's kernel inputs.
func (t *Trace) storeIn(idx int, kin []float64) {
	off := idx * t.InDim
	if t.Inputs32 != nil {
		for i, v := range kin {
			t.Inputs32[off+i] = float32(v)
		}
		return
	}
	copy(t.Inputs[off:off+t.InDim], kin)
}

// QualityAt returns the final-output quality loss when replaying under
// decide.
func (t *Trace) QualityAt(b axbench.Benchmark, in axbench.Input, decide Decision) float64 {
	out := t.Replay(b, in, nil, decide)
	return b.Metric().Loss(t.PreciseOut, out)
}

// InvocationRate returns the fraction of invocations decide sends to the
// accelerator.
func (t *Trace) InvocationRate(decide Decision) float64 {
	if t.N == 0 {
		return 0
	}
	acc := 0
	for i := 0; i < t.N; i++ {
		if !decide(i) {
			acc++
		}
	}
	return float64(acc) / float64(t.N)
}

// Input returns invocation i's recorded kernel input vector. It panics if
// inputs were not captured. For compact traces the vector is materialized
// into a fresh slice; hot paths should use InputInto with a reused buffer.
func (t *Trace) Input(i int) []float64 {
	if t.Inputs == nil && t.Inputs32 == nil {
		panic("trace: inputs were not captured (set Options.KeepInputs)")
	}
	if t.Inputs32 != nil {
		return t.InputInto(i, make([]float64, t.InDim))
	}
	return t.Inputs[i*t.InDim : (i+1)*t.InDim]
}

// CollectInputs materializes every captured invocation input as its own
// slice, in invocation order — the shape serving clients (mithra
// loadgen, the serve tests) feed over the wire. This is sound because
// the paper's benchmarks are data-parallel (an invocation's outputs
// never feed a later invocation's inputs), so the input sequence is
// fixed at capture time and independent of any decisions taken later.
func (t *Trace) CollectInputs() [][]float64 {
	out := make([][]float64, t.N)
	for i := range out {
		out[i] = t.InputInto(i, make([]float64, t.InDim))
	}
	return out
}

// InputInto writes invocation i's recorded inputs into buf (length
// >= InDim) and returns buf[:InDim].
func (t *Trace) InputInto(i int, buf []float64) []float64 {
	buf = buf[:t.InDim]
	off := i * t.InDim
	if t.Inputs32 != nil {
		for j := range buf {
			buf[j] = float64(t.Inputs32[off+j])
		}
		return buf
	}
	if t.Inputs == nil {
		panic("trace: inputs were not captured (set Options.KeepInputs)")
	}
	copy(buf, t.Inputs[off:off+t.InDim])
	return buf
}

// FullQuality returns the quality loss of always invoking the accelerator
// — the paper's "error with full approximation" column of Table I.
func (t *Trace) FullQuality(b axbench.Benchmark) float64 {
	return b.Metric().Loss(t.PreciseOut, t.ApproxOut)
}

// ElementErrors returns the per-element final-output errors under full
// approximation — the sample behind the paper's Figure 1 CDFs.
func (t *Trace) ElementErrors(b axbench.Benchmark) []float64 {
	m := b.Metric()
	errs := make([]float64, len(t.PreciseOut))
	for i := range errs {
		errs[i] = m.ElementError(t.PreciseOut[i], t.ApproxOut[i])
	}
	return errs
}
