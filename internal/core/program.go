package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"

	"mithra/internal/axbench"
	"mithra/internal/classifier"
	"mithra/internal/nn"
	"mithra/internal/npu"
	"mithra/internal/sim"
	"mithra/internal/stats"
	"mithra/internal/watch"
)

// CompiledProgram is the serialized product of MITHRA's compilation — the
// counterpart of what the paper's compiler encodes into the program
// binary: the NPU configuration, the tuned threshold and its statistical
// evidence, and the pre-trained classifier state.
type CompiledProgram struct {
	BenchName  string
	Guarantee  stats.Guarantee
	Threshold  float64
	LowerBound float64
	NPU        []byte
	Table      []byte
	Neural     []byte
	RandomRate float64
	// RefBounds/RefCounts carry the compile-time reference input histogram
	// (watch.Reference) the serving layer's divergence gauges compare live
	// traffic against. Empty in blobs from older compilers — gob tolerates
	// the missing fields and drift gauges simply stay disabled.
	RefBounds []float64
	RefCounts []int64
}

// init numbers CompiledProgram's wire type after the nn and classifier
// ones it embeds the encodings of; see nn's init.
func init() {
	if err := gob.NewEncoder(io.Discard).Encode(CompiledProgram{}); err != nil {
		panic(err)
	}
}

// Export serializes the deployment for later loading.
func (d *Deployment) Export() ([]byte, error) {
	npuBytes, err := d.Ctx.Accel.Approximator().Encode()
	if err != nil {
		return nil, err
	}
	tabBytes, err := d.Table.Encode()
	if err != nil {
		return nil, err
	}
	neuBytes, err := d.Neural.Encode()
	if err != nil {
		return nil, err
	}
	cp := CompiledProgram{
		BenchName:  d.Ctx.Bench.Name(),
		Guarantee:  d.G,
		Threshold:  d.Th.Threshold,
		LowerBound: d.Th.LowerBound,
		NPU:        npuBytes,
		Table:      tabBytes,
		Neural:     neuBytes,
		RandomRate: d.RandomRate,
	}
	// The classifier's training inputs are the distribution the guarantee
	// was certified against — bin them into the blob so the serving layer
	// can gauge input drift without re-reading training data.
	if len(d.samples) > 0 {
		ins := make([][]float64, len(d.samples))
		for i, s := range d.samples {
			ins[i] = s.In
		}
		ref := watch.BuildReference(nil, ins)
		cp.RefBounds = ref.Bounds
		cp.RefCounts = ref.Counts
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(cp); err != nil {
		return nil, fmt.Errorf("core: export deployment: %w", err)
	}
	return buf.Bytes(), nil
}

// Program is a loaded, runnable MITHRA deployment: it executes the real
// application with per-invocation quality control, no captured traces
// required. This is the runtime the paper's Figure 2 depicts — classifier
// between core and accelerator.
type Program struct {
	Bench     axbench.Benchmark
	Accel     *npu.Accelerator
	Table     *classifier.Table
	Neural    *classifier.Neural
	Threshold float64
	G         stats.Guarantee
	// RefBounds/RefCounts are the compile-time reference input histogram
	// (empty for blobs from compilers that predate drift gauges).
	RefBounds []float64
	RefCounts []int64
}

// LoadProgram deserializes a CompiledProgram and reconstructs the runtime.
func LoadProgram(data []byte) (*Program, error) {
	var cp CompiledProgram
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&cp); err != nil {
		return nil, fmt.Errorf("core: load program: %w", err)
	}
	b, err := axbench.New(cp.BenchName)
	if err != nil {
		return nil, err
	}
	approx, err := nn.DecodeApproximator(cp.NPU)
	if err != nil {
		return nil, err
	}
	tab, err := classifier.DecodeTable(cp.Table)
	if err != nil {
		return nil, err
	}
	neu, err := classifier.DecodeNeural(cp.Neural)
	if err != nil {
		return nil, err
	}
	return &Program{
		Bench:     b,
		Accel:     npu.New(approx),
		Table:     tab,
		Neural:    neu,
		Threshold: cp.Threshold,
		G:         cp.Guarantee,
		RefBounds: cp.RefBounds,
		RefCounts: cp.RefCounts,
	}, nil
}

// RunStats reports one quality-controlled execution.
type RunStats struct {
	Invocations    int
	Fallbacks      int
	InvocationRate float64
	// QualityLoss compares against a precise run of the same input.
	QualityLoss float64
	// MetGuarantee reports whether this run stayed within the target.
	MetGuarantee bool
	// Speedup and EnergyReduction come from the calibrated model.
	Speedup         float64
	EnergyReduction float64
}

// Run executes the application on in with the selected design gating each
// invocation, computes the real final output, and measures its quality
// loss against a precise execution.
func (p *Program) Run(in axbench.Input, design Design) ([]float64, RunStats, error) {
	var cls classifier.Classifier
	switch design {
	case DesignTable:
		cls = p.Table
	case DesignNeural:
		cls = p.Neural
	case DesignNone:
		cls = nil
	default:
		return nil, RunStats{}, fmt.Errorf("core: design %v is not runnable without traces (oracle/random need recorded errors)", design)
	}

	scratch := p.Accel.NewScratch()
	fallbacks := 0
	invoker := func(kin, kout []float64) {
		if cls != nil && cls.Classify(kin) {
			fallbacks++
			p.Bench.Precise(kin, kout)
			return
		}
		p.Accel.Invoke(kin, kout, scratch)
	}
	out := p.Bench.Run(in, invoker)
	precise := p.Bench.Run(in, axbench.PreciseInvoker(p.Bench))
	loss := p.Bench.Metric().Loss(precise, out)

	n := in.Invocations()
	cfg := sim.Config{
		Profile:     p.Bench.Profile(),
		NPUCycles:   float64(p.Accel.CyclesPerInvocation()),
		NPUEnergyPJ: p.Accel.EnergyPerInvocation(),
	}
	if cls != nil {
		ov := cls.Overhead()
		cfg.ClassifierCycles = float64(ov.Cycles)
		cfg.ClassifierEnergyPJ = ov.EnergyPJ
	}
	rep := cfg.Evaluate(n, fallbacks)

	return out, RunStats{
		Invocations:     n,
		Fallbacks:       fallbacks,
		InvocationRate:  rep.InvocationRate,
		QualityLoss:     loss,
		MetGuarantee:    loss <= p.G.QualityLoss,
		Speedup:         rep.Speedup,
		EnergyReduction: rep.EnergyReduction,
	}, nil
}
