package nn

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"

	"mithra/internal/mathx"
)

// Approximator wraps a Network with input/output normalization, forming a
// complete trained function approximator: exactly what an NPU
// configuration is — topology + weights + the scaling needed to map
// application values into the network's operating range.
type Approximator struct {
	Net      *Network
	InScale  *Scaler
	OutScale *Scaler
}

// FitApproximator trains a regression MLP with the given topology on
// (in, out) pairs drawn from the target function. The scalers are fitted
// to the training data.
func FitApproximator(topology []int, samples []Sample, cfg TrainConfig, seed uint64) (*Approximator, TrainResult) {
	if len(samples) == 0 {
		panic("nn: FitApproximator with no samples")
	}
	ins := make([][]float64, len(samples))
	outs := make([][]float64, len(samples))
	for i, s := range samples {
		ins[i] = s.In
		outs[i] = s.Out
	}
	a := &Approximator{
		Net:      New(topology, Regression(len(topology)-1), mathx.NewRNG(seed)),
		InScale:  FitScaler(ins),
		OutScale: FitScaler(outs),
	}
	scaled := make([]Sample, len(samples))
	for i, s := range samples {
		scaled[i] = Sample{
			In:  a.InScale.Apply(s.In, make([]float64, len(s.In))),
			Out: a.OutScale.Apply(s.Out, make([]float64, len(s.Out))),
		}
	}
	res := a.Net.Train(scaled, cfg)
	return a, res
}

// EvalScratch holds the buffers for allocation-free Approximator calls.
type EvalScratch struct {
	in  []float64
	out []float64
	net *Scratch
}

// NewEvalScratch allocates evaluation buffers for a.
func (a *Approximator) NewEvalScratch() *EvalScratch {
	return &EvalScratch{
		in:  make([]float64, a.Net.Sizes[0]),
		out: make([]float64, a.Net.Sizes[len(a.Net.Sizes)-1]),
		net: a.Net.NewScratch(),
	}
}

// Eval runs the approximator, writing the (denormalized) result into dst
// and returning it. dst must have the output dimension.
func (a *Approximator) Eval(in, dst []float64, s *EvalScratch) []float64 {
	a.InScale.Apply(in, s.in)
	raw := a.Net.ForwardScratch(s.in, s.net)
	return a.OutScale.Invert(raw, dst)
}

// EvalAlloc is the allocating convenience form of Eval.
func (a *Approximator) EvalAlloc(in []float64) []float64 {
	s := a.NewEvalScratch()
	dst := make([]float64, a.Net.Sizes[len(a.Net.Sizes)-1])
	return a.Eval(in, dst, s)
}

// gobApproximator is the serialized wire form.
type gobApproximator struct {
	Sizes    []int
	Acts     []Activation
	W        [][][]float64
	B        [][]float64
	InScale  Scaler
	OutScale Scaler
}

// gob numbers types process-wide in first-use order and writes the
// numbers into every stream, so an encoding's bytes would depend on what
// the process encoded before it. Each package whose encoding a compiled
// program embeds describes its wire types at init, in the order
// core.Deployment.Export encodes them (nn, then classifier, then core:
// the import order inits run in), so every process numbers them alike.
func init() {
	if err := gob.NewEncoder(io.Discard).Encode(gobApproximator{}); err != nil {
		panic(err)
	}
}

// Encode serializes the approximator (the "accelerator configuration" the
// compiler encodes into the program binary in the paper's workflow).
func (a *Approximator) Encode() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(gobApproximator{
		Sizes:    a.Net.Sizes,
		Acts:     a.Net.Acts,
		W:        a.Net.W,
		B:        a.Net.B,
		InScale:  *a.InScale,
		OutScale: *a.OutScale,
	})
	if err != nil {
		return nil, fmt.Errorf("nn: encode approximator: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeApproximator reverses Encode.
func DecodeApproximator(data []byte) (*Approximator, error) {
	var g gobApproximator
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&g); err != nil {
		return nil, fmt.Errorf("nn: decode approximator: %w", err)
	}
	net := &Network{Sizes: g.Sizes, Acts: g.Acts, W: g.W, B: g.B}
	if err := net.Validate(); err != nil {
		return nil, fmt.Errorf("nn: decode approximator: %w", err)
	}
	in, out := g.Sizes[0], g.Sizes[len(g.Sizes)-1]
	if len(g.InScale.Min) != in || len(g.InScale.Max) != in ||
		len(g.OutScale.Min) != out || len(g.OutScale.Max) != out {
		return nil, fmt.Errorf("nn: decode approximator: scaler widths %d/%d in, %d/%d out for a %s network",
			len(g.InScale.Min), len(g.InScale.Max), len(g.OutScale.Min), len(g.OutScale.Max), net.TopologyString())
	}
	inScale, outScale := g.InScale, g.OutScale
	return &Approximator{Net: net, InScale: &inScale, OutScale: &outScale}, nil
}
