// Package nn implements multi-layer perceptrons from scratch: forward
// evaluation, stochastic-gradient backpropagation with momentum, input and
// output normalization, and serialization.
//
// It is the shared substrate for two of the paper's components: the NPU
// approximate accelerator (an MLP trained to mimic a safe-to-approximate
// function, Esmaeilzadeh et al.'s topology per benchmark) and MITHRA's
// neural classifier (a 3-layer MLP with two output neurons deciding
// accelerator vs. precise execution).
package nn

import (
	"fmt"
	"math"

	"mithra/internal/mathx"
)

// Activation selects a neuron transfer function.
type Activation int

// Supported activations. Sigmoid matches the NPU hardware's lookup-table
// sigmoid; Linear is used on regression output layers.
const (
	Sigmoid Activation = iota
	Tanh
	Linear
	ReLU
)

func (a Activation) String() string {
	switch a {
	case Sigmoid:
		return "sigmoid"
	case Tanh:
		return "tanh"
	case Linear:
		return "linear"
	case ReLU:
		return "relu"
	}
	return fmt.Sprintf("Activation(%d)", int(a))
}

func (a Activation) apply(x float64) float64 {
	switch a {
	case Sigmoid:
		return 1 / (1 + math.Exp(-x))
	case Tanh:
		return math.Tanh(x)
	case ReLU:
		if x < 0 {
			return 0
		}
		return x
	default:
		return x
	}
}

// derivFromOutput returns f'(x) expressed in terms of y = f(x), which is
// available during backprop without re-evaluating the pre-activation.
func (a Activation) derivFromOutput(y float64) float64 {
	switch a {
	case Sigmoid:
		return y * (1 - y)
	case Tanh:
		return 1 - y*y
	case ReLU:
		if y > 0 {
			return 1
		}
		return 0
	default:
		return 1
	}
}

// Network is a fully connected feed-forward multi-layer perceptron.
type Network struct {
	// Sizes lists the layer widths including the input layer, e.g.
	// [9, 8, 1] for sobel's NPU topology.
	Sizes []int
	// Acts holds one activation per non-input layer.
	Acts []Activation
	// W[l][j][i] is the weight from neuron i of layer l to neuron j of
	// layer l+1. B[l][j] is neuron j's bias in layer l+1.
	W [][][]float64
	B [][]float64
}

// New creates a network with the given topology and per-layer activations,
// initialized with Xavier/Glorot uniform weights drawn from rng. acts must
// have len(sizes)-1 entries.
func New(sizes []int, acts []Activation, rng *mathx.RNG) *Network {
	if len(sizes) < 2 {
		panic("nn: network needs at least input and output layers")
	}
	if len(acts) != len(sizes)-1 {
		panic(fmt.Sprintf("nn: %d activations for %d layers", len(acts), len(sizes)))
	}
	for _, s := range sizes {
		if s <= 0 {
			panic("nn: non-positive layer size")
		}
	}
	n := &Network{
		Sizes: append([]int(nil), sizes...),
		Acts:  append([]Activation(nil), acts...),
		W:     make([][][]float64, len(sizes)-1),
		B:     make([][]float64, len(sizes)-1),
	}
	for l := 0; l < len(sizes)-1; l++ {
		fanIn, fanOut := sizes[l], sizes[l+1]
		limit := math.Sqrt(6 / float64(fanIn+fanOut))
		n.W[l] = make([][]float64, fanOut)
		n.B[l] = make([]float64, fanOut)
		for j := 0; j < fanOut; j++ {
			row := make([]float64, fanIn)
			for i := range row {
				row[i] = rng.Range(-limit, limit)
			}
			n.W[l][j] = row
		}
	}
	return n
}

// Regression returns the conventional activation stack for a function
// approximator: sigmoid hidden layers, linear output.
func Regression(depth int) []Activation {
	acts := make([]Activation, depth)
	for i := range acts {
		acts[i] = Sigmoid
	}
	acts[depth-1] = Linear
	return acts
}

// Classification returns the activation stack for a classifier: sigmoid
// everywhere, including the output layer.
func Classification(depth int) []Activation {
	acts := make([]Activation, depth)
	for i := range acts {
		acts[i] = Sigmoid
	}
	return acts
}

// Scratch holds per-evaluation buffers so Forward can run without
// allocating. A Scratch is bound to one network topology and must not be
// shared across goroutines.
type Scratch struct {
	act [][]float64 // activations per layer, act[0] aliases nothing
}

// NewScratch allocates evaluation buffers for n.
func (n *Network) NewScratch() *Scratch {
	s := &Scratch{act: make([][]float64, len(n.Sizes))}
	for l, size := range n.Sizes {
		s.act[l] = make([]float64, size)
	}
	return s
}

// Forward evaluates the network on in and returns a freshly allocated
// output vector.
func (n *Network) Forward(in []float64) []float64 {
	s := n.NewScratch()
	out := n.ForwardScratch(in, s)
	return append([]float64(nil), out...)
}

// ForwardScratch evaluates the network using s's buffers; the returned
// slice aliases s and is valid until the next evaluation.
func (n *Network) ForwardScratch(in []float64, s *Scratch) []float64 {
	if len(in) != n.Sizes[0] {
		panic(fmt.Sprintf("nn: input size %d, network expects %d", len(in), n.Sizes[0]))
	}
	copy(s.act[0], in)
	for l := 0; l < len(n.W); l++ {
		prev := s.act[l]
		cur := s.act[l+1]
		for j := range cur {
			z := n.B[l][j] + mathx.Dot(n.W[l][j], prev)
			cur[j] = n.Acts[l].apply(z)
		}
	}
	return s.act[len(s.act)-1]
}

// Validate reports whether the network's parts agree with its Sizes:
// every width positive, one known activation per non-input layer, and
// W[l] Sizes[l+1] rows of Sizes[l] weights with Sizes[l+1] biases in
// B[l]. Decoders call it so a malformed blob is refused instead of
// panicking on first use.
func (n *Network) Validate() error {
	if len(n.Sizes) < 2 {
		return fmt.Errorf("nn: %d layers, need at least input and output", len(n.Sizes))
	}
	for l, s := range n.Sizes {
		if s <= 0 {
			return fmt.Errorf("nn: layer %d has width %d", l, s)
		}
	}
	layers := len(n.Sizes) - 1
	if len(n.Acts) != layers || len(n.W) != layers || len(n.B) != layers {
		return fmt.Errorf("nn: %d layers with %d activations, %d weight and %d bias layers",
			len(n.Sizes), len(n.Acts), len(n.W), len(n.B))
	}
	for l := 0; l < layers; l++ {
		if n.Acts[l] < Sigmoid || n.Acts[l] > ReLU {
			return fmt.Errorf("nn: layer %d has unknown %v", l+1, n.Acts[l])
		}
		fanIn, fanOut := n.Sizes[l], n.Sizes[l+1]
		if len(n.W[l]) != fanOut || len(n.B[l]) != fanOut {
			return fmt.Errorf("nn: layer %d has %d weight rows and %d biases, want %d",
				l+1, len(n.W[l]), len(n.B[l]), fanOut)
		}
		for j, row := range n.W[l] {
			if len(row) != fanIn {
				return fmt.Errorf("nn: layer %d row %d has %d weights, want %d", l+1, j, len(row), fanIn)
			}
		}
	}
	return nil
}

// NumWeights returns the count of trainable parameters (weights + biases).
func (n *Network) NumWeights() int {
	total := 0
	for l := range n.W {
		total += n.Sizes[l]*n.Sizes[l+1] + n.Sizes[l+1]
	}
	return total
}

// MACs returns the number of multiply-accumulate operations in one forward
// pass: the quantity the NPU cycle model schedules over its processing
// elements.
func (n *Network) MACs() int {
	total := 0
	for l := 0; l < len(n.Sizes)-1; l++ {
		total += n.Sizes[l] * n.Sizes[l+1]
	}
	return total
}

// SizeBytes returns the storage footprint of the network's parameters at
// the given bytes-per-weight precision (the paper's Table II sizes neural
// classifiers at fixed-point precision; 2 bytes/weight reproduces its
// numbers).
func (n *Network) SizeBytes(bytesPerWeight int) int {
	return n.NumWeights() * bytesPerWeight
}

// Clone returns a deep copy of the network.
func (n *Network) Clone() *Network {
	c := &Network{
		Sizes: append([]int(nil), n.Sizes...),
		Acts:  append([]Activation(nil), n.Acts...),
		W:     make([][][]float64, len(n.W)),
		B:     make([][]float64, len(n.B)),
	}
	for l := range n.W {
		c.W[l] = make([][]float64, len(n.W[l]))
		for j := range n.W[l] {
			c.W[l][j] = append([]float64(nil), n.W[l][j]...)
		}
		c.B[l] = append([]float64(nil), n.B[l]...)
	}
	return c
}

// TopologyString renders the layer sizes in the paper's arrow notation,
// e.g. "9->8->1".
func (n *Network) TopologyString() string {
	s := ""
	for i, v := range n.Sizes {
		if i > 0 {
			s += "->"
		}
		s += fmt.Sprint(v)
	}
	return s
}
