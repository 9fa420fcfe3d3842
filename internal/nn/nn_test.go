package nn

import (
	"bytes"
	"encoding/gob"
	"math"
	"testing"
	"testing/quick"

	"mithra/internal/mathx"
)

func TestNewTopologyValidation(t *testing.T) {
	rng := mathx.NewRNG(1)
	for name, f := range map[string]func(){
		"one layer":   func() { New([]int{3}, nil, rng) },
		"zero width":  func() { New([]int{3, 0, 1}, Regression(2), rng) },
		"acts length": func() { New([]int{3, 2, 1}, Regression(1), rng) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s should panic", name)
				}
			}()
			f()
		}()
	}
}

func TestForwardShapesAndDeterminism(t *testing.T) {
	rng := mathx.NewRNG(7)
	n := New([]int{4, 8, 3}, Regression(2), rng)
	in := []float64{0.1, -0.2, 0.3, 0.4}
	out1 := n.Forward(in)
	out2 := n.Forward(in)
	if len(out1) != 3 {
		t.Fatalf("output size %d, want 3", len(out1))
	}
	for i := range out1 {
		if out1[i] != out2[i] {
			t.Fatal("forward pass not deterministic")
		}
	}
	// Same seed => identical nets.
	m := New([]int{4, 8, 3}, Regression(2), mathx.NewRNG(7))
	mo := m.Forward(in)
	// rng was advanced creating n, so recreate cleanly:
	n2 := New([]int{4, 8, 3}, Regression(2), mathx.NewRNG(7))
	no := n2.Forward(in)
	for i := range mo {
		if mo[i] != no[i] {
			t.Fatal("same-seed networks differ")
		}
	}
}

func TestForwardInputSizePanics(t *testing.T) {
	n := New([]int{2, 2, 1}, Regression(2), mathx.NewRNG(1))
	defer func() {
		if recover() == nil {
			t.Error("wrong input size should panic")
		}
	}()
	n.Forward([]float64{1, 2, 3})
}

func TestCounts(t *testing.T) {
	n := New([]int{9, 8, 1}, Regression(2), mathx.NewRNG(1))
	if got := n.MACs(); got != 9*8+8*1 {
		t.Errorf("MACs = %d, want 80", got)
	}
	if got := n.NumWeights(); got != 9*8+8+8*1+1 {
		t.Errorf("NumWeights = %d, want 89", got)
	}
	if got := n.SizeBytes(2); got != 2*(9*8+8+8+1) {
		t.Errorf("SizeBytes = %d", got)
	}
	if got := n.TopologyString(); got != "9->8->1" {
		t.Errorf("TopologyString = %q", got)
	}
}

func TestActivations(t *testing.T) {
	cases := []struct {
		a    Activation
		x    float64
		want float64
	}{
		{Sigmoid, 0, 0.5},
		{Tanh, 0, 0},
		{Linear, 3.25, 3.25},
		{ReLU, -2, 0},
		{ReLU, 2, 2},
	}
	for _, c := range cases {
		if got := c.a.apply(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%v(%v) = %v, want %v", c.a, c.x, got, c.want)
		}
	}
	for _, a := range []Activation{Sigmoid, Tanh, Linear, ReLU} {
		if a.String() == "" {
			t.Error("empty activation name")
		}
	}
}

func TestActivationDerivatives(t *testing.T) {
	// Check derivFromOutput against numerical differentiation.
	for _, a := range []Activation{Sigmoid, Tanh, Linear} {
		for _, x := range []float64{-2, -0.5, 0.3, 1.7} {
			h := 1e-6
			num := (a.apply(x+h) - a.apply(x-h)) / (2 * h)
			got := a.derivFromOutput(a.apply(x))
			if math.Abs(num-got) > 1e-5 {
				t.Errorf("%v'(%v) = %v, numerical %v", a, x, got, num)
			}
		}
	}
}

func TestGradientNumerically(t *testing.T) {
	// Backprop gradient must match central finite differences on a tiny
	// network.
	n := New([]int{2, 3, 2}, Regression(2), mathx.NewRNG(3))
	smp := Sample{In: []float64{0.4, -0.7}, Out: []float64{0.2, 0.9}}

	// The training kernel's gradient for a one-sample batch.
	k := newTrainer(n, 1)
	k.gradient([]Sample{smp}, []int{0}, 0)
	gw := func(l, j, i int) float64 { return k.gw[l][j*n.Sizes[l]+i] }
	gb := k.gb

	loss := func() float64 {
		out := n.Forward(smp.In)
		l := 0.0
		for i := range out {
			d := out[i] - smp.Out[i]
			l += d * d
		}
		return l
	}
	const h = 1e-6
	for l := range n.W {
		for j := range n.W[l] {
			for i := range n.W[l][j] {
				orig := n.W[l][j][i]
				n.W[l][j][i] = orig + h
				up := loss()
				n.W[l][j][i] = orig - h
				down := loss()
				n.W[l][j][i] = orig
				num := (up - down) / (4 * h) // loss is sum of squares; grad uses (y-t), i.e. d(loss/2)
				if math.Abs(num-gw(l, j, i)) > 1e-4 {
					t.Fatalf("weight grad [%d][%d][%d]: backprop %v numerical %v",
						l, j, i, gw(l, j, i), num)
				}
			}
			orig := n.B[l][j]
			n.B[l][j] = orig + h
			up := loss()
			n.B[l][j] = orig - h
			down := loss()
			n.B[l][j] = orig
			num := (up - down) / (4 * h)
			if math.Abs(num-gb[l][j]) > 1e-4 {
				t.Fatalf("bias grad [%d][%d]: backprop %v numerical %v", l, j, gb[l][j], num)
			}
		}
	}
}

func TestTrainLearnsXOR(t *testing.T) {
	samples := []Sample{
		{In: []float64{0, 0}, Out: []float64{0}},
		{In: []float64{0, 1}, Out: []float64{1}},
		{In: []float64{1, 0}, Out: []float64{1}},
		{In: []float64{1, 1}, Out: []float64{0}},
	}
	n := New([]int{2, 4, 1}, Classification(2), mathx.NewRNG(5))
	res := n.Train(samples, TrainConfig{Epochs: 3000, LearningRate: 0.8, Momentum: 0.9, BatchSize: 4, Seed: 2})
	if res.FinalMSE > 0.02 {
		t.Fatalf("XOR did not converge: MSE %v", res.FinalMSE)
	}
	for _, s := range samples {
		out := n.Forward(s.In)[0]
		if math.Abs(out-s.Out[0]) > 0.3 {
			t.Errorf("XOR(%v) = %v, want %v", s.In, out, s.Out[0])
		}
	}
}

func TestTrainEmptyAndShapeChecks(t *testing.T) {
	n := New([]int{2, 2, 1}, Regression(2), mathx.NewRNG(1))
	res := n.Train(nil, DefaultTrainConfig())
	if res.Epochs != 0 {
		t.Error("training on empty sample set should be a no-op")
	}
	defer func() {
		if recover() == nil {
			t.Error("shape mismatch should panic")
		}
	}()
	n.Train([]Sample{{In: []float64{1}, Out: []float64{1}}}, DefaultTrainConfig())
}

func TestMSE(t *testing.T) {
	n := New([]int{1, 1}, []Activation{Linear}, mathx.NewRNG(1))
	n.W[0][0][0] = 1
	n.B[0][0] = 0
	samples := []Sample{
		{In: []float64{1}, Out: []float64{3}}, // err 2 -> 4
		{In: []float64{2}, Out: []float64{2}}, // err 0
	}
	if got := n.MSE(samples); math.Abs(got-2) > 1e-12 {
		t.Errorf("MSE = %v, want 2", got)
	}
	if got := n.MSE(nil); got != 0 {
		t.Errorf("MSE(nil) = %v", got)
	}
}

func TestClone(t *testing.T) {
	n := New([]int{2, 3, 1}, Regression(2), mathx.NewRNG(9))
	c := n.Clone()
	in := []float64{0.3, 0.6}
	if n.Forward(in)[0] != c.Forward(in)[0] {
		t.Fatal("clone differs from original")
	}
	c.W[0][0][0] += 1
	if n.Forward(in)[0] == c.Forward(in)[0] {
		t.Fatal("clone shares storage with original")
	}
}

func TestScalerRoundTrip(t *testing.T) {
	vecs := [][]float64{{0, 10, -5}, {2, 20, 5}, {1, 15, 0}}
	s := FitScaler(vecs)
	f := func(a, b, c uint16) bool {
		v := []float64{float64(a%30)/10 - 0.5, 10 + float64(b%100)/10, float64(c%100)/10 - 5}
		scaled := s.Apply(v, make([]float64, 3))
		back := s.Invert(scaled, make([]float64, 3))
		for i := range v {
			if math.Abs(back[i]-v[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Values inside the fitted range scale into [0,1].
	scaled := s.Apply([]float64{1, 15, 0}, make([]float64, 3))
	for i, v := range scaled {
		if v < 0 || v > 1 {
			t.Errorf("in-range value scaled outside [0,1]: dim %d = %v", i, v)
		}
	}
}

func TestScalerConstantFeature(t *testing.T) {
	s := FitScaler([][]float64{{5, 1}, {5, 2}})
	scaled := s.Apply([]float64{5, 1.5}, make([]float64, 2))
	if math.IsNaN(scaled[0]) || math.IsInf(scaled[0], 0) {
		t.Errorf("constant feature produced %v", scaled[0])
	}
	back := s.Invert(scaled, make([]float64, 2))
	if math.Abs(back[0]-5) > 1e-9 {
		t.Errorf("constant feature round trip = %v", back[0])
	}
	if s.Dim() != 2 {
		t.Errorf("Dim = %d", s.Dim())
	}
}

func TestApproximatorLearnsQuadratic(t *testing.T) {
	// y = x^2 over [-2, 2]: a 1->8->1 net should fit this easily.
	rng := mathx.NewRNG(4)
	var samples []Sample
	for i := 0; i < 400; i++ {
		x := rng.Range(-2, 2)
		samples = append(samples, Sample{In: []float64{x}, Out: []float64{x * x}})
	}
	cfg := TrainConfig{Epochs: 300, LearningRate: 0.3, Momentum: 0.9, BatchSize: 16, Seed: 3}
	a, res := FitApproximator([]int{1, 8, 1}, samples, cfg, 11)
	if res.FinalMSE > 0.01 {
		t.Fatalf("quadratic fit MSE %v too high", res.FinalMSE)
	}
	scr := a.NewEvalScratch()
	dst := make([]float64, 1)
	for _, x := range []float64{-1.5, -0.5, 0, 0.8, 1.9} {
		got := a.Eval([]float64{x}, dst, scr)[0]
		if math.Abs(got-x*x) > 0.25 {
			t.Errorf("approx(%v) = %v, want %v", x, got, x*x)
		}
	}
}

func TestApproximatorEncodeDecode(t *testing.T) {
	samples := []Sample{
		{In: []float64{0, 0}, Out: []float64{1}},
		{In: []float64{1, 2}, Out: []float64{3}},
		{In: []float64{2, 1}, Out: []float64{2}},
	}
	a, _ := FitApproximator([]int{2, 3, 1}, samples, DefaultTrainConfig(), 1)
	data, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	b, err := DecodeApproximator(data)
	if err != nil {
		t.Fatal(err)
	}
	in := []float64{0.7, 1.1}
	if got, want := b.EvalAlloc(in)[0], a.EvalAlloc(in)[0]; got != want {
		t.Errorf("decoded approximator differs: %v vs %v", got, want)
	}
	if _, err := DecodeApproximator([]byte("garbage")); err == nil {
		t.Error("decoding garbage should fail")
	}
}

func TestRegressionClassificationStacks(t *testing.T) {
	r := Regression(3)
	if r[0] != Sigmoid || r[1] != Sigmoid || r[2] != Linear {
		t.Errorf("Regression(3) = %v", r)
	}
	c := Classification(2)
	if c[0] != Sigmoid || c[1] != Sigmoid {
		t.Errorf("Classification(2) = %v", c)
	}
}

// TestDecodeApproximatorRefusesMalformedShapes encodes approximators
// whose parts disagree with Sizes; each must fail to decode rather than
// panic on first evaluation.
func TestDecodeApproximatorRefusesMalformedShapes(t *testing.T) {
	valid := func() gobApproximator {
		n := New([]int{2, 2, 1}, Regression(2), mathx.NewRNG(1))
		return gobApproximator{
			Sizes: n.Sizes, Acts: n.Acts, W: n.W, B: n.B,
			InScale:  Scaler{Min: []float64{0, 0}, Max: []float64{1, 1}},
			OutScale: Scaler{Min: []float64{0}, Max: []float64{1}},
		}
	}
	cases := map[string]func(g *gobApproximator){
		"short first row":      func(g *gobApproximator) { g.W[0][1] = g.W[0][1][:1] },
		"missing row":          func(g *gobApproximator) { g.W[0] = g.W[0][:1] },
		"missing bias":         func(g *gobApproximator) { g.B[1] = nil },
		"missing weight layer": func(g *gobApproximator) { g.W = g.W[:1] },
		"missing activation":   func(g *gobApproximator) { g.Acts = g.Acts[:1] },
		"unknown activation":   func(g *gobApproximator) { g.Acts[0] = 9 },
		"zero width":           func(g *gobApproximator) { g.Sizes = []int{2, 0, 1} },
		"one layer":            func(g *gobApproximator) { g.Sizes = []int{2} },
		"input scaler width":   func(g *gobApproximator) { g.InScale.Max = g.InScale.Max[:1] },
		"output scaler width":  func(g *gobApproximator) { g.OutScale = Scaler{Min: []float64{0, 0}, Max: []float64{1, 1}} },
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(valid()); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeApproximator(buf.Bytes()); err != nil {
		t.Fatalf("valid approximator refused: %v", err)
	}
	for name, corrupt := range cases {
		g := valid()
		corrupt(&g)
		buf.Reset()
		if err := gob.NewEncoder(&buf).Encode(g); err != nil {
			t.Fatal(err)
		}
		if a, err := DecodeApproximator(buf.Bytes()); err == nil {
			t.Errorf("%s: decoded with nil error (Sizes %v)", name, a.Net.Sizes)
		}
	}
}
