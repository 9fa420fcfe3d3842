package nn

import (
	"fmt"
	"math"

	"mithra/internal/mathx"
)

// Sample is one supervised training pair.
type Sample struct {
	In  []float64
	Out []float64
}

// TrainConfig controls stochastic gradient descent.
type TrainConfig struct {
	Epochs       int
	LearningRate float64
	Momentum     float64
	BatchSize    int
	// Seed keys the shuffling stream.
	Seed uint64
}

// DefaultTrainConfig returns settings that train the paper's topologies to
// useful accuracy in well under a second per benchmark at test scale.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{
		Epochs:       60,
		LearningRate: 0.1,
		Momentum:     0.9,
		BatchSize:    16,
		Seed:         1,
	}
}

// TrainResult reports what training achieved.
type TrainResult struct {
	Epochs   int
	FinalMSE float64
}

// Train fits the network to samples with mini-batch SGD + momentum,
// minimizing mean squared error. It mutates the receiver and returns the
// final training error.
//
// Training runs on a flat copy of the weights (see trainer) and writes
// the result back; the weights it produces are, bit for bit, those of
// per-sample backpropagation with the gradient summed in batch order.
func (n *Network) Train(samples []Sample, cfg TrainConfig) TrainResult {
	if len(samples) == 0 {
		return TrainResult{}
	}
	n.checkSamples(samples)
	if cfg.Epochs <= 0 {
		cfg.Epochs = 1
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 16
	}
	if cfg.LearningRate <= 0 {
		cfg.LearningRate = 0.1
	}

	rng := mathx.NewRNG(cfg.Seed)
	t := newTrainer(n, cfg.BatchSize)

	sse := 0.0
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		perm := rng.Perm(len(samples))
		sse = 0
		for start := 0; start < len(perm); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(perm) {
				end = len(perm)
			}
			sse = t.gradient(samples, perm[start:end], sse)
			t.applyGrads(cfg, end-start)
		}
	}
	t.store(n)
	return TrainResult{Epochs: cfg.Epochs, FinalMSE: sse / float64(len(samples))}
}

// MSE returns the mean squared error of the network over samples.
func (n *Network) MSE(samples []Sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := n.NewScratch()
	sse := 0.0
	for _, smp := range samples {
		out := n.ForwardScratch(smp.In, s)
		for k := range out {
			d := out[k] - smp.Out[k]
			sse += d * d
		}
	}
	return sse / float64(len(samples))
}

func (n *Network) checkSamples(samples []Sample) {
	in, out := n.Sizes[0], n.Sizes[len(n.Sizes)-1]
	for i, s := range samples {
		if len(s.In) != in || len(s.Out) != out {
			panic(fmt.Sprintf("nn: sample %d has shape (%d,%d), network expects (%d,%d)",
				i, len(s.In), len(s.Out), in, out))
		}
	}
}

// trainer is the mini-batch training kernel. Layer l's weights are one
// row-major slice, w[l][j*Sizes[l]+i] = Network.W[l][j][i], and the
// gradient and velocity buffers share that layout. The weights are fixed
// within a mini-batch, so each stage runs for the whole batch at once:
// forward for every sample, then the output and hidden deltas, then the
// batch gradient Σ_s d[s][j]·a[s][i]. All three are products of one
// matrix's rows with another's (mulT), for which the batch is kept in
// both layouts: sample-major (one row per sample) and feature-major (one
// row per neuron, ns samples long).
//
// Every float64 equals the per-sample kernel's: each sum starts from 0.0
// and adds its terms in the per-sample order — inputs in index order for
// a dot product, samples in batch order for a gradient. FMA is not used:
// it would round differently.
type trainer struct {
	sizes  []int
	acts   []Activation
	w, b   [][]float64
	gw, gb [][]float64
	vw, vb [][]float64
	// a[l] holds the batch's layer-l activations sample-major (a[0] the
	// inputs) and at[l] feature-major; d[l] and dt[l] hold the deltas
	// of layer l+1 the same two ways. wt[l] is w[l] transposed, for
	// l ≥ 1.
	a, at, d, dt, wt [][]float64
}

func newTrainer(n *Network, batch int) *trainer {
	layers := len(n.W)
	t := &trainer{
		sizes: n.Sizes, acts: n.Acts,
		w: make([][]float64, layers), b: make([][]float64, layers),
		gw: make([][]float64, layers), gb: make([][]float64, layers),
		vw: make([][]float64, layers), vb: make([][]float64, layers),
		a: make([][]float64, layers+1), at: make([][]float64, layers+1),
		d: make([][]float64, layers), dt: make([][]float64, layers),
		wt: make([][]float64, layers),
	}
	for l := 0; l < layers; l++ {
		fanIn, fanOut := n.Sizes[l], n.Sizes[l+1]
		t.w[l] = make([]float64, 0, fanIn*fanOut)
		for _, row := range n.W[l] {
			t.w[l] = append(t.w[l], row...)
		}
		t.b[l] = append([]float64(nil), n.B[l]...)
		t.gw[l] = make([]float64, fanIn*fanOut)
		t.gb[l] = make([]float64, fanOut)
		t.vw[l] = make([]float64, fanIn*fanOut)
		t.vb[l] = make([]float64, fanOut)
		t.d[l] = make([]float64, batch*fanOut)
		t.dt[l] = make([]float64, batch*fanOut)
		if l > 0 {
			t.wt[l] = make([]float64, fanIn*fanOut)
		}
	}
	for l, size := range n.Sizes {
		t.a[l] = make([]float64, batch*size)
		t.at[l] = make([]float64, batch*size)
	}
	return t
}

// store copies the trained weights back into n.
func (t *trainer) store(n *Network) {
	for l := range t.w {
		fanIn := t.sizes[l]
		for j, row := range n.W[l] {
			copy(row, t.w[l][j*fanIn:(j+1)*fanIn])
		}
		copy(n.B[l], t.b[l])
	}
}

// gradient runs the mini-batch samples[idx...] forward and back, leaves
// the batch gradient in (gw, gb) and returns sse plus the batch's
// squared error, added per sample in batch order.
func (t *trainer) gradient(samples []Sample, idx []int, sse float64) float64 {
	ns := len(idx)
	in, a0, at0 := t.sizes[0], t.a[0], t.at[0]
	for s, k := range idx {
		x := samples[k].In
		copy(a0[s*in:(s+1)*in], x)
		for i, xi := range x {
			at0[i*ns+s] = xi
		}
	}
	last := len(t.w) - 1
	for l := 0; l <= last; l++ {
		// at[l+1][j][s] = Σ_i w[l][j][i]·a[l][s][i], then the bias and
		// activation in place.
		m, act, y, yt := t.sizes[l+1], t.acts[l], t.a[l+1], t.at[l+1]
		mulT(yt, t.w[l], t.a[l], m, ns, t.sizes[l])
		for j, bj := range t.b[l] {
			row := yt[j*ns : (j+1)*ns]
			for s, z := range row {
				row[s] = act.apply(bj + z)
				y[s*m+j] = row[s]
			}
		}
	}

	// Output deltas: dE/dz = (y - t) * f'(z).
	out, act := t.sizes[last+1], t.acts[last]
	for s, k := range idx {
		want := samples[k].Out
		e := 0.0
		for j, y := range t.a[last+1][s*out : (s+1)*out] {
			diff := y - want[j]
			e += diff * diff
			del := diff * act.derivFromOutput(y)
			t.d[last][s*out+j] = del
			t.dt[last][j*ns+s] = del
		}
		sse += e
	}
	// Hidden deltas, back to front: dt[l][j][s] = Σ_k w[l+1][k][j]·d[l+1][s][k]
	// times f'(z).
	for l := last - 1; l >= 0; l-- {
		m, n, w, wt := t.sizes[l+1], t.sizes[l+2], t.w[l+1], t.wt[l+1]
		for k := 0; k < n; k++ {
			for j, wkj := range w[k*m : (k+1)*m] {
				wt[j*n+k] = wkj
			}
		}
		del, delT, yt, act := t.d[l], t.dt[l], t.at[l+1], t.acts[l]
		mulT(delT, wt, t.d[l+1], m, ns, n)
		for j := 0; j < m; j++ {
			row, ys := delT[j*ns:(j+1)*ns], yt[j*ns:(j+1)*ns]
			for s, z := range row {
				row[s] = z * act.derivFromOutput(ys[s])
				del[s*m+j] = row[s]
			}
		}
	}
	// Batch gradient: gw[l][j][i] = Σ_s d[l][s][j]·a[l][s][i].
	for l := 0; l <= last; l++ {
		mulT(t.gw[l], t.dt[l], t.at[l], t.sizes[l+1], t.sizes[l], ns)
		for j := range t.gb[l] {
			z := 0.0
			for _, del := range t.dt[l][j*ns : (j+1)*ns] {
				z += del
			}
			t.gb[l][j] = z
		}
	}
	return sse
}

// mulT sets c[r*cols+q] = Σ_k x[r*depth+k]·y[q*depth+k]: each row of x
// times each row of y, summed in k order from 0.0 as mathx.Dot does. It
// works on two rows of x and three of y at a time, six independent sums
// that keep the floating-point pipeline busy without spilling registers.
func mulT(c, x, y []float64, rows, cols, depth int) {
	r := 0
	for ; r+2 <= rows; r += 2 {
		x0, x1 := x[r*depth:(r+1)*depth], x[(r+1)*depth:(r+2)*depth]
		c0, c1 := c[r*cols:(r+1)*cols], c[(r+1)*cols:(r+2)*cols]
		q := 0
		for ; q+3 <= cols; q += 3 {
			c0[q], c0[q+1], c0[q+2], c1[q], c1[q+1], c1[q+2] = dot2x3(x0, x1,
				y[q*depth:(q+1)*depth], y[(q+1)*depth:(q+2)*depth], y[(q+2)*depth:(q+3)*depth])
		}
		for ; q < cols; q++ {
			yq := y[q*depth : (q+1)*depth]
			c0[q], c1[q] = mathx.Dot(x0, yq), mathx.Dot(x1, yq)
		}
	}
	if r < rows {
		xr, cr := x[r*depth:(r+1)*depth], c[r*cols:(r+1)*cols]
		for q := range cr {
			cr[q] = mathx.Dot(xr, y[q*depth:(q+1)*depth])
		}
	}
}

// dot2x3 returns the six dot products of (x0, x1) with (y0, y1, y2), all
// of len(x0).
func dot2x3(x0, x1, y0, y1, y2 []float64) (z00, z01, z02, z10, z11, z12 float64) {
	x1, y0, y1, y2 = x1[:len(x0)], y0[:len(x0)], y1[:len(x0)], y2[:len(x0)]
	for k, a := range x0 {
		b := x1[k]
		z00 += a * y0[k]
		z01 += a * y1[k]
		z02 += a * y2[k]
		z10 += b * y0[k]
		z11 += b * y1[k]
		z12 += b * y2[k]
	}
	return
}

func (t *trainer) applyGrads(cfg TrainConfig, batch int) {
	scale := cfg.LearningRate / float64(batch)
	for l := range t.w {
		w := t.w[l]
		g, v := t.gw[l][:len(w)], t.vw[l][:len(w)]
		for i := range w {
			vi := cfg.Momentum*v[i] - scale*g[i]
			v[i] = vi
			w[i] += vi
		}
		b, gb, vb := t.b[l], t.gb[l], t.vb[l]
		for j := range b {
			vj := cfg.Momentum*vb[j] - scale*gb[j]
			vb[j] = vj
			b[j] += vj
		}
	}
}

// Scaler maps each feature of a vector affinely into [0, 1] based on the
// ranges observed in a fitting sample. Approximators normalize both inputs
// and outputs so sigmoid layers operate in their responsive region
// regardless of the application's units.
type Scaler struct {
	Min, Max []float64
}

// FitScaler computes per-feature ranges over vecs. Constant features are
// given a unit range so scaling stays invertible.
func FitScaler(vecs [][]float64) *Scaler {
	if len(vecs) == 0 {
		panic("nn: FitScaler with no vectors")
	}
	dim := len(vecs[0])
	s := &Scaler{Min: make([]float64, dim), Max: make([]float64, dim)}
	for i := 0; i < dim; i++ {
		s.Min[i] = math.Inf(1)
		s.Max[i] = math.Inf(-1)
	}
	for _, v := range vecs {
		if len(v) != dim {
			panic("nn: FitScaler dimension mismatch")
		}
		for i, x := range v {
			s.Min[i] = math.Min(s.Min[i], x)
			s.Max[i] = math.Max(s.Max[i], x)
		}
	}
	for i := 0; i < dim; i++ {
		if s.Max[i]-s.Min[i] < 1e-12 {
			s.Max[i] = s.Min[i] + 1
		}
	}
	return s
}

// Apply scales v into dst (which must have the scaler's dimension) and
// returns dst.
func (s *Scaler) Apply(v, dst []float64) []float64 {
	for i := range dst {
		dst[i] = (v[i] - s.Min[i]) / (s.Max[i] - s.Min[i])
	}
	return dst
}

// Invert maps a scaled vector back to original units, writing into dst.
func (s *Scaler) Invert(v, dst []float64) []float64 {
	for i := range dst {
		dst[i] = v[i]*(s.Max[i]-s.Min[i]) + s.Min[i]
	}
	return dst
}

// Dim returns the scaler's feature dimension.
func (s *Scaler) Dim() int { return len(s.Min) }
