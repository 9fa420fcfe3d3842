package axbench

import (
	"math"
	"testing"

	"mithra/internal/dataset"
	"mithra/internal/mathx"
)

func TestRegistry(t *testing.T) {
	names := Names()
	want := []string{"blackscholes", "fft", "inversek2j", "jmeint", "jpeg", "sobel"}
	if len(names) != len(want) {
		t.Fatalf("Names() = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", names, want)
		}
	}
	if _, err := New("nosuch"); err == nil {
		t.Error("New(nosuch) should fail")
	}
	if len(All()) != 6 {
		t.Errorf("All() returned %d benchmarks", len(All()))
	}
}

// TestConformance checks every benchmark against the interface contract:
// dimensions line up, topology endpoints match kernel widths, the
// application is a pure function of the invoker's outputs, and the precise
// run has zero quality loss against itself.
func allPlusExtensions(t *testing.T) []Benchmark {
	t.Helper()
	out := All()
	for _, n := range Extensions() {
		b, err := New(n)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

func TestConformance(t *testing.T) {
	for _, b := range allPlusExtensions(t) {
		b := b
		t.Run(b.Name(), func(t *testing.T) {
			topo := b.Topology()
			if topo[0] != b.InputDim() || topo[len(topo)-1] != b.OutputDim() {
				t.Errorf("topology %v does not match kernel dims (%d,%d)",
					topo, b.InputDim(), b.OutputDim())
			}
			if b.Domain() == "" || b.Name() == "" {
				t.Error("empty metadata")
			}
			p := b.Profile()
			if p.KernelCycles <= 0 || p.KernelFraction <= 0 || p.KernelFraction >= 1 {
				t.Errorf("implausible profile %+v", p)
			}

			in := b.GenInput(mathx.NewRNG(1), TestScale())
			if in.Invocations() <= 0 {
				t.Fatal("no invocations")
			}

			calls := 0
			counting := func(kin, kout []float64) {
				if len(kin) != b.InputDim() || len(kout) != b.OutputDim() {
					t.Fatalf("invoker buffer dims (%d,%d)", len(kin), len(kout))
				}
				calls++
				b.Precise(kin, kout)
			}
			out1 := b.Run(in, counting)
			if calls != in.Invocations() {
				t.Errorf("Run made %d calls, Invocations() = %d", calls, in.Invocations())
			}
			if len(out1) == 0 {
				t.Fatal("empty output")
			}

			// Determinism + purity: same input, same invoker => identical
			// output.
			out2 := b.Run(in, PreciseInvoker(b))
			if len(out1) != len(out2) {
				t.Fatalf("output length changed between runs")
			}
			for i := range out1 {
				if out1[i] != out2[i] {
					t.Fatalf("output differs at %d: %v vs %v", i, out1[i], out2[i])
				}
			}

			if loss := b.Metric().Loss(out1, out2); loss != 0 {
				t.Errorf("self quality loss = %v, want 0", loss)
			}

			// Different seeds must generate different datasets.
			other := b.GenInput(mathx.NewRNG(2), TestScale())
			out3 := b.Run(other, PreciseInvoker(b))
			identical := len(out3) == len(out1)
			if identical {
				for i := range out1 {
					if out1[i] != out3[i] {
						identical = false
						break
					}
				}
			}
			if identical {
				t.Error("different seeds produced identical outputs")
			}
		})
	}
}

// TestPerturbationSensitivity checks that injecting error at the kernel
// boundary degrades final quality — i.e. the quality metric actually
// observes the kernel's outputs for every benchmark.
func TestPerturbationSensitivity(t *testing.T) {
	for _, b := range allPlusExtensions(t) {
		b := b
		t.Run(b.Name(), func(t *testing.T) {
			in := b.GenInput(mathx.NewRNG(3), TestScale())
			ref := b.Run(in, PreciseInvoker(b))
			rng := mathx.NewRNG(4)
			noisy := func(kin, kout []float64) {
				b.Precise(kin, kout)
				for i := range kout {
					kout[i] += rng.Range(-1, 1) * (math.Abs(kout[i]) + 1)
				}
			}
			got := b.Run(in, noisy)
			if loss := b.Metric().Loss(ref, got); loss <= 0 {
				t.Errorf("large kernel perturbation produced zero quality loss")
			}
		})
	}
}

func TestBlackscholesKernel(t *testing.T) {
	b := NewBlackscholes()
	out := make([]float64, 1)
	// Canonical case: S=100 K=100 r=5% v=20% T=1 call => 10.4506.
	b.Precise([]float64{100, 100, 0.05, 0.2, 1, 0}, out)
	if math.Abs(out[0]-10.4506) > 1e-3 {
		t.Errorf("call price = %v, want 10.4506", out[0])
	}
	// Matching put via put-call parity: C - P = S - K e^{-rT}.
	put := make([]float64, 1)
	b.Precise([]float64{100, 100, 0.05, 0.2, 1, 1}, put)
	parity := out[0] - put[0]
	want := 100 - 100*math.Exp(-0.05)
	if math.Abs(parity-want) > 1e-9 {
		t.Errorf("put-call parity violated: %v vs %v", parity, want)
	}
}

func TestBlackscholesDeepITMCall(t *testing.T) {
	b := NewBlackscholes()
	out := make([]float64, 1)
	// Deep in-the-money call is worth ~ S - K e^{-rT}.
	b.Precise([]float64{200, 50, 0.03, 0.1, 0.5, 0}, out)
	want := 200 - 50*math.Exp(-0.03*0.5)
	if math.Abs(out[0]-want) > 0.01 {
		t.Errorf("deep ITM call = %v, want ~%v", out[0], want)
	}
}

func TestFFTKernel(t *testing.T) {
	b := NewFFT()
	out := make([]float64, 2)
	b.Precise([]float64{0.25}, out) // angle -pi/2
	if math.Abs(out[0]-(-1)) > 1e-12 || math.Abs(out[1]) > 1e-12 {
		t.Errorf("twiddle(0.25) = (%v,%v), want (-1,0)", out[0], out[1])
	}
	b.Precise([]float64{0}, out)
	if out[0] != 0 || out[1] != 1 {
		t.Errorf("twiddle(0) = (%v,%v), want (0,1)", out[0], out[1])
	}
}

func TestFFTTransformCorrectness(t *testing.T) {
	// A pure cosine at bin k must concentrate energy at that bin.
	b := NewFFT()
	n := 64
	sig := make([]float64, n)
	const bin = 5
	for i := range sig {
		sig[i] = math.Cos(2 * math.Pi * bin * float64(i) / float64(n))
	}
	out := b.Run(&signalInput{sig: sig}, PreciseInvoker(b))
	if len(out) != n/2 {
		t.Fatalf("spectrum length %d, want %d", len(out), n/2)
	}
	peak := mathx.ArgMax(out)
	if peak != bin {
		t.Errorf("spectral peak at bin %d, want %d (spectrum %v)", peak, bin, out)
	}
	if out[bin] < float64(n)/2*0.99 {
		t.Errorf("peak magnitude %v, want ~%v", out[bin], float64(n)/2)
	}
}

func TestInverseK2JKernelRoundTrip(t *testing.T) {
	b := NewInverseK2J()
	out := make([]float64, 2)
	rng := mathx.NewRNG(9)
	for i := 0; i < 200; i++ {
		r := rng.Range(0.05, 0.95)
		th := rng.Range(0.1, math.Pi-0.1)
		x, y := r*math.Cos(th), r*math.Sin(th)
		b.Precise([]float64{x, y}, out)
		// Forward kinematics must reproduce the target.
		fx := armL1*math.Cos(out[0]) + armL2*math.Cos(out[0]+out[1])
		fy := armL1*math.Sin(out[0]) + armL2*math.Sin(out[0]+out[1])
		if math.Hypot(fx-x, fy-y) > 1e-9 {
			t.Fatalf("IK round trip failed for (%v,%v): got (%v,%v)", x, y, fx, fy)
		}
	}
}

func TestJmeintKernelKnownCases(t *testing.T) {
	b := NewJmeint()
	out := make([]float64, 2)

	// Two interpenetrating perpendicular triangles.
	crossIn := []float64{
		0, 0, 0, 2, 0, 0, 0, 2, 0, // triangle in z=0 plane
		0.5, 0.5, -1, 0.5, 0.5, 1, 0.5, 1.5, 0, // pierces it
	}
	b.Precise(crossIn, out)
	if out[0] < out[1] {
		t.Error("piercing triangles should intersect")
	}

	// Far-apart triangles.
	farIn := []float64{
		0, 0, 0, 1, 0, 0, 0, 1, 0,
		10, 10, 10, 11, 10, 10, 10, 11, 10,
	}
	b.Precise(farIn, out)
	if out[0] > out[1] {
		t.Error("distant triangles should not intersect")
	}

	// Parallel planes, separated.
	parIn := []float64{
		0, 0, 0, 1, 0, 0, 0, 1, 0,
		0, 0, 1, 1, 0, 1, 0, 1, 1,
	}
	b.Precise(parIn, out)
	if out[0] > out[1] {
		t.Error("parallel separated triangles should not intersect")
	}

	// Coplanar overlapping.
	copIn := []float64{
		0, 0, 0, 2, 0, 0, 0, 2, 0,
		0.2, 0.2, 0, 1.2, 0.2, 0, 0.2, 1.2, 0,
	}
	b.Precise(copIn, out)
	if out[0] < out[1] {
		t.Error("coplanar overlapping triangles should intersect")
	}

	// Coplanar disjoint.
	copFar := []float64{
		0, 0, 0, 1, 0, 0, 0, 1, 0,
		5, 5, 0, 6, 5, 0, 5, 6, 0,
	}
	b.Precise(copFar, out)
	if out[0] > out[1] {
		t.Error("coplanar disjoint triangles should not intersect")
	}
}

func TestJmeintSharedGeometry(t *testing.T) {
	b := NewJmeint()
	out := make([]float64, 2)
	// A triangle trivially intersects itself.
	self := []float64{
		0, 0, 0, 1, 0, 0, 0, 1, 0,
		0, 0, 0, 1, 0, 0, 0, 1, 0,
	}
	b.Precise(self, out)
	if out[0] < out[1] {
		t.Error("identical triangles should intersect")
	}
}

func TestJmeintClassBalance(t *testing.T) {
	// The generated datasets must contain both classes or the miss-rate
	// metric degenerates.
	b := NewJmeint()
	in := b.GenInput(mathx.NewRNG(11), TestScale())
	out := b.Run(in, PreciseInvoker(b))
	ones := 0
	for _, v := range out {
		if v == 1 {
			ones++
		}
	}
	frac := float64(ones) / float64(len(out))
	if frac < 0.05 || frac > 0.95 {
		t.Errorf("intersecting fraction %v is too imbalanced", frac)
	}
}

func TestJPEGDCTRoundTrip(t *testing.T) {
	// inverseDCT(forwardDCT(x)) == x without quantization.
	rng := mathx.NewRNG(13)
	var src, freq, back [64]float64
	for i := range src {
		src[i] = rng.Range(-128, 127)
	}
	forwardDCT(&src, &freq)
	inverseDCT(&freq, &back)
	for i := range src {
		if math.Abs(src[i]-back[i]) > 1e-9 {
			t.Fatalf("DCT round trip failed at %d: %v vs %v", i, src[i], back[i])
		}
	}
}

func TestJPEGDCTDCCoefficient(t *testing.T) {
	// A constant block has all energy in the DC coefficient.
	var src, freq [64]float64
	for i := range src {
		src[i] = 100
	}
	forwardDCT(&src, &freq)
	if math.Abs(freq[0]-800) > 1e-9 { // 8 * 100 for orthonormalized DCT
		t.Errorf("DC = %v, want 800", freq[0])
	}
	for i := 1; i < 64; i++ {
		if math.Abs(freq[i]) > 1e-9 {
			t.Errorf("AC[%d] = %v, want 0", i, freq[i])
		}
	}
}

func TestJPEGEncodeDecodeQuality(t *testing.T) {
	// Precise JPEG encode/decode of a smooth image should reconstruct it
	// closely (quantization noise only).
	b := NewJPEG()
	in := b.GenInput(mathx.NewRNG(17), TestScale())
	recon := b.Run(in, PreciseInvoker(b))
	orig := in.(*jpegInput).im
	diff := 0.0
	for i, p := range orig.Pix {
		diff += math.Abs(p - recon[i])
	}
	diff /= float64(len(orig.Pix))
	if diff > 0.06 {
		t.Errorf("precise JPEG reconstruction diff %v too high", diff)
	}
}

func TestJPEGInputRounding(t *testing.T) {
	b := NewJPEG()
	in := b.GenInput(mathx.NewRNG(1), Scale{ImageW: 43, ImageH: 29})
	ji := in.(*jpegInput)
	if ji.im.W != 40 || ji.im.H != 24 {
		t.Errorf("image should be rounded to 8-pixel multiples, got %dx%d", ji.im.W, ji.im.H)
	}
	if in.Invocations() != 5*3 {
		t.Errorf("Invocations = %d, want 15", in.Invocations())
	}
}

func TestSobelKernel(t *testing.T) {
	b := NewSobel()
	out := make([]float64, 1)
	// Flat window: zero gradient.
	flat := []float64{0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5}
	b.Precise(flat, out)
	if out[0] != 0 {
		t.Errorf("flat gradient = %v, want 0", out[0])
	}
	// Vertical step edge: maximal horizontal gradient.
	step := []float64{0, 0, 1, 0, 0, 1, 0, 0, 1}
	b.Precise(step, out)
	if out[0] <= 0.5 {
		t.Errorf("step edge gradient = %v, want > 0.5", out[0])
	}
	// Output is normalized to <= 1 for any [0,1] window.
	extreme := []float64{0, 0, 1, 0, 0, 1, 0, 0, 1}
	b.Precise(extreme, out)
	if out[0] > 1 {
		t.Errorf("gradient %v exceeds normalized bound", out[0])
	}
}

func TestSobelRotationSymmetry(t *testing.T) {
	b := NewSobel()
	horiz := make([]float64, 1)
	vert := make([]float64, 1)
	// An edge and its 90-degree rotation have the same magnitude.
	b.Precise([]float64{0, 0, 1, 0, 0, 1, 0, 0, 1}, horiz)
	b.Precise([]float64{0, 0, 0, 0, 0, 0, 1, 1, 1}, vert)
	if math.Abs(horiz[0]-vert[0]) > 1e-12 {
		t.Errorf("rotated edges differ: %v vs %v", horiz[0], vert[0])
	}
}

func TestScales(t *testing.T) {
	p := PaperScale()
	if p.ImageW != 512 || p.Options != 4096 || p.SignalLen != 2048 || p.Points != 10000 {
		t.Errorf("PaperScale = %+v", p)
	}
	for _, s := range []Scale{PaperScale(), MediumScale(), TestScale()} {
		if s.SignalLen&(s.SignalLen-1) != 0 {
			t.Errorf("signal length %d not a power of two", s.SignalLen)
		}
	}
}

func TestPublicInputConstructors(t *testing.T) {
	rng := mathx.NewRNG(40)
	im := dataset.GenImage(rng, 20, 12)

	sobelIn := NewImageInput(im)
	if sobelIn.Invocations() != 20*12 {
		t.Errorf("sobel invocations = %d", sobelIn.Invocations())
	}
	out := NewSobel().Run(sobelIn, PreciseInvoker(NewSobel()))
	if len(out) != 240 {
		t.Errorf("sobel output = %d", len(out))
	}

	jpegIn, err := NewJPEGInput(im)
	if err != nil {
		t.Fatal(err)
	}
	if jpegIn.Invocations() != (16/8)*(8/8) {
		t.Errorf("jpeg invocations = %d (image cropped to 16x8)", jpegIn.Invocations())
	}
	if _, err := NewJPEGInput(dataset.NewImage(4, 4)); err == nil {
		t.Error("tiny jpeg input should error")
	}

	if _, err := NewOptionsInput(nil); err == nil {
		t.Error("empty options should error")
	}
	if _, err := NewSignalInput(make([]float64, 100)); err == nil {
		t.Error("non-power-of-two signal should error")
	}
	sig, err := NewSignalInput(make([]float64, 128))
	if err != nil {
		t.Fatal(err)
	}
	if sig.Invocations() != 127 {
		t.Errorf("fft invocations = %d", sig.Invocations())
	}
	if _, err := NewPointsInput(nil); err == nil {
		t.Error("empty points should error")
	}
	if _, err := NewTrianglePairsInput(nil); err == nil {
		t.Error("empty pairs should error")
	}
}

func TestExtensionsRegistry(t *testing.T) {
	exts := Extensions()
	if len(exts) != 1 || exts[0] != "kmeans" {
		t.Fatalf("Extensions() = %v", exts)
	}
	if _, err := New("kmeans"); err != nil {
		t.Fatal(err)
	}
	for _, n := range Names() {
		if n == "kmeans" {
			t.Error("extension leaked into the Table I list")
		}
	}
}

func TestKMeansKernel(t *testing.T) {
	b := NewKMeans()
	out := make([]float64, 1)
	// Pixel 0.32 with centroids {0.1, 0.3, 0.5, 0.7, 0.9} -> 0.3.
	b.Precise([]float64{0.32, 0.1, 0.3, 0.5, 0.7, 0.9}, out)
	if out[0] != 0.3 {
		t.Errorf("assignment = %v, want 0.3", out[0])
	}
	// Exactly on a centroid.
	b.Precise([]float64{0.7, 0.1, 0.3, 0.5, 0.7, 0.9}, out)
	if out[0] != 0.7 {
		t.Errorf("assignment = %v, want 0.7", out[0])
	}
}

func TestKMeansPosterizes(t *testing.T) {
	b := NewKMeans()
	in := b.GenInput(mathx.NewRNG(5), TestScale())
	out := b.Run(in, PreciseInvoker(b))
	// The output uses at most kmeansK distinct levels.
	levels := map[float64]bool{}
	for _, v := range out {
		levels[v] = true
	}
	if len(levels) > kmeansK {
		t.Errorf("posterized image has %d levels, want <= %d", len(levels), kmeansK)
	}
	if len(levels) < 2 {
		t.Error("degenerate clustering (single level)")
	}
	// Posterization should track the original image closely.
	im := in.(*kmeansInput).im
	diff := 0.0
	for i, v := range out {
		diff += math.Abs(v - im.Pix[i])
	}
	if diff/float64(len(out)) > 0.15 {
		t.Errorf("posterization diff %v too high", diff/float64(len(out)))
	}
}

func TestKMeansCentroidsSortedAndSeeded(t *testing.T) {
	b := NewKMeans()
	in := b.GenInput(mathx.NewRNG(6), TestScale()).(*kmeansInput)
	for i := 1; i < kmeansK; i++ {
		if in.centroids[i] < in.centroids[i-1] {
			t.Fatalf("centroids unsorted: %v", in.centroids)
		}
	}
	in2 := b.GenInput(mathx.NewRNG(6), TestScale()).(*kmeansInput)
	if in.centroids != in2.centroids {
		t.Error("same seed produced different centroids")
	}
}

func TestGenInputPanics(t *testing.T) {
	fft := NewFFT()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("non-power-of-two fft length should panic")
			}
		}()
		fft.GenInput(mathx.NewRNG(1), Scale{SignalLen: 100})
	}()
	jp := NewJPEG()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("sub-block jpeg image should panic")
			}
		}()
		jp.GenInput(mathx.NewRNG(1), Scale{ImageW: 4, ImageH: 4})
	}()
}

func TestScaleInvocationsMatchTableI(t *testing.T) {
	// At paper scale the invocation counts per dataset are Table I's
	// input sizes: 4096 options, 10000 coordinates/pairs, 512x512 pixels.
	p := PaperScale()
	counts := map[string]int{
		"blackscholes": 4096,
		"fft":          2047, // N-1 distinct twiddles for N=2048
		"inversek2j":   10000,
		"jmeint":       10000,
		"jpeg":         4096, // 64x64 blocks
		"sobel":        262144,
	}
	for _, b := range All() {
		in := b.GenInput(mathx.NewRNG(1), p)
		if got := in.Invocations(); got != counts[b.Name()] {
			t.Errorf("%s: %d invocations at paper scale, want %d", b.Name(), got, counts[b.Name()])
		}
	}
}

// referenceInverseDCT is the loop inverseDCT replaced: dctScale applied
// inside every term of every sum.
func referenceInverseDCT(src, dst *[64]float64) {
	var tmp [64]float64
	for u := 0; u < 8; u++ {
		for y := 0; y < 8; y++ {
			s := 0.0
			for v := 0; v < 8; v++ {
				s += dctScale(v) * src[v*8+u] * cosTable[y][v]
			}
			tmp[y*8+u] = s
		}
	}
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			s := 0.0
			for u := 0; u < 8; u++ {
				s += dctScale(u) * tmp[y*8+u] * cosTable[x][u]
			}
			dst[y*8+x] = 0.25 * s
		}
	}
}

// TestInverseDCTMatchesReference checks inverseDCT bit for bit against
// the per-term loop, on random blocks and on dequantized coefficient
// blocks like decodeBlock's. Quantization rounds small negative
// coefficients to −0, and an all-zero block must still decode to +0.
func TestInverseDCTMatchesReference(t *testing.T) {
	rng := mathx.NewRNG(29)
	var blocks [][64]float64
	for b := 0; b < 200; b++ {
		var raw, freq, deq [64]float64
		for i := range raw {
			raw[i] = rng.Range(-1000, 1000)
		}
		blocks = append(blocks, raw)
		// A pixel block through forwardDCT and quantization, the way
		// Precise and decodeBlock see it; a narrow pixel range leaves
		// most AC coefficients at ±0.
		var px [64]float64
		base, spread := rng.Range(-128, 127), rng.Range(0, 40)
		for i := range px {
			px[i] = base + rng.Range(-spread, spread)
		}
		forwardDCT(&px, &freq)
		for i := range deq {
			deq[i] = math.Round(freq[i]/quantTable[i]) * quantTable[i]
		}
		blocks = append(blocks, deq)
	}
	var zeros, negZeros [64]float64
	for i := range negZeros {
		negZeros[i] = math.Copysign(0, -1)
	}
	blocks = append(blocks, zeros, negZeros)
	sawNegZero := false
	for _, blk := range blocks {
		for _, c := range blk {
			sawNegZero = sawNegZero || (c == 0 && math.Signbit(c))
		}
	}
	if !sawNegZero {
		t.Fatal("no −0 coefficient among the test blocks")
	}
	for b := range blocks {
		var got, want [64]float64
		inverseDCT(&blocks[b], &got)
		referenceInverseDCT(&blocks[b], &want)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("block %d, pixel %d: %v (bits %x), reference %v (bits %x)",
					b, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}
}

// TestOwnersSharedPerShape checks every separable benchmark's owner
// declaration: one owner per output element, each a valid invocation,
// and one slice shared by every dataset of the same shape.
func TestOwnersSharedPerShape(t *testing.T) {
	for _, name := range append(Names(), Extensions()...) {
		b, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		s, ok := b.(Separable)
		if !ok {
			continue
		}
		in1 := b.GenInput(mathx.NewRNG(1), TestScale())
		in2 := b.GenInput(mathx.NewRNG(2), TestScale())
		o1, o2 := s.Owners(in1), s.Owners(in2)
		out := b.Run(in1, b.Precise)
		if len(o1) != len(out) {
			t.Fatalf("%s: %d owners for %d outputs", name, len(o1), len(out))
		}
		for e, o := range o1 {
			if o < 0 || o >= in1.Invocations() {
				t.Fatalf("%s: output %d owned by invocation %d of %d", name, e, o, in1.Invocations())
			}
		}
		if &o1[0] != &o2[0] {
			t.Errorf("%s: two datasets of one shape got separate owner slices", name)
		}
	}
}
