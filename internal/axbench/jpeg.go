package axbench

import (
	"math"

	"mithra/internal/dataset"
	"mithra/internal/mathx"
	"mithra/internal/quality"
)

// JPEG performs the compute core of baseline JPEG encoding: each 8x8
// pixel block goes through the forward DCT and quantization. That block
// transform (64 pixels in, 64 quantized coefficients out) is the
// approximated kernel — matching the paper's 64->16->64 NPU topology. The
// application encodes the whole image, then decodes it (dequantization +
// inverse DCT) so quality can be measured as image diff between the
// approximately-encoded and precisely-encoded reconstructions.
type JPEG struct{ owners ownerCache }

// NewJPEG returns the benchmark.
func NewJPEG() *JPEG { return &JPEG{} }

// Name implements Benchmark.
func (*JPEG) Name() string { return "jpeg" }

// Domain implements Benchmark.
func (*JPEG) Domain() string { return "Compression" }

// InputDim implements Benchmark.
func (*JPEG) InputDim() int { return 64 }

// OutputDim implements Benchmark.
func (*JPEG) OutputDim() int { return 64 }

// Topology implements Benchmark (Table I: 64->16->64).
func (*JPEG) Topology() []int { return []int{64, 16, 64} }

// Metric implements Benchmark.
func (*JPEG) Metric() quality.Metric { return quality.ImageDiff{} }

// Profile implements Benchmark: the 2D DCT plus quantization of a block
// costs ~2500 cycles with a separable implementation; ~60% of encoder
// runtime is block transform.
func (*JPEG) Profile() Profile {
	return Profile{KernelCycles: 2500, KernelFraction: 0.60}
}

// jpegInput is one dataset: a grayscale image whose dimensions are
// multiples of 8 (GenInput pads by construction of the scale).
type jpegInput struct {
	im *dataset.Image
}

// Invocations implements Input: one kernel call per 8x8 block.
func (j *jpegInput) Invocations() int { return (j.im.W / 8) * (j.im.H / 8) }

// GenInput implements Benchmark. Image dimensions are rounded down to
// multiples of 8.
func (*JPEG) GenInput(rng *mathx.RNG, scale Scale) Input {
	w := scale.ImageW &^ 7
	h := scale.ImageH &^ 7
	if w == 0 || h == 0 {
		panic("axbench: jpeg needs images of at least 8x8")
	}
	return &jpegInput{im: dataset.GenImage(rng, w, h)}
}

// Run implements Benchmark: encode every block through the invoker, then
// decode precisely and emit the reconstructed pixels.
func (j *JPEG) Run(in Input, invoke Invoker) []float64 {
	data := in.(*jpegInput)
	im := data.im
	out := make([]float64, im.W*im.H)
	kin := make([]float64, 64)
	kout := make([]float64, 64)
	var block [64]float64
	for by := 0; by < im.H; by += 8 {
		for bx := 0; bx < im.W; bx += 8 {
			for y := 0; y < 8; y++ {
				for x := 0; x < 8; x++ {
					kin[y*8+x] = im.At(bx+x, by+y)
				}
			}
			invoke(kin, kout)
			decodeBlock(kout, &block)
			for y := 0; y < 8; y++ {
				for x := 0; x < 8; x++ {
					out[(by+y)*im.W+(bx+x)] = block[y*8+x]
				}
			}
		}
	}
	return out
}

// Owners implements Separable: each pixel is decoded from its 8x8 block's
// coefficients, and blocks are invoked in row-major block order.
func (j *JPEG) Owners(in Input) []int {
	im := in.(*jpegInput).im
	w, h := im.W, im.H
	return j.owners.get([2]int{w, h}, func() []int {
		o := make([]int, w*h)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				o[y*w+x] = (y/8)*(w/8) + x/8
			}
		}
		return o
	})
}

// Precise implements Benchmark: level shift, forward 2D DCT, quantize.
func (*JPEG) Precise(in, out []float64) {
	var shifted [64]float64
	for i, p := range in {
		shifted[i] = p*255 - 128
	}
	var freq [64]float64
	forwardDCT(&shifted, &freq)
	for i := range out {
		out[i] = math.Round(freq[i] / quantTable[i])
	}
}

// decodeBlock dequantizes and inverse-transforms coefficients back to
// pixel intensities in [0, 1].
func decodeBlock(coeffs []float64, dst *[64]float64) {
	var freq [64]float64
	for i := range freq {
		freq[i] = coeffs[i] * quantTable[i]
	}
	var spatial [64]float64
	inverseDCT(&freq, &spatial)
	for i := range dst {
		dst[i] = mathx.Clamp((spatial[i]+128)/255, 0, 1)
	}
}

// quantTable is the standard JPEG luminance quantization table (Annex K),
// row-major over (v, u).
var quantTable = [64]float64{
	16, 11, 10, 16, 24, 40, 51, 61,
	12, 12, 14, 19, 26, 58, 60, 55,
	14, 13, 16, 24, 40, 57, 69, 56,
	14, 17, 22, 29, 51, 87, 80, 62,
	18, 22, 37, 56, 68, 109, 103, 77,
	24, 35, 55, 64, 81, 104, 113, 92,
	49, 64, 78, 87, 103, 121, 120, 101,
	72, 92, 95, 98, 112, 100, 103, 99,
}

// cosTable[x][u] = cos((2x+1) u pi / 16); the separable DCT basis.
var cosTable = func() (t [8][8]float64) {
	for x := 0; x < 8; x++ {
		for u := 0; u < 8; u++ {
			t[x][u] = math.Cos(float64(2*x+1) * float64(u) * math.Pi / 16)
		}
	}
	return
}()

func dctScale(u int) float64 {
	if u == 0 {
		return 1 / math.Sqrt2
	}
	return 1
}

// forwardDCT computes the 2D DCT-II of an 8x8 block, separably (rows then
// columns).
func forwardDCT(src, dst *[64]float64) {
	var tmp [64]float64
	// Rows.
	for y := 0; y < 8; y++ {
		for u := 0; u < 8; u++ {
			s := 0.0
			for x := 0; x < 8; x++ {
				s += src[y*8+x] * cosTable[x][u]
			}
			tmp[y*8+u] = s
		}
	}
	// Columns.
	for u := 0; u < 8; u++ {
		for v := 0; v < 8; v++ {
			s := 0.0
			for y := 0; y < 8; y++ {
				s += tmp[y*8+u] * cosTable[y][v]
			}
			dst[v*8+u] = 0.25 * dctScale(u) * dctScale(v) * s
		}
	}
}

// inverseDCT computes the 2D DCT-III (inverse of forwardDCT). Each
// output is Σ (dctScale(v)·src[v*8+u])·cosTable[y][v], summed in v order
// from 0.0; the scaled coefficients are formed once per column (and per
// row in the second pass) rather than once per output.
func inverseDCT(src, dst *[64]float64) {
	var tmp [64]float64
	var c [8]float64
	// Columns.
	for u := 0; u < 8; u++ {
		for v := range c {
			c[v] = dctScale(v) * src[v*8+u]
		}
		for y := 0; y < 8; y++ {
			tmp[y*8+u] = dot8(&c, &cosTable[y])
		}
	}
	// Rows.
	for y := 0; y < 8; y++ {
		for u := range c {
			c[u] = dctScale(u) * tmp[y*8+u]
		}
		for x := 0; x < 8; x++ {
			dst[y*8+x] = 0.25 * dot8(&c, &cosTable[x])
		}
	}
}

// dot8 is Σ a[i]·b[i], summed in index order from 0.0 (so a sum of −0
// products is +0, as in a loop).
func dot8(a, b *[8]float64) float64 {
	s := 0.0
	s += a[0] * b[0]
	s += a[1] * b[1]
	s += a[2] * b[2]
	s += a[3] * b[3]
	s += a[4] * b[4]
	s += a[5] * b[5]
	s += a[6] * b[6]
	s += a[7] * b[7]
	return s
}
