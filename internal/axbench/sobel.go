package axbench

import (
	"math"

	"mithra/internal/dataset"
	"mithra/internal/mathx"
	"mithra/internal/quality"
)

// Sobel applies the Sobel edge-detection operator to a grayscale image.
// The kernel maps a 3x3 pixel window to the gradient magnitude of its
// center pixel; the application convolves the whole image and the final
// output is the gradient image.
type Sobel struct{ owners ownerCache }

// NewSobel returns the benchmark.
func NewSobel() *Sobel { return &Sobel{} }

// Name implements Benchmark.
func (*Sobel) Name() string { return "sobel" }

// Domain implements Benchmark.
func (*Sobel) Domain() string { return "Image Processing" }

// InputDim implements Benchmark.
func (*Sobel) InputDim() int { return 9 }

// OutputDim implements Benchmark.
func (*Sobel) OutputDim() int { return 1 }

// Topology implements Benchmark (Table I: 9->8->1).
func (*Sobel) Topology() []int { return []int{9, 8, 1} }

// Metric implements Benchmark.
func (*Sobel) Metric() quality.Metric { return quality.ImageDiff{} }

// Profile implements Benchmark: two 3x3 convolutions plus a square root
// (~300 cycles); roughly 70% of the baseline runtime is kernel.
func (*Sobel) Profile() Profile {
	return Profile{KernelCycles: 300, KernelFraction: 0.70}
}

// imageInput is one dataset: a grayscale image.
type imageInput struct {
	im *dataset.Image
}

// Invocations implements Input: one kernel call per pixel.
func (i *imageInput) Invocations() int { return i.im.W * i.im.H }

// GenInput implements Benchmark.
func (*Sobel) GenInput(rng *mathx.RNG, scale Scale) Input {
	return &imageInput{im: dataset.GenImage(rng, scale.ImageW, scale.ImageH)}
}

// Run implements Benchmark.
func (s *Sobel) Run(in Input, invoke Invoker) []float64 {
	data := in.(*imageInput)
	im := data.im
	out := make([]float64, im.W*im.H)
	kin := make([]float64, 9)
	kout := make([]float64, 1)
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			idx := 0
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					kin[idx] = im.At(x+dx, y+dy)
					idx++
				}
			}
			invoke(kin, kout)
			out[y*im.W+x] = mathx.Clamp(kout[0], 0, 1)
		}
	}
	return out
}

// Precise implements Benchmark: gradient magnitude of the 3x3 window with
// the standard Sobel masks, normalized into [0, 1].
func (*Sobel) Precise(in, out []float64) {
	// Window layout: in[3*r+c], r/c in 0..2.
	gx := (in[2] + 2*in[5] + in[8]) - (in[0] + 2*in[3] + in[6])
	gy := (in[6] + 2*in[7] + in[8]) - (in[0] + 2*in[1] + in[2])
	// Max |gx| = max |gy| = 4, so the magnitude is normalized by 4*sqrt2.
	out[0] = math.Hypot(gx, gy) / (4 * math.Sqrt2)
}

// Owners implements Separable: pixels are invoked in row-major order, so
// pixel i is invocation i's output.
func (s *Sobel) Owners(in Input) []int {
	return s.owners.elementOwners(in.Invocations(), 1)
}
