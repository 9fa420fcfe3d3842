package axbench

import (
	"math"
	"sort"

	"mithra/internal/dataset"
	"mithra/internal/mathx"
	"mithra/internal/quality"
)

// KMeans is an extension benchmark beyond the paper's Table I: the
// AxBench k-means image clustering application (its NPU topology,
// 6->8->4->1, is the one the AxBench suite ships). Centroids are fitted
// precisely with a few Lloyd iterations over a pixel sample; the hot,
// safe-to-approximate kernel is the per-pixel assignment — given the
// pixel and the five non-background centroids, return the centroid value
// the pixel maps to. The final output is the posterized image and quality
// is image diff.
//
// It is registered separately from the paper's suite (Extensions) so the
// figure reproductions stay faithful, but exercises every pipeline stage
// and is available to the CLI and examples.
type KMeans struct{ owners ownerCache }

// kmeansK is the cluster count (kernel input = pixel + (kmeansK-1)
// non-trivial centroids = 6 values, matching the 6-input topology).
const kmeansK = 5

// NewKMeans returns the extension benchmark.
func NewKMeans() *KMeans { return &KMeans{} }

// Name implements Benchmark.
func (*KMeans) Name() string { return "kmeans" }

// Domain implements Benchmark.
func (*KMeans) Domain() string { return "Machine Learning" }

// InputDim implements Benchmark.
func (*KMeans) InputDim() int { return 1 + kmeansK }

// OutputDim implements Benchmark.
func (*KMeans) OutputDim() int { return 1 }

// Topology implements Benchmark (AxBench's kmeans NPU).
func (*KMeans) Topology() []int { return []int{6, 8, 4, 1} }

// Metric implements Benchmark.
func (*KMeans) Metric() quality.Metric { return quality.ImageDiff{} }

// Profile implements Benchmark: the assignment kernel is a k-way distance
// scan (~160 cycles); most of the runtime is per-pixel assignment.
func (*KMeans) Profile() Profile {
	return Profile{KernelCycles: 160, KernelFraction: 0.65}
}

// kmeansInput is one dataset: an image plus its precisely-fitted
// centroids (sorted ascending, so the kernel's input layout is stable).
type kmeansInput struct {
	im        *dataset.Image
	centroids [kmeansK]float64
}

// Invocations implements Input.
func (k *kmeansInput) Invocations() int { return k.im.W * k.im.H }

// GenInput implements Benchmark: synthesize the image and fit centroids
// with Lloyd's algorithm on a pixel sample (the non-accelerated prologue
// of the application).
func (km *KMeans) GenInput(rng *mathx.RNG, scale Scale) Input {
	im := dataset.GenImage(rng, scale.ImageW, scale.ImageH)
	in := &kmeansInput{im: im}
	in.centroids = fitCentroids(im, rng)
	return in
}

func fitCentroids(im *dataset.Image, rng *mathx.RNG) [kmeansK]float64 {
	// Initialize spread across the intensity range, then run Lloyd on a
	// bounded sample.
	var c [kmeansK]float64
	for i := range c {
		c[i] = (float64(i) + 0.5) / kmeansK
	}
	sample := im.Pix
	if len(sample) > 4096 {
		stride := len(sample) / 4096
		s := make([]float64, 0, 4096)
		for i := 0; i < len(sample); i += stride {
			s = append(s, sample[i])
		}
		sample = s
	}
	for iter := 0; iter < 6; iter++ {
		var sum, cnt [kmeansK]float64
		for _, p := range sample {
			best := 0
			bestD := math.Abs(p - c[0])
			for j := 1; j < kmeansK; j++ {
				if d := math.Abs(p - c[j]); d < bestD {
					best, bestD = j, d
				}
			}
			sum[best] += p
			cnt[best]++
		}
		for j := range c {
			if cnt[j] > 0 {
				c[j] = sum[j] / cnt[j]
			} else {
				// Re-seed an empty cluster.
				c[j] = rng.Float64()
			}
		}
	}
	sort.Float64s(c[:])
	return c
}

// Run implements Benchmark.
func (km *KMeans) Run(in Input, invoke Invoker) []float64 {
	data := in.(*kmeansInput)
	im := data.im
	out := make([]float64, im.W*im.H)
	kin := make([]float64, 1+kmeansK)
	kout := make([]float64, 1)
	copy(kin[1:], data.centroids[:])
	for i, p := range im.Pix {
		kin[0] = p
		invoke(kin, kout)
		out[i] = mathx.Clamp(kout[0], 0, 1)
	}
	return out
}

// Precise implements Benchmark: nearest-centroid assignment, returning
// the centroid's value (the posterized intensity).
func (*KMeans) Precise(in, out []float64) {
	p := in[0]
	best := in[1]
	bestD := math.Abs(p - in[1])
	for j := 2; j <= kmeansK; j++ {
		if d := math.Abs(p - in[j]); d < bestD {
			best, bestD = in[j], d
		}
	}
	out[0] = best
}

// Owners implements Separable: pixel i is invocation i's output.
func (km *KMeans) Owners(in Input) []int {
	return km.owners.elementOwners(in.Invocations(), 1)
}
