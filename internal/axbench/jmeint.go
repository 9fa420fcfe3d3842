package axbench

import (
	"math"

	"mithra/internal/dataset"
	"mithra/internal/mathx"
	"mithra/internal/quality"
)

// Jmeint detects whether pairs of 3D triangles intersect — the jMonkeyEngine
// collision-detection kernel used in 3D gaming workloads. The kernel takes
// the 18 coordinates of a triangle pair and emits two scores, one per
// class (intersecting / non-intersecting); the larger score wins, matching
// the NPU topology's two output neurons. The final output is one boolean
// per pair and quality is the miss rate.
type Jmeint struct{ owners ownerCache }

// NewJmeint returns the benchmark.
func NewJmeint() *Jmeint { return &Jmeint{} }

// Name implements Benchmark.
func (*Jmeint) Name() string { return "jmeint" }

// Domain implements Benchmark.
func (*Jmeint) Domain() string { return "3D Gaming" }

// InputDim implements Benchmark.
func (*Jmeint) InputDim() int { return 18 }

// OutputDim implements Benchmark.
func (*Jmeint) OutputDim() int { return 2 }

// Topology implements Benchmark (Table I: 18->32->8->2).
func (*Jmeint) Topology() []int { return []int{18, 32, 8, 2} }

// Metric implements Benchmark.
func (*Jmeint) Metric() quality.Metric { return quality.MissRate{} }

// Profile implements Benchmark: the Moller test is branch- and
// cross-product-heavy (~1100 cycles); a bit over half the baseline
// runtime is kernel.
func (*Jmeint) Profile() Profile {
	return Profile{KernelCycles: 1100, KernelFraction: 0.55}
}

// pairsInput is one dataset: a soup of triangle pairs.
type pairsInput struct {
	pairs []dataset.TrianglePair
}

// Invocations implements Input.
func (p *pairsInput) Invocations() int { return len(p.pairs) }

// GenInput implements Benchmark.
func (*Jmeint) GenInput(rng *mathx.RNG, scale Scale) Input {
	return &pairsInput{pairs: dataset.GenTrianglePairs(rng, scale.Pairs)}
}

// Run implements Benchmark.
func (b *Jmeint) Run(in Input, invoke Invoker) []float64 {
	data := in.(*pairsInput)
	out := make([]float64, len(data.pairs))
	kin := make([]float64, 18)
	kout := make([]float64, 2)
	for i, tp := range data.pairs {
		copy(kin, tp.Vector())
		invoke(kin, kout)
		if kout[0] >= kout[1] {
			out[i] = 1
		} else {
			out[i] = 0
		}
	}
	return out
}

// Precise implements Benchmark: Moller's triangle-triangle interval
// overlap test. Output is one-hot: (1,0) for intersecting, (0,1) for
// disjoint.
func (*Jmeint) Precise(in, out []float64) {
	var t1, t2 [3][3]float64
	for v := 0; v < 3; v++ {
		for c := 0; c < 3; c++ {
			t1[v][c] = in[v*3+c]
			t2[v][c] = in[9+v*3+c]
		}
	}
	if triTriIntersect(t1, t2) {
		out[0], out[1] = 1, 0
	} else {
		out[0], out[1] = 0, 1
	}
}

// --- 3D vector helpers -----------------------------------------------------

func sub3(a, b [3]float64) [3]float64 {
	return [3]float64{a[0] - b[0], a[1] - b[1], a[2] - b[2]}
}

func cross3(a, b [3]float64) [3]float64 {
	return [3]float64{
		a[1]*b[2] - a[2]*b[1],
		a[2]*b[0] - a[0]*b[2],
		a[0]*b[1] - a[1]*b[0],
	}
}

func dot3(a, b [3]float64) float64 {
	return a[0]*b[0] + a[1]*b[1] + a[2]*b[2]
}

// triTriIntersect implements Moller's 1997 interval-overlap test.
func triTriIntersect(t1, t2 [3][3]float64) bool {
	const eps = 1e-12

	// Plane of t1: n1 . x + d1 = 0.
	e1 := sub3(t1[1], t1[0])
	e2 := sub3(t1[2], t1[0])
	n1 := cross3(e1, e2)
	d1 := -dot3(n1, t1[0])

	// Signed distances of t2's vertices to plane 1.
	var du [3]float64
	for i := 0; i < 3; i++ {
		du[i] = dot3(n1, t2[i]) + d1
		if math.Abs(du[i]) < eps {
			du[i] = 0
		}
	}
	if du[0]*du[1] > 0 && du[0]*du[2] > 0 {
		return false // t2 entirely on one side
	}

	// Plane of t2.
	e1 = sub3(t2[1], t2[0])
	e2 = sub3(t2[2], t2[0])
	n2 := cross3(e1, e2)
	d2 := -dot3(n2, t2[0])

	var dv [3]float64
	for i := 0; i < 3; i++ {
		dv[i] = dot3(n2, t1[i]) + d2
		if math.Abs(dv[i]) < eps {
			dv[i] = 0
		}
	}
	if dv[0]*dv[1] > 0 && dv[0]*dv[2] > 0 {
		return false
	}

	// Direction of the intersection line.
	dir := cross3(n1, n2)

	if dot3(dir, dir) < eps {
		// Coplanar (or degenerate) triangles.
		return coplanarTriTri(n1, t1, t2)
	}

	// Project onto the largest component of dir.
	axis := 0
	maxc := math.Abs(dir[0])
	if math.Abs(dir[1]) > maxc {
		axis, maxc = 1, math.Abs(dir[1])
	}
	if math.Abs(dir[2]) > maxc {
		axis = 2
	}
	var p1, p2 [3]float64
	for i := 0; i < 3; i++ {
		p1[i] = t1[i][axis]
		p2[i] = t2[i][axis]
	}

	iso1, ok1 := computeIntervals(p1, dv)
	iso2, ok2 := computeIntervals(p2, du)
	if !ok1 || !ok2 {
		return coplanarTriTri(n1, t1, t2)
	}
	lo1, hi1 := math.Min(iso1[0], iso1[1]), math.Max(iso1[0], iso1[1])
	lo2, hi2 := math.Min(iso2[0], iso2[1]), math.Max(iso2[0], iso2[1])
	return hi1 >= lo2 && hi2 >= lo1
}

// computeIntervals finds the scalar interval where the triangle with
// projected coordinates p and signed plane distances d crosses the
// intersection line. ok is false when the triangle does not properly
// straddle the plane (the coplanar case).
func computeIntervals(p, d [3]float64) (iso [2]float64, ok bool) {
	// Find the vertex on one side and the two on the other.
	idx := -1
	switch {
	case d[0]*d[1] > 0: // 0 and 1 same side => 2 is alone
		idx = 2
	case d[0]*d[2] > 0: // 0 and 2 same side => 1 is alone
		idx = 1
	case d[1]*d[2] > 0: // 1 and 2 same side => 0 is alone
		idx = 0
	default:
		// Some distances are zero: pick any nonzero vertex as the lone
		// one; fully coplanar triangles are handled by the caller.
		for i := 0; i < 3; i++ {
			if d[i] != 0 {
				idx = i
				break
			}
		}
		if idx == -1 {
			return iso, false
		}
	}
	a, b := (idx+1)%3, (idx+2)%3
	iso[0] = intervalPoint(p[idx], p[a], d[idx], d[a])
	iso[1] = intervalPoint(p[idx], p[b], d[idx], d[b])
	return iso, true
}

// intervalPoint interpolates the crossing parameter between the lone
// vertex and one of the paired vertices.
func intervalPoint(pLone, pOther, dLone, dOther float64) float64 {
	denom := dLone - dOther
	if denom == 0 {
		return pLone
	}
	return pLone + (pOther-pLone)*dLone/denom
}

// coplanarTriTri tests coplanar triangles by 2D edge intersections and
// containment, projected onto the dominant plane of n.
func coplanarTriTri(n [3]float64, t1, t2 [3][3]float64) bool {
	// Choose projection axes dropping the dominant normal component.
	ax, ay := 0, 1
	an := [3]float64{math.Abs(n[0]), math.Abs(n[1]), math.Abs(n[2])}
	switch {
	case an[0] >= an[1] && an[0] >= an[2]:
		ax, ay = 1, 2
	case an[1] >= an[0] && an[1] >= an[2]:
		ax, ay = 0, 2
	}
	var a, b [3][2]float64
	for i := 0; i < 3; i++ {
		a[i] = [2]float64{t1[i][ax], t1[i][ay]}
		b[i] = [2]float64{t2[i][ax], t2[i][ay]}
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if segIntersect2D(a[i], a[(i+1)%3], b[j], b[(j+1)%3]) {
				return true
			}
		}
	}
	return pointInTri2D(a[0], b) || pointInTri2D(b[0], a)
}

func segIntersect2D(p1, p2, q1, q2 [2]float64) bool {
	d1 := orient2D(q1, q2, p1)
	d2 := orient2D(q1, q2, p2)
	d3 := orient2D(p1, p2, q1)
	d4 := orient2D(p1, p2, q2)
	if ((d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0)) &&
		((d3 > 0 && d4 < 0) || (d3 < 0 && d4 > 0)) {
		return true
	}
	return false
}

func orient2D(a, b, c [2]float64) float64 {
	return (b[0]-a[0])*(c[1]-a[1]) - (b[1]-a[1])*(c[0]-a[0])
}

func pointInTri2D(p [2]float64, tri [3][2]float64) bool {
	d0 := orient2D(tri[0], tri[1], p)
	d1 := orient2D(tri[1], tri[2], p)
	d2 := orient2D(tri[2], tri[0], p)
	hasNeg := d0 < 0 || d1 < 0 || d2 < 0
	hasPos := d0 > 0 || d1 > 0 || d2 > 0
	return !(hasNeg && hasPos)
}

// Owners implements Separable: pair i's verdict is invocation i's output.
func (b *Jmeint) Owners(in Input) []int {
	return b.owners.elementOwners(in.Invocations(), 1)
}
