package axbench

import (
	"math"

	"mithra/internal/dataset"
	"mithra/internal/mathx"
	"mithra/internal/quality"
)

// Arm link lengths for the 2-joint kinematics benchmark (unit arm, equal
// links — the AxBench configuration).
const (
	armL1 = 0.5
	armL2 = 0.5
)

// InverseK2J computes inverse kinematics for a 2-joint robotic arm: given
// a target end-effector position (x, y), find the joint angles
// (theta1, theta2). The kernel is the closed-form elbow-up solution; the
// application solves a stream of target positions.
type InverseK2J struct{ owners ownerCache }

// NewInverseK2J returns the benchmark.
func NewInverseK2J() *InverseK2J { return &InverseK2J{} }

// Name implements Benchmark.
func (*InverseK2J) Name() string { return "inversek2j" }

// Domain implements Benchmark.
func (*InverseK2J) Domain() string { return "Robotics" }

// InputDim implements Benchmark.
func (*InverseK2J) InputDim() int { return 2 }

// OutputDim implements Benchmark.
func (*InverseK2J) OutputDim() int { return 2 }

// Topology implements Benchmark (Table I: 2->8->2).
func (*InverseK2J) Topology() []int { return []int{2, 8, 2} }

// Metric implements Benchmark.
func (*InverseK2J) Metric() quality.Metric { return quality.AvgRelativeError{} }

// Profile implements Benchmark: acos/atan2-dominated kernel (~2000
// cycles); the application is almost pure kernel, which is why the NPU
// paper reports its largest gains here.
func (*InverseK2J) Profile() Profile {
	return Profile{KernelCycles: 2000, KernelFraction: 0.92}
}

// pointsInput is one dataset: a stream of reachable target positions.
type pointsInput struct {
	pts []dataset.Point2D
}

// Invocations implements Input.
func (p *pointsInput) Invocations() int { return len(p.pts) }

// GenInput implements Benchmark.
func (*InverseK2J) GenInput(rng *mathx.RNG, scale Scale) Input {
	return &pointsInput{pts: dataset.GenReachablePoints(rng, scale.Points, armL1, armL2)}
}

// Run implements Benchmark.
func (b *InverseK2J) Run(in Input, invoke Invoker) []float64 {
	data := in.(*pointsInput)
	out := make([]float64, 2*len(data.pts))
	kin := make([]float64, 2)
	kout := make([]float64, 2)
	for i, p := range data.pts {
		kin[0], kin[1] = p.X, p.Y
		invoke(kin, kout)
		out[2*i] = kout[0]
		out[2*i+1] = kout[1]
	}
	return out
}

// Precise implements Benchmark: the closed-form elbow-up inverse
// kinematics solution.
func (*InverseK2J) Precise(in, out []float64) {
	x, y := in[0], in[1]
	c2 := (x*x + y*y - armL1*armL1 - armL2*armL2) / (2 * armL1 * armL2)
	c2 = mathx.Clamp(c2, -1, 1)
	theta2 := math.Acos(c2)
	theta1 := math.Atan2(y, x) - math.Atan2(armL2*math.Sin(theta2), armL1+armL2*math.Cos(theta2))
	out[0] = theta1
	out[1] = theta2
}

// Owners implements Separable: point i's two joint angles are invocation
// i's outputs.
func (b *InverseK2J) Owners(in Input) []int {
	return b.owners.elementOwners(in.Invocations(), 2)
}
