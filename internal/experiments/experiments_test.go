package experiments

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"mithra/internal/core"
)

// The suite is expensive to build; share one across all tests in the
// package.
var (
	suiteOnce sync.Once
	suiteVal  *Suite
	suiteErr  error
)

func testSuite(t *testing.T) *Suite {
	t.Helper()
	suiteOnce.Do(func() {
		suiteVal, suiteErr = NewSuite(TestConfig())
	})
	if suiteErr != nil {
		t.Fatal(suiteErr)
	}
	return suiteVal
}

func TestNewSuiteValidation(t *testing.T) {
	bad := TestConfig()
	bad.Benchmarks = nil
	if _, err := NewSuite(bad); err == nil {
		t.Error("no benchmarks should error")
	}
	bad = TestConfig()
	bad.QualityLevels = nil
	if _, err := NewSuite(bad); err == nil {
		t.Error("no quality levels should error")
	}
	bad = TestConfig()
	bad.Benchmarks = []string{"nosuch"}
	if _, err := NewSuite(bad); err == nil {
		t.Error("unknown benchmark should error")
	}
}

func TestSuiteCaching(t *testing.T) {
	s := testSuite(t)
	c1, err := s.Context("inversek2j")
	if err != nil {
		t.Fatal(err)
	}
	c2, err := s.Context("inversek2j")
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Error("contexts not cached")
	}
	d1, err := s.Deployment("inversek2j", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := s.Deployment("inversek2j", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Error("deployments not cached")
	}
	d3, err := s.Deployment("inversek2j", 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if d1 == d3 {
		t.Error("different quality levels share a deployment")
	}
}

func TestFig1(t *testing.T) {
	s := testSuite(t)
	r, err := s.Fig1(11)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != len(s.Cfg.Benchmarks) {
		t.Fatalf("series count %d", len(r.Series))
	}
	for _, ser := range r.Series {
		if len(ser.X) != len(ser.Y) || len(ser.Y) == 0 {
			t.Fatalf("series %s malformed", ser.Name)
		}
		// CDF must be monotone and end at 1.
		for i := 1; i < len(ser.Y); i++ {
			if ser.Y[i] < ser.Y[i-1] {
				t.Fatalf("series %s not monotone", ser.Name)
			}
		}
		if ser.Y[len(ser.Y)-1] != 1 {
			t.Errorf("series %s does not reach 1", ser.Name)
		}
	}
}

func TestTable1(t *testing.T) {
	s := testSuite(t)
	r, err := s.Table1()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		if row.FullApproxError <= 0 || row.FullApproxError > 0.9 {
			t.Errorf("%s: full approx error %v implausible", row.Name, row.FullApproxError)
		}
		if row.Invocations <= 0 || row.Topology == "" {
			t.Errorf("%s: malformed row %+v", row.Name, row)
		}
	}
}

func TestTable2(t *testing.T) {
	s := testSuite(t)
	r, err := s.Table2()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		if row.TableCompressedKB <= 0 || row.TableCompressedKB > row.TableUncompressedKB+0.1 {
			t.Errorf("%s: compression out of range: %+v", row.Name, row)
		}
		if row.NeuralKB <= 0 || !strings.Contains(row.NeuralTopology, "->") {
			t.Errorf("%s: neural fields malformed: %+v", row.Name, row)
		}
	}
}

func TestFig6ShapeProperties(t *testing.T) {
	s := testSuite(t)
	r, err := s.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	want := len(s.Cfg.QualityLevels) * 3
	if len(r.Points) != want {
		t.Fatalf("points = %d, want %d", len(r.Points), want)
	}
	// Index points by (quality, design).
	at := map[[2]interface{}]TradeoffPoint{}
	for _, p := range r.Points {
		at[[2]interface{}{p.Quality, p.Design}] = p
	}
	for _, q := range s.Cfg.QualityLevels {
		oracle := at[[2]interface{}{q, core.DesignOracle}]
		if oracle.Speedup < 1 {
			t.Errorf("oracle speedup %v below 1 at q=%v", oracle.Speedup, q)
		}
	}
	// Looser quality must not reduce the oracle's invocation rate.
	qs := s.Cfg.QualityLevels
	for i := 1; i < len(qs); i++ {
		lo := at[[2]interface{}{qs[i-1], core.DesignOracle}]
		hi := at[[2]interface{}{qs[i], core.DesignOracle}]
		if hi.InvocationRate < lo.InvocationRate-1e-9 {
			t.Errorf("oracle invocation rate decreased with looser quality: %v->%v",
				lo.InvocationRate, hi.InvocationRate)
		}
	}
}

func TestFig7RatesInRange(t *testing.T) {
	s := testSuite(t)
	r, err := s.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range r.Points {
		if p.FPRate < 0 || p.FPRate > 1 || p.FNRate < 0 || p.FNRate > 1 {
			t.Errorf("rates out of range: %+v", p)
		}
	}
}

func TestFig8CoversAllCells(t *testing.T) {
	s := testSuite(t)
	r, err := s.Fig8()
	if err != nil {
		t.Fatal(err)
	}
	want := len(s.Cfg.Benchmarks) * len(s.Cfg.QualityLevels) * 3
	if len(r.Points) != want {
		t.Fatalf("points = %d, want %d", len(r.Points), want)
	}
}

func TestFig9RelativeGains(t *testing.T) {
	s := testSuite(t)
	r, err := s.Fig9()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(s.Cfg.Benchmarks)*2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.SpeedupVsRand <= 0 || row.EnergyVsRand <= 0 {
			t.Errorf("non-positive relative gain: %+v", row)
		}
	}
}

func TestFig10GuaranteeCostsBenefits(t *testing.T) {
	s := testSuite(t)
	r, err := s.Fig10([]float64{0.3, 0.6})
	if err != nil {
		t.Fatal(err)
	}
	// For the oracle, a stricter success rate must not loosen the
	// threshold.
	var lowTh, highTh float64
	for _, p := range r.Points {
		if p.Design != core.DesignOracle {
			continue
		}
		if p.SuccessRate == 0.3 {
			lowTh = p.Threshold
		} else {
			highTh = p.Threshold
		}
	}
	if highTh > lowTh+1e-9 {
		t.Errorf("stricter success rate loosened threshold: %v -> %v", lowTh, highTh)
	}
}

func TestFig11ParetoShape(t *testing.T) {
	s := testSuite(t)
	r, err := s.Fig11()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 16 {
		t.Fatalf("points = %d, want 16", len(r.Points))
	}
	for _, p := range r.Points {
		if p.InvocationRate < 0 || p.InvocationRate > 1 {
			t.Errorf("invocation rate out of range: %+v", p)
		}
	}
}

func TestSoftwareSlowdownPositive(t *testing.T) {
	s := testSuite(t)
	r, err := s.SoftwareSlowdown()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		if row.TableSlowdown <= 1 {
			t.Errorf("%s: table software slowdown %v should exceed 1", row.Benchmark, row.TableSlowdown)
		}
		if row.NeuralSlowdown <= 1 {
			t.Errorf("%s: neural software slowdown %v should exceed 1", row.Benchmark, row.NeuralSlowdown)
		}
	}
}

func TestAblations(t *testing.T) {
	s := testSuite(t)
	for _, f := range []func() (*Table, error){
		func() (*Table, error) { return s.AblationCombine() },
		func() (*Table, error) { return s.AblationSearch() },
		func() (*Table, error) { return s.AblationOnline(8) },
		func() (*Table, error) { return s.AblationQuantBits() },
	} {
		tab, err := f()
		if err != nil {
			t.Fatal(err)
		}
		if len(tab.Rows) == 0 {
			t.Errorf("%s: no rows", tab.ID)
		}
	}
}

func TestRunOneAndRender(t *testing.T) {
	s := testSuite(t)
	var buf bytes.Buffer
	if err := RunOne(s, "table1", &buf, FormatText); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "table1") || !strings.Contains(out, "inversek2j") {
		t.Errorf("render missing content:\n%s", out)
	}
	if err := RunOne(s, "nosuch", &buf, FormatText); err == nil {
		t.Error("unknown experiment should error")
	}
}

func TestRunnersHaveUniqueIDs(t *testing.T) {
	seen := map[string]bool{}
	for _, r := range Runners() {
		if seen[r.ID] {
			t.Errorf("duplicate runner id %q", r.ID)
		}
		seen[r.ID] = true
		if r.Descr == "" {
			t.Errorf("runner %q missing description", r.ID)
		}
	}
	if len(seen) < 14 {
		t.Errorf("only %d runners registered", len(seen))
	}
}

func TestExtensionExperiments(t *testing.T) {
	s := testSuite(t)
	km, err := s.ExtKMeans()
	if err != nil {
		t.Fatal(err)
	}
	if len(km.Rows) != len(s.Cfg.QualityLevels)*3 {
		t.Errorf("ext-kmeans rows = %d", len(km.Rows))
	}
	multi, err := s.ExtMultiKernel()
	if err != nil {
		t.Fatal(err)
	}
	if len(multi.Rows) != 2 {
		t.Errorf("ext-multi rows = %d", len(multi.Rows))
	}
}

func TestAblationPredictorsShapes(t *testing.T) {
	s := testSuite(t)
	tab, err := s.AblationPredictors()
	if err != nil {
		t.Fatal(err)
	}
	// Four mechanisms per benchmark.
	if len(tab.Rows) != 4*len(s.Cfg.Benchmarks) {
		t.Errorf("rows = %d", len(tab.Rows))
	}
	mechs := map[string]bool{}
	for _, r := range tab.Rows {
		mechs[r[1]] = true
	}
	for _, m := range []string{"table", "neural", "dtree", "regress"} {
		if !mechs[m] {
			t.Errorf("mechanism %s missing", m)
		}
	}
}
