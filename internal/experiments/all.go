package experiments

import (
	"fmt"
	"io"

	"mithra/internal/obs"
)

// Runner executes one named experiment and returns its rendered table.
type Runner struct {
	ID    string
	Descr string
	Run   func(s *Suite) (*Table, error)
}

// Runners lists every experiment in the paper's order. The cmd binaries
// and the bench harness both iterate this list.
func Runners() []Runner {
	return []Runner{
		{"fig1", "CDF of final element error under full approximation", func(s *Suite) (*Table, error) {
			r, err := s.Fig1(11)
			return tableOf(r, err)
		}},
		{"table1", "benchmark suite and initial quality loss", func(s *Suite) (*Table, error) {
			r, err := s.Table1()
			return tableOf(r, err)
		}},
		{"table2", "classifier sizes after compression", func(s *Suite) (*Table, error) {
			r, err := s.Table2()
			return tableOf(r, err)
		}},
		{"fig6", "geomean tradeoffs vs quality loss", func(s *Suite) (*Table, error) {
			r, err := s.Fig6()
			return tableOf(r, err)
		}},
		{"fig7", "false positives and negatives", func(s *Suite) (*Table, error) {
			r, err := s.Fig7()
			return tableOf(r, err)
		}},
		{"fig8", "per-benchmark tradeoffs", func(s *Suite) (*Table, error) {
			r, err := s.Fig8()
			return tableOf(r, err)
		}},
		{"fig9", "comparison with random filtering", func(s *Suite) (*Table, error) {
			r, err := s.Fig9()
			return tableOf(r, err)
		}},
		{"fig10", "EDP vs success rate", func(s *Suite) (*Table, error) {
			r, err := s.Fig10(nil)
			return tableOf(r, err)
		}},
		{"fig11", "table design Pareto analysis", func(s *Suite) (*Table, error) {
			r, err := s.Fig11()
			return tableOf(r, err)
		}},
		{"soft", "software classifier slowdown", func(s *Suite) (*Table, error) {
			r, err := s.SoftwareSlowdown()
			return tableOf(r, err)
		}},
		{"abl-combine", "ensemble combination ablation", func(s *Suite) (*Table, error) {
			return s.AblationCombine()
		}},
		{"abl-search", "threshold search ablation", func(s *Suite) (*Table, error) {
			return s.AblationSearch()
		}},
		{"abl-online", "online table update ablation", func(s *Suite) (*Table, error) {
			return s.AblationOnline(16)
		}},
		{"abl-quant", "quantization width ablation", func(s *Suite) (*Table, error) {
			return s.AblationQuantBits()
		}},
		{"abl-interval", "confidence interval method ablation", func(s *Suite) (*Table, error) {
			return s.AblationInterval()
		}},
		{"abl-isa", "analytic vs instruction-level timing model", func(s *Suite) (*Table, error) {
			return s.AblationISA()
		}},
		{"abl-fixed", "NPU fixed-point datapath ablation", func(s *Suite) (*Table, error) {
			return s.AblationFixedPoint()
		}},
		{"abl-predictors", "classifier mechanism comparison (related-work baselines)", func(s *Suite) (*Table, error) {
			return s.AblationPredictors()
		}},
		{"ext-kmeans", "extension benchmark: kmeans campaign", func(s *Suite) (*Table, error) {
			return s.ExtKMeans()
		}},
		{"ext-multi", "extension: multi-function greedy threshold tuple", func(s *Suite) (*Table, error) {
			return s.ExtMultiKernel()
		}},
	}
}

// tableOf extracts the Table field from any experiment result.
func tableOf(r interface{ table() *Table }, err error) (*Table, error) {
	if err != nil {
		return nil, err
	}
	return r.table(), nil
}

func (r *Fig1Result) table() *Table   { return r.Table }
func (r *Table1Result) table() *Table { return r.Table }
func (r *Table2Result) table() *Table { return r.Table }
func (r *Fig6Result) table() *Table   { return r.Table }
func (r *Fig7Result) table() *Table   { return r.Table }
func (r *Fig8Result) table() *Table   { return r.Table }
func (r *Fig9Result) table() *Table   { return r.Table }
func (r *Fig10Result) table() *Table  { return r.Table }
func (r *Fig11Result) table() *Table  { return r.Table }
func (r *SoftResult) table() *Table   { return r.Table }

// RunAll executes every experiment, rendering each to w as text as it
// completes.
func RunAll(s *Suite, w io.Writer) error { return RunAllFormat(s, w, FormatText) }

// RunAllFormat executes every experiment, rendering each to w in format
// f as it completes. Progress goes through the campaign's logger and each
// experiment runs under its own span (telemetry is a no-op when
// Config.Opts.Obs is nil).
func RunAllFormat(s *Suite, w io.Writer, f Format) error {
	o := s.Cfg.Opts.Obs
	for _, r := range Runners() {
		o.Log().Infof("running %s: %s", r.ID, r.Descr)
		if err := runObserved(s, r, w, f); err != nil {
			return err
		}
	}
	return nil
}

// runObserved executes one experiment inside its span.
func runObserved(s *Suite, r Runner, w io.Writer, f Format) error {
	o := s.Cfg.Opts.Obs
	span := o.StartSpan("experiment", obs.A("id", r.ID))
	t, err := r.Run(s)
	span.End()
	o.Counter("experiments.runs").Inc()
	if err != nil {
		return fmt.Errorf("experiments: %s: %w", r.ID, err)
	}
	return t.Write(w, f)
}

// RunOne executes a single experiment by ID, rendering it to w in
// format f.
func RunOne(s *Suite, id string, w io.Writer, f Format) error {
	for _, r := range Runners() {
		if r.ID == id {
			s.Cfg.Opts.Obs.Log().Infof("running %s: %s", r.ID, r.Descr)
			return runObserved(s, r, w, f)
		}
	}
	ids := make([]string, 0, len(Runners()))
	for _, r := range Runners() {
		ids = append(ids, r.ID)
	}
	return fmt.Errorf("experiments: unknown experiment %q (valid: %v)", id, ids)
}
