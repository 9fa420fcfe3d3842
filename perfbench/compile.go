package main

// The offline compile path, run in a process of its own so its wall time
// is the compile's alone. The parent starts
// `perfbench compile ...` (this same binary) and reads back a JSON
// result; with -layers the child also times each compile stage through
// its public entry point.

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"os/exec"
	"time"

	"mithra/internal/axbench"
	"mithra/internal/classifier"
	"mithra/internal/core"
	"mithra/internal/obs"
	"mithra/internal/stats"
	"mithra/internal/threshold"
	"mithra/internal/trace"
)

// compileSpec names one deployment: the benchmark, the dataset scale and
// the guarantee it is compiled for. The compile seed is fixed (the CLI
// default), so a workload's program under test is the same in every run;
// the workload seed drives only the inputs sent to it.
type compileSpec struct {
	bench, scale string
	g            stats.Guarantee
}

const compileSeed = 42

// compileParallel is the compile worker count (`-parallel 2`), fixed so
// runs on machines with more cores stay comparable.
const compileParallel = 2

func (s compileSpec) args() []string {
	return []string{
		"-bench", s.bench, "-scale", s.scale,
		"-quality", fmt.Sprint(s.g.QualityLoss), "-success", fmt.Sprint(s.g.SuccessRate),
		"-confidence", fmt.Sprint(s.g.Confidence), fmt.Sprintf("-two-sided=%v", s.g.TwoSided),
	}
}

func (s compileSpec) key() string {
	return fmt.Sprintf("%s-%s-q%v-s%v-c%v-%v", s.bench, s.scale,
		s.g.QualityLoss, s.g.SuccessRate, s.g.Confidence, s.g.TwoSided)
}

// compileResult is what a compile child reports.
type compileResult struct {
	OfflineS  float64 `json:"offline_s"`
	Speedup   float64 `json:"speedup_x"`
	AccelRate float64 `json:"accel_rate"`
	// Certified is the compile-time certificate `mithra compile` prints.
	Certified bool               `json:"certified"`
	Digest    string             `json:"digest"`
	Layers    map[string]float64 `json:"layers,omitempty"`
}

func optionsFor(scale string) (core.Options, error) {
	switch scale {
	case "test":
		return core.TestOptions(), nil
	case "medium":
		return core.DefaultOptions(), nil
	}
	return core.Options{}, fmt.Errorf("unknown scale %q", scale)
}

// compileMain is the child process: compile, export and evaluate the
// table design on the validation sets.
func compileMain(args []string) int {
	fs := flag.NewFlagSet("perfbench compile", flag.ContinueOnError)
	var (
		bench      = fs.String("bench", "", "benchmark")
		scale      = fs.String("scale", "medium", "dataset scale")
		quality    = fs.Float64("quality", 0.05, "quality loss")
		success    = fs.Float64("success", 0.9, "success rate")
		confidence = fs.Float64("confidence", 0.95, "confidence")
		twoSided   = fs.Bool("two-sided", true, "two-sided interval")
		out        = fs.String("o", "", "write the exported deployment here")
		resultPath = fs.String("result", "", "write the JSON result here")
		layers     = fs.Bool("layers", false, "time each compile stage")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	res, blob, err := compileChild(*bench, *scale, stats.Guarantee{QualityLoss: *quality,
		SuccessRate: *success, Confidence: *confidence, TwoSided: *twoSided}, *layers)
	if err == nil {
		err = writeFileAtomic(*out, blob)
	}
	if err == nil {
		var data []byte
		data, err = json.Marshal(res)
		if err == nil {
			err = writeFileAtomic(*resultPath, data)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compile:", err)
		return 1
	}
	return 0
}

func compileChild(bench, scale string, g stats.Guarantee, layers bool) (compileResult, []byte, error) {
	var res compileResult
	b, err := axbench.New(bench)
	if err != nil {
		return res, nil, err
	}
	opts, err := optionsFor(scale)
	if err != nil {
		return res, nil, err
	}
	opts.Seed = compileSeed
	opts.Parallelism = compileParallel
	var o *obs.Obs
	if layers {
		if o, err = obs.New(obs.Options{Metrics: true}); err != nil {
			return res, nil, err
		}
		opts.Obs = o
	}
	start := time.Now()

	ctx, err := core.NewContext(b, opts)
	if err != nil {
		return res, nil, err
	}
	tCtx := time.Now()
	dep, err := ctx.Deploy(g)
	if err != nil {
		return res, nil, err
	}
	tDeploy := time.Now()
	blob, err := dep.Export()
	if err != nil {
		return res, nil, err
	}
	tExport := time.Now()
	ev := dep.EvaluateValidation(core.DesignTable)
	tEval := time.Now()

	res.OfflineS = tEval.Sub(start).Seconds()
	res.Speedup = ev.Speedup
	res.AccelRate = ev.InvocationRate
	res.Certified = dep.Th.Certified
	h := fnv.New64a()
	h.Write(blob) //nolint:errcheck // hash.Hash never errors
	res.Digest = fmt.Sprintf("fnv1a:%016x", h.Sum64())
	if !layers {
		return res, blob, nil
	}

	L := map[string]float64{
		"core.context_s":    tCtx.Sub(start).Seconds(),
		"core.deploy_s":     tDeploy.Sub(tCtx).Seconds(),
		"core.export_ms":    float64(tExport.Sub(tDeploy).Nanoseconds()) / 1e6,
		"core.export_bytes": float64(len(blob)),
		"core.evaluate_s":   tEval.Sub(tExport).Seconds(),
	}
	for _, c := range []string{"npu.invocations", "capture.datasets", "threshold.evaluations", "classifier.table.candidates"} {
		L[c] = float64(o.Counter(c).Value())
	}
	// The stages below re-run one layer each on the context's own data,
	// outside the measured compile: capture over every dataset, the
	// threshold search over the compile sets, and one table and one
	// neural training on the deployment's labelled samples.
	t := time.Now()
	for _, ds := range append(append([]threshold.Dataset(nil), ctx.Compile...), ctx.Validate...) {
		trace.Capture(b, ds.In, ctx.Accel, trace.Options{Compact: opts.CompactTraces})
	}
	L["trace.capture_s"] = time.Since(t).Seconds()
	topts := opts.ThOpts
	topts.Workers = opts.Parallelism
	t = time.Now()
	if _, err := threshold.FindBisect(b, ctx.Compile, g, topts); err != nil {
		return res, nil, err
	}
	L["threshold.search_s"] = time.Since(t).Seconds()
	t = time.Now()
	if _, err := classifier.TrainTable(opts.TableCfg, dep.TrainingSamples()); err != nil {
		return res, nil, err
	}
	L["classifier.table_train_s"] = time.Since(t).Seconds()
	t = time.Now()
	if _, err := classifier.TrainNeural(b.InputDim(), dep.TrainingSamples(), opts.NeuralOpts); err != nil {
		return res, nil, err
	}
	L["classifier.neural_train_s"] = time.Since(t).Seconds()
	res.Layers = L
	return res, blob, nil
}

// runCompileChild starts a compile child, writing the artifact to out,
// and waits for it.
func runCompileChild(c *config, spec compileSpec, out string, layers bool) (compileResult, error) {
	var res compileResult
	self, err := os.Executable()
	if err != nil {
		return res, err
	}
	resultPath := c.tmpPath("compile-result.json")
	os.Remove(resultPath) //nolint:errcheck // a stale result must not be read back
	args := append([]string{"compile"}, spec.args()...)
	args = append(args, "-result", resultPath, "-o", out, fmt.Sprintf("-layers=%v", layers))
	cmd := exec.Command(self, args...)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	cmd.Dir = c.workDir
	if err := cmd.Run(); err != nil {
		return res, fmt.Errorf("compile %s: %w", spec.key(), err)
	}
	data, err := os.ReadFile(resultPath)
	if err != nil {
		return res, err
	}
	if err := json.Unmarshal(data, &res); err != nil {
		return res, fmt.Errorf("compile result: %w", err)
	}
	return res, nil
}

// writeFileAtomic writes data to a temporary file and renames it over
// path, so a reader never sees a partial file.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
