// Command perfbench is the repository benchmark. It compiles one
// workload's deployment through the offline path, drives the real
// mithrad daemon with it, checks the outputs, and prints one JSON result
// line last on standard output:
//
//	perfbench -workload serve_open_fft -seed 1 -seconds 10 -trace 0
//
// With -trace 0 the result holds the end-to-end metrics; with -trace 1 a
// separate traced run reports per-layer metrics and writes its spans
// under the work directory. perfbench/run.sh builds mithrad and this
// program from the checkout and runs it; README.md describes the
// workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compile" {
		os.Exit(compileMain(os.Args[2:]))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// smoke swaps every medium-scale deployment for its test-scale
	// counterpart; the benchmark's own tests use it.
	smoke   bool
	binDir  string
	workDir string
	log     io.Writer
}

func (c *config) mithrad() string { return filepath.Join(c.binDir, "mithrad") }

func (c *config) tmpPath(name string) string { return filepath.Join(c.workDir, name) }

func (c *config) logf(format string, a ...any) { fmt.Fprintf(c.log, "perfbench: "+format+"\n", a...) }

// outcome is what a workload hands back: the operations it attempted,
// how many failed, any correctness check that did not hold, and its
// metrics by name.
type outcome struct {
	attempted, failed int64
	problems          []string
	m                 map[string]float64
}

func newOutcome() *outcome { return &outcome{m: map[string]float64{}} }

func (o *outcome) problem(format string, a ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, a...))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

var workloads = map[string]func(*config) (*outcome, error){
	"serve_open_fft":   runOpenFFT,
	"serve_batch_jpeg": runBatchJPEG,
	"serve_drift_fft":  runDriftFFT,
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	c := &config{log: stderr}
	var traceFlag int
	fs.StringVar(&c.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Uint64Var(&c.seed, "seed", 1, "workload seed; every generated input derives from it")
	fs.Float64Var(&c.seconds, "seconds", 10, "measurement time per run")
	fs.IntVar(&traceFlag, "trace", 0, "1: traced run reporting per-layer metrics")
	fs.BoolVar(&c.smoke, "smoke", false, "test-scale deployments (the benchmark's own tests)")
	fs.StringVar(&c.binDir, "bin-dir", ".bench_build/bin", "directory holding the mithrad binary")
	fs.StringVar(&c.workDir, "work-dir", ".bench_build/work", "directory for artifacts, WALs, journals and spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[c.workload]
	if !ok || (traceFlag != 0 && traceFlag != 1) || !(c.seconds > 0) {
		fmt.Fprintf(stderr, "perfbench: need -workload (%s), -trace 0|1 and -seconds > 0\n", strings.Join(workloadNames, ", "))
		return 2
	}
	c.trace = traceFlag == 1
	if _, err := os.Stat(c.mithrad()); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v (build it with perfbench/run.sh)\n", err)
		return 1
	}
	var err error
	if c.workDir, err = filepath.Abs(c.workDir); err == nil {
		err = ensureDir(c.workDir)
	}
	if err == nil {
		// Children run in the work directory: the binary path must not
		// depend on the current one.
		c.binDir, err = filepath.Abs(c.binDir)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}

	out, err := fn(c)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", c.workload, err)
		return 1
	}
	res, err := makeResult(c, out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", c.workload, err)
		return 1
	}
	for _, p := range out.problems {
		fmt.Fprintf(stderr, "perfbench: %s: check failed: %s\n", c.workload, p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// makeResult selects the declared metric set for the run's mode. A
// declared metric the workload did not produce is a bug in the
// benchmark, not a measurement, so it is an error.
func makeResult(c *config, out *outcome) (result, error) {
	specs := endToEnd
	if c.trace {
		specs = perLayer
	}
	res := result{
		Correct:   len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(specs)),
	}
	if res.Attempted < 1 {
		return res, fmt.Errorf("no operation attempted")
	}
	var missing []string
	for _, s := range specs {
		v, ok := out.m[s.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, s.name)
			continue
		}
		res.Metrics[s.name] = metricValue{Value: v, Unit: s.unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return res, fmt.Errorf("metrics not produced: %s", strings.Join(missing, ", "))
	}
	// The human-readable report goes to standard error, in declared order.
	for _, s := range specs {
		c.logf("%-34s %14.6g %s", s.name, res.Metrics[s.name].Value, s.unit)
	}
	return res, nil
}
