// Command mithra drives the MITHRA pipeline from the shell:
//
//	mithra list                            # benchmarks and experiments
//	mithra compile -bench sobel -quality 0.05
//	mithra run -bench sobel -quality 0.05 -design table
//	mithra report -exp fig6 -scale medium
//	mithra journal diff a.jsonl b.jsonl    # compare two run journals
//
// The -scale flag selects test (seconds), medium (the default campaign),
// or paper (Table I input sizes, 250+250 datasets — slow).
//
// Observability (DESIGN.md §9): the pipeline commands take -trace and
// -metrics to collect spans and metrics into a JSONL run journal
// (-journal chooses the file), -debug-addr to serve pprof/expvar/metrics
// over HTTP, and -quiet/-v/-log-json to control progress output. Errors
// print as structured error[kind] lines and map to exit codes: 0 success,
// 1 runtime failure, 2 usage.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	iofs "io/fs"
	"os"
	"runtime"
	"runtime/debug"
	"strings"

	"mithra"
	"mithra/internal/axbench"
	"mithra/internal/core"
	"mithra/internal/dataset"
	"mithra/internal/experiments"
	"mithra/internal/mathx"
	"mithra/internal/obs"
	"mithra/internal/parallel"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run dispatches a command line and returns the process exit code. It is
// the testable entry point: everything the binary does flows through the
// writers, and no path calls os.Exit.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		usage(stderr)
		return 2
	}
	rest := args[1:]
	switch args[0] {
	case "list":
		return command("list", rest, stderr, nil,
			func(_ *flag.FlagSet, _ *obsFlags, _ *obs.Logger) error { return cmdList(stdout) })
	case "compile":
		return cmdCompile(rest, stdout, stderr)
	case "run":
		return cmdRun(rest, stdout, stderr)
	case "exec":
		return cmdExec(rest, stdout, stderr)
	case "report":
		return cmdReport(rest, stdout, stderr)
	case "journal":
		return cmdJournal(rest, stdout, stderr)
	case "decide":
		return cmdDecide(rest, stdout, stderr)
	case "loadgen":
		return cmdLoadgen(rest, stdout, stderr)
	case "watch":
		return cmdWatch(rest, stdout, stderr)
	case "cluster":
		return cmdCluster(rest, stdout, stderr)
	case "bench":
		return cmdBench(rest, stdout, stderr)
	case "-h", "--help", "help":
		usage(stderr)
		return 0
	}
	obs.NewLogger(stderr, "mithra", obs.LevelNormal, false).
		Errorf("usage", "unknown command %q (run 'mithra help')", args[0])
	return 2
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage: mithra <command> [flags]

commands:
  list      benchmarks and regenerable experiments
  compile   tune the threshold and train classifiers for one benchmark
  run       evaluate a design on unseen datasets
  exec      execute a compiled deployment on real input (e.g. a PGM image)
  report    regenerate the paper's tables and figures
  journal   pretty-print (show) or compare (diff) run journals
  decide    compute a dataset's offline decision vector and journal
  loadgen   replay a dataset against a mithrad server and measure it
  watch     poll a mithrad's /metrics.prom and render the guarantee status table
  cluster   inspect a cluster spec's ring placement or merge node decision logs
  bench     run the perf harness and update or gate BENCH_serve.json

run 'mithra <command> -h' for flags.`)
}

// exitErr carries a failure's exit code and structured-error kind.
type exitErr struct {
	code int
	kind string
	err  error
}

func (e *exitErr) Error() string { return e.err.Error() }
func (e *exitErr) Unwrap() error { return e.err }

// usageErrf builds a bad-invocation error (exit 2, kind "usage").
func usageErrf(format string, a ...any) error {
	return &exitErr{code: 2, kind: "usage", err: fmt.Errorf(format, a...)}
}

// classify maps an error to its structured kind and exit code: explicit
// exitErr wins, filesystem failures are "io", everything else is a
// pipeline failure ("run").
func classify(err error) (kind string, code int) {
	var xe *exitErr
	if errors.As(err, &xe) {
		return xe.kind, xe.code
	}
	if errors.Is(err, iofs.ErrNotExist) || errors.Is(err, iofs.ErrPermission) {
		return "io", 1
	}
	return "run", 1
}

// obsFlags holds the shared observability flag values (DESIGN.md §9).
type obsFlags struct {
	trace     bool
	metrics   bool
	journal   string
	debugAddr string
	quiet     bool
	verbose   bool
	logJSON   bool
}

// registerLog adds the logging flags every subcommand supports.
func (of *obsFlags) registerLog(fs *flag.FlagSet) {
	fs.BoolVar(&of.quiet, "quiet", false, "suppress progress output (errors still print)")
	fs.BoolVar(&of.verbose, "v", false, "verbose progress output")
	fs.BoolVar(&of.logJSON, "log-json", false, "emit progress and errors as JSON lines")
}

// register adds the full observability flag set for pipeline commands.
func (of *obsFlags) register(fs *flag.FlagSet) {
	of.registerLog(fs)
	fs.BoolVar(&of.trace, "trace", false, "collect tracing spans into the run journal")
	fs.BoolVar(&of.metrics, "metrics", false, "collect pipeline metrics into the run journal")
	fs.StringVar(&of.journal, "journal", "", "run journal path (default mithra-journal.jsonl when -trace/-metrics is set)")
	fs.StringVar(&of.debugAddr, "debug-addr", "", "serve pprof/expvar/metrics on this address (e.g. localhost:6060)")
}

func (of *obsFlags) level() obs.Level {
	switch {
	case of.quiet:
		return obs.LevelQuiet
	case of.verbose:
		return obs.LevelVerbose
	}
	return obs.LevelNormal
}

func (of *obsFlags) logger(stderr io.Writer) *obs.Logger {
	return obs.NewLogger(stderr, "mithra", of.level(), of.logJSON)
}

// open assembles the run's observability bundle: journal, tracer,
// registry, pool hook, debug endpoint, and the root "run" span. The
// returned Obs is scoped under that span; the returned shutdown function
// must be called with the command's final error to drain and close
// everything.
func (of *obsFlags) open(lg *obs.Logger, cmd string, seed uint64,
	config map[string]any, workers int) (*obs.Obs, func(error), error) {
	journal := of.journal
	if journal == "" && (of.trace || of.metrics) {
		journal = "mithra-journal.jsonl"
	}
	o, err := obs.New(obs.Options{
		Trace:       of.trace,
		Metrics:     of.metrics,
		JournalPath: journal,
		Log:         lg,
	})
	if err != nil {
		return nil, nil, err
	}
	if of.metrics {
		reg := o.Metrics()
		parallel.SetPoolHook(&parallel.PoolHook{Pool: func(tasks int) {
			reg.Counter("parallel.pools").Inc()
			reg.Counter("parallel.tasks").Add(int64(tasks))
		}})
	}
	var dbg *obs.DebugServer
	if of.debugAddr != "" {
		dbg, err = obs.StartDebug(of.debugAddr, o.Metrics())
		if err != nil {
			o.Close(err)
			return nil, nil, err
		}
		lg.Infof("debug endpoint: http://%s/debug/pprof/ (metrics at /metrics)", dbg.Addr())
	}
	o.RunStart(cmd, seed, config, runtimeBlock(workers))
	runSpan := o.StartSpan("run", obs.A("cmd", cmd))
	shutdown := func(runErr error) {
		runSpan.End()
		if of.metrics {
			parallel.SetPoolHook(nil)
		}
		if dbg != nil {
			dbg.Close()
		}
		if err := o.Close(runErr); err != nil {
			lg.Errorf("io", "%v", err)
		} else if journal != "" {
			lg.Infof("journal written to %s", journal)
		}
	}
	return o.Scope(runSpan), shutdown, nil
}

// runtimeBlock describes the environment of a run. It lives in the
// journal's runtime field, which `mithra journal diff` ignores — worker
// counts and toolchains may differ between runs whose results must not.
func runtimeBlock(workers int) map[string]any {
	m := map[string]any{
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"workers":    parallel.Workers(workers),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				m["vcs"] = s.Value
			}
		}
	}
	return m
}

// command wires the plumbing shared by every subcommand: flag parsing
// with -h support, the leveled logger, structured error reporting, and
// exit-code mapping. setup registers command-specific flags (nil for
// none); body runs the command.
func command(name string, args []string, stderr io.Writer,
	setup func(fs *flag.FlagSet, of *obsFlags),
	body func(fs *flag.FlagSet, of *obsFlags, lg *obs.Logger) error) int {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.Usage = func() {}
	var of obsFlags
	if setup != nil {
		setup(fs, &of)
	} else {
		of.registerLog(fs)
	}
	err := fs.Parse(args)
	if errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(stderr, "usage: mithra %s [flags]\nflags:\n", name)
		fs.SetOutput(stderr)
		fs.PrintDefaults()
		return 0
	}
	lg := of.logger(stderr)
	if err != nil {
		lg.Errorf("usage", "%s: %v", name, err)
		return 2
	}
	if err := body(fs, &of, lg); err != nil {
		kind, code := classify(err)
		lg.Errorf(kind, "%s: %v", name, err)
		return code
	}
	return 0
}

func optionsFor(scale string) (core.Options, error) {
	switch scale {
	case "test":
		return core.TestOptions(), nil
	case "medium", "":
		return core.DefaultOptions(), nil
	case "paper":
		return core.PaperOptions(), nil
	}
	return core.Options{}, usageErrf("unknown scale %q (test|medium|paper)", scale)
}

func cmdList(stdout io.Writer) error {
	fmt.Fprintln(stdout, "benchmarks:")
	for _, n := range mithra.Benchmarks() {
		b, err := mithra.NewBenchmark(n)
		if err != nil {
			return err
		}
		topo := make([]string, len(b.Topology()))
		for i, t := range b.Topology() {
			topo[i] = fmt.Sprint(t)
		}
		fmt.Fprintf(stdout, "  %-14s %-20s metric=%s topology=%s\n",
			n, b.Domain(), b.Metric().Name(), strings.Join(topo, "->"))
	}
	fmt.Fprintln(stdout, "\nexperiments:")
	for _, r := range experiments.Runners() {
		fmt.Fprintf(stdout, "  %-12s %s\n", r.ID, r.Descr)
	}
	return nil
}

// parallelFlag registers the shared -parallel knob: the worker count for
// every pool in the pipeline. Results are bit-identical at any setting;
// the flag only trades wall-clock time for cores.
func parallelFlag(fs *flag.FlagSet) *int {
	return fs.Int("parallel", 0, "worker count for the evaluation pipeline (0 = all cores, 1 = serial)")
}

func guaranteeFlags(fs *flag.FlagSet) (quality, success, confidence *float64, twoSided *bool) {
	quality = fs.Float64("quality", 0.05, "desired final quality loss (e.g. 0.05 for 5%)")
	success = fs.Float64("success", 0.90, "required success rate on unseen datasets")
	confidence = fs.Float64("confidence", 0.95, "confidence level of the guarantee")
	twoSided = fs.Bool("two-sided", true, "use the paper's two-sided interval convention")
	return
}

func cmdCompile(args []string, stdout, stderr io.Writer) int {
	var (
		bench, scale, out            *string
		seed                         *uint64
		par                          *int
		quality, success, confidence *float64
		twoSided                     *bool
	)
	return command("compile", args, stderr, func(fs *flag.FlagSet, of *obsFlags) {
		bench = fs.String("bench", "sobel", "benchmark name")
		scale = fs.String("scale", "medium", "dataset scale: test|medium|paper")
		seed = fs.Uint64("seed", 42, "experiment seed")
		out = fs.String("o", "", "write the exported deployment to this file")
		par = parallelFlag(fs)
		quality, success, confidence, twoSided = guaranteeFlags(fs)
		of.register(fs)
	}, func(_ *flag.FlagSet, of *obsFlags, lg *obs.Logger) error {
		opts, err := optionsFor(*scale)
		if err != nil {
			return err
		}
		opts.Seed = *seed
		opts.Parallelism = *par
		g := mithra.Guarantee{QualityLoss: *quality, SuccessRate: *success,
			Confidence: *confidence, TwoSided: *twoSided}

		o, shutdown, err := of.open(lg, "compile", *seed, map[string]any{
			"bench": *bench, "scale": *scale, "quality": *quality,
			"success": *success, "confidence": *confidence, "two_sided": *twoSided,
		}, *par)
		if err != nil {
			return err
		}
		opts.Obs = o

		lg.Infof("compiling %s for %s ...", *bench, g)
		dep, err := mithra.Compile(*bench, g, opts)
		if err != nil {
			shutdown(err)
			return err
		}
		o.Gauge("threshold.value").Set(dep.Th.Threshold)
		fmt.Fprintf(stdout, "threshold        %.6f (certified=%v, lower bound %.1f%%)\n",
			dep.Th.Threshold, dep.Th.Certified, dep.Th.LowerBound*100)
		fmt.Fprintf(stdout, "compile success  %d/%d datasets (full-approx quality loss %.1f%%)\n",
			dep.Th.Successes, dep.Th.Trials, dep.Ctx.FullQuality*100)
		fmt.Fprintf(stdout, "oracle invocation rate on compile sets: %.1f%%\n", dep.Th.InvocationRate*100)
		tc := dep.Table.Config()
		fmt.Fprintf(stdout, "table classifier  %d B compressed (%d B raw, density %.2f%%; bits=%d combine=%s guard=%.2f)\n",
			dep.Table.SizeBytes(), dep.Table.UncompressedBytes(), dep.Table.Density()*100,
			tc.QuantBits, tc.Combine, dep.TableGuard)
		topo := make([]string, len(dep.Neural.Topology()))
		for i, t := range dep.Neural.Topology() {
			topo[i] = fmt.Sprint(t)
		}
		fmt.Fprintf(stdout, "neural classifier %s, %d B, bias %.2f\n",
			strings.Join(topo, "->"), dep.Neural.SizeBytes(), dep.Neural.Bias())
		fmt.Fprintf(stdout, "tuned random filtering rate: %.1f%%\n", dep.RandomRate*100)
		if *out != "" {
			blob, err := dep.Export()
			if err != nil {
				shutdown(err)
				return err
			}
			if err := os.WriteFile(*out, blob, 0o644); err != nil {
				shutdown(err)
				return err
			}
			lg.Infof("wrote deployment to %s (%d bytes)", *out, len(blob))
		}
		shutdown(nil)
		return nil
	})
}

func cmdRun(args []string, stdout, stderr io.Writer) int {
	var (
		bench, scale, designName     *string
		seed                         *uint64
		par                          *int
		quality, success, confidence *float64
		twoSided                     *bool
	)
	return command("run", args, stderr, func(fs *flag.FlagSet, of *obsFlags) {
		bench = fs.String("bench", "sobel", "benchmark name")
		scale = fs.String("scale", "medium", "dataset scale: test|medium|paper")
		seed = fs.Uint64("seed", 42, "experiment seed")
		designName = fs.String("design", "table", "design: full-approx|oracle|table|neural|random|table-sw|neural-sw")
		par = parallelFlag(fs)
		quality, success, confidence, twoSided = guaranteeFlags(fs)
		of.register(fs)
	}, func(_ *flag.FlagSet, of *obsFlags, lg *obs.Logger) error {
		opts, err := optionsFor(*scale)
		if err != nil {
			return err
		}
		opts.Seed = *seed
		opts.Parallelism = *par
		g := mithra.Guarantee{QualityLoss: *quality, SuccessRate: *success,
			Confidence: *confidence, TwoSided: *twoSided}
		design, err := parseDesign(*designName)
		if err != nil {
			return err
		}

		o, shutdown, err := of.open(lg, "run", *seed, map[string]any{
			"bench": *bench, "scale": *scale, "design": *designName,
			"quality": *quality, "success": *success,
			"confidence": *confidence, "two_sided": *twoSided,
		}, *par)
		if err != nil {
			return err
		}
		opts.Obs = o

		lg.Infof("compiling %s for %s ...", *bench, g)
		dep, err := mithra.Compile(*bench, g, opts)
		if err != nil {
			shutdown(err)
			return err
		}
		o.Gauge("threshold.value").Set(dep.Th.Threshold)
		lg.Infof("evaluating %s on %d unseen datasets ...", design, len(dep.Ctx.Validate))
		res := dep.EvaluateValidation(design)
		fmt.Fprintf(stdout, "design            %s on %d unseen datasets\n", design, len(res.Qualities))
		fmt.Fprintf(stdout, "quality successes %d/%d (certified lower bound %.1f%%, guarantee %s: %v)\n",
			res.Successes, len(res.Qualities), res.CertifiedLower*100, g, res.Certified)
		fmt.Fprintf(stdout, "invocation rate   %.1f%%\n", res.InvocationRate*100)
		fmt.Fprintf(stdout, "speedup           %.2fx\n", res.Speedup)
		fmt.Fprintf(stdout, "energy reduction  %.2fx\n", res.EnergyReduction)
		fmt.Fprintf(stdout, "EDP improvement   %.2fx\n", res.EDPImprovement)
		if design == mithra.DesignTable || design == mithra.DesignNeural {
			fmt.Fprintf(stdout, "false decisions   FP %.1f%%  FN %.1f%%\n", res.FPRate*100, res.FNRate*100)
		}
		shutdown(nil)
		return nil
	})
}

// cmdExec loads an exported deployment and runs it on a user-provided
// input (currently PGM images for the sobel/jpeg benchmarks, synthetic
// inputs otherwise).
func cmdExec(args []string, stdout, stderr io.Writer) int {
	var (
		cfgPath, inPath, outPath, designName *string
		seed                                 *uint64
	)
	return command("exec", args, stderr, func(fs *flag.FlagSet, of *obsFlags) {
		cfgPath = fs.String("config", "", "exported deployment file (from 'mithra compile -o')")
		inPath = fs.String("in", "", "input PGM image (sobel/jpeg); empty generates a synthetic dataset")
		outPath = fs.String("out", "", "output PGM for image benchmarks")
		designName = fs.String("design", "table", "design: full-approx|table|neural")
		seed = fs.Uint64("seed", 7, "seed for synthetic input generation")
		of.registerLog(fs)
	}, func(_ *flag.FlagSet, _ *obsFlags, lg *obs.Logger) error {
		if *cfgPath == "" {
			return usageErrf("-config is required")
		}
		blob, err := os.ReadFile(*cfgPath)
		if err != nil {
			return err
		}
		prog, err := core.LoadProgram(blob)
		if err != nil {
			return err
		}
		design, err := parseDesign(*designName)
		if err != nil {
			return err
		}

		var input mithra.Input
		var imgDims [2]int
		if *inPath != "" {
			f, err := os.Open(*inPath)
			if err != nil {
				return err
			}
			im, err := dataset.ReadPGM(f)
			f.Close()
			if err != nil {
				return err
			}
			switch prog.Bench.Name() {
			case "sobel":
				input = mithra.NewImageInput(im)
				imgDims = [2]int{im.W, im.H}
			case "jpeg":
				input, err = mithra.NewJPEGInput(im)
				if err != nil {
					return err
				}
				imgDims = [2]int{im.W &^ 7, im.H &^ 7}
			default:
				return usageErrf("-in PGM input only applies to sobel/jpeg, not %s", prog.Bench.Name())
			}
		} else {
			input = prog.Bench.GenInput(mathx.NewRNG(*seed), axbench.MediumScale())
		}

		out, st, err := prog.Run(input, design)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "benchmark       %s (%s)\n", prog.Bench.Name(), design)
		fmt.Fprintf(stdout, "invocations     %d (%d fell back to precise)\n", st.Invocations, st.Fallbacks)
		fmt.Fprintf(stdout, "quality loss    %.2f%% (guarantee %s met: %v)\n",
			st.QualityLoss*100, prog.G, st.MetGuarantee)
		fmt.Fprintf(stdout, "modeled gains   %.2fx speedup, %.2fx energy\n", st.Speedup, st.EnergyReduction)

		if *outPath != "" && imgDims[0] > 0 {
			im := dataset.NewImage(imgDims[0], imgDims[1])
			copy(im.Pix, out)
			f, err := os.Create(*outPath)
			if err != nil {
				return err
			}
			defer f.Close()
			if err := im.WritePGM(f); err != nil {
				return err
			}
			lg.Infof("wrote %s", *outPath)
		}
		return nil
	})
}

func parseDesign(s string) (mithra.Design, error) {
	switch s {
	case "full-approx", "none":
		return mithra.DesignNone, nil
	case "oracle":
		return mithra.DesignOracle, nil
	case "table":
		return mithra.DesignTable, nil
	case "neural":
		return mithra.DesignNeural, nil
	case "random":
		return mithra.DesignRandom, nil
	case "table-sw":
		return mithra.DesignTableSW, nil
	case "neural-sw":
		return mithra.DesignNeuralSW, nil
	}
	return 0, usageErrf("unknown design %q", s)
}

func cmdReport(args []string, stdout, stderr io.Writer) int {
	var (
		scale, exp, benches, format *string
		seed                        *uint64
		par                         *int
	)
	return command("report", args, stderr, func(fs *flag.FlagSet, of *obsFlags) {
		scale = fs.String("scale", "medium", "dataset scale: test|medium|paper")
		exp = fs.String("exp", "", "single experiment id (default: all)")
		format = fs.String("format", "text", "output format: text|csv|json")
		seed = fs.Uint64("seed", 42, "experiment seed")
		benches = fs.String("benchmarks", "", "comma-separated benchmark subset (default: all)")
		par = parallelFlag(fs)
		of.register(fs)
	}, func(_ *flag.FlagSet, of *obsFlags, lg *obs.Logger) error {
		f := experiments.Format(*format)
		if f != experiments.FormatText && f != experiments.FormatCSV && f != experiments.FormatJSON {
			return usageErrf("unknown format %q (text|csv|json)", *format)
		}
		opts, err := optionsFor(*scale)
		if err != nil {
			return err
		}
		opts.Seed = *seed
		opts.Parallelism = *par
		cfg := mithra.DefaultReportConfig()
		cfg.Opts = opts
		if *scale == "test" {
			// Two dozen datasets cannot certify 90% at 95% confidence; scale
			// the guarantee with the sample size as experiments.TestConfig
			// does.
			cfg.SuccessRate = 0.6
			cfg.Confidence = 0.9
			cfg.TwoSided = false
		}
		if *benches != "" {
			cfg.Benchmarks = strings.Split(*benches, ",")
		}

		o, shutdown, err := of.open(lg, "report", *seed, map[string]any{
			"scale": *scale, "exp": *exp, "benchmarks": *benches, "format": *format,
		}, *par)
		if err != nil {
			return err
		}
		cfg.Opts.Obs = o

		s, err := experiments.NewSuite(cfg)
		if err == nil {
			if *exp == "" {
				err = experiments.RunAllFormat(s, stdout, f)
			} else {
				err = experiments.RunOne(s, *exp, stdout, f)
			}
		}
		shutdown(err)
		return err
	})
}

// cmdJournal inspects run journals: `mithra journal show <file>` renders
// one, `mithra journal diff <a> <b>` compares two with the volatile
// fields (timestamps, durations, runtime block) ignored.
func cmdJournal(args []string, stdout, stderr io.Writer) int {
	return command("journal", args, stderr, func(fs *flag.FlagSet, of *obsFlags) {
		of.registerLog(fs)
	}, func(fs *flag.FlagSet, _ *obsFlags, lg *obs.Logger) error {
		switch fs.Arg(0) {
		case "show":
			// Flag parsing stops at the positional "show", so the filter
			// flag is picked out of the remaining args by hand:
			//   mithra journal show [-notes <name>] <file>
			notes, notesOnly := "", false
			var files []string
			rest := fs.Args()[1:]
			for i := 0; i < len(rest); i++ {
				switch a := rest[i]; a {
				case "-notes", "--notes":
					if i+1 >= len(rest) {
						return usageErrf("-notes needs a note name (or \"\" for all notes)")
					}
					i++
					notes, notesOnly = rest[i], true
				default:
					files = append(files, a)
				}
			}
			if len(files) != 1 {
				return usageErrf("usage: mithra journal show [-notes <name>] <file>")
			}
			entries, err := obs.ReadJournalFile(files[0])
			if err != nil {
				return err
			}
			if notesOnly {
				obs.RenderNotes(stdout, entries, notes)
			} else {
				obs.RenderJournal(stdout, entries)
			}
			return nil
		case "diff":
			if fs.NArg() != 3 {
				return usageErrf("usage: mithra journal diff <a> <b>")
			}
			a, err := obs.ReadJournalFile(fs.Arg(1))
			if err != nil {
				return err
			}
			b, err := obs.ReadJournalFile(fs.Arg(2))
			if err != nil {
				return err
			}
			diffs := obs.DiffJournals(a, b)
			if len(diffs) == 0 {
				fmt.Fprintf(stdout, "journals identical: %d events (timestamps and runtime ignored)\n", len(a))
				return nil
			}
			for _, d := range diffs {
				fmt.Fprintln(stdout, d)
			}
			return &exitErr{code: 1, kind: "run",
				err: fmt.Errorf("journals differ: %d difference(s)", len(diffs))}
		case "":
			return usageErrf("usage: mithra journal show|diff ...")
		}
		return usageErrf("unknown journal subcommand %q (show|diff)", fs.Arg(0))
	})
}
