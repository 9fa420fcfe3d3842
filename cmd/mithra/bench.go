package main

// mithra bench — the deterministic performance harness behind the
// committed perf trajectory (DESIGN.md §12):
//
//	mithra bench -out BENCH_serve.json            # regenerate the file
//	mithra bench -smoke -compare BENCH_serve.json -ratio 25 -lint-root .
//	                                              # CI regression gate
//
// The gate passes -lint-root because the committed file carries a
// lint_repo row, which only a run with -lint-root produces.
//
// Without -compare, the measured rows are merged into -out (replacing
// rows with the same identity, deterministic layout). With -compare,
// nothing is written: the fresh run is checked against the committed
// file — allocs/op exactly on hermetic stages, timing by ratio — and a
// violation exits nonzero.

import (
	"flag"
	"fmt"
	"io"

	"mithra/internal/bench"
	"mithra/internal/obs"
)

func cmdBench(args []string, stdout, stderr io.Writer) int {
	var (
		out, compare, label, lintRoot *string
		smoke                         *bool
		seed                          *uint64
		ratio                         *float64
	)
	return command("bench", args, stderr, func(fs *flag.FlagSet, of *obsFlags) {
		out = fs.String("out", "BENCH_serve.json", "bench report to merge results into")
		compare = fs.String("compare", "", "compare against this committed report instead of writing (CI gate)")
		smoke = fs.Bool("smoke", false, "reduced op counts (~10x fewer): same stages, same alloc exactness, noisier timing")
		seed = fs.Uint64("seed", 99, "synthetic workload seed")
		label = fs.String("label", "bench", "label recorded on every row")
		ratio = fs.Float64("ratio", 0, fmt.Sprintf("timing tolerance factor for -compare (0 = default %.0f)", bench.DefaultRatio))
		lintRoot = fs.String("lint-root", "", "module root to time one full lint pass over (lint_repo stage; empty skips it)")
		of.registerLog(fs)
	}, func(_ *flag.FlagSet, _ *obsFlags, lg *obs.Logger) error {
		rows, err := bench.Run(bench.Config{Smoke: *smoke, Seed: *seed, Label: *label, LintRoot: *lintRoot})
		if err != nil {
			return err
		}
		for _, r := range rows {
			if r.DecisionsPerSec > 0 {
				fmt.Fprintf(stdout, "%-24s %10.0f ops/s  p50 %.0fus  p99 %.0fus  %d allocs/op  %d B/op\n",
					r.Stage, r.DecisionsPerSec, r.P50us, r.P99us, r.AllocsPerOp, r.BytesPerOp)
			} else {
				fmt.Fprintf(stdout, "%-24s %10.1f ns/op  %d allocs/op  %d B/op\n",
					r.Stage, r.NsPerOp, r.AllocsPerOp, r.BytesPerOp)
			}
		}
		if *compare != "" {
			committed, err := bench.ReadFile(*compare)
			if err != nil {
				return err
			}
			// Gate only harness rows (Stage set): loadgen rows in the same
			// file are produced by `mithra loadgen`, not by this run.
			staged := &bench.Report{}
			for _, w := range committed.Runs {
				if w.Stage != "" {
					staged.Merge(w)
				}
			}
			if len(staged.Runs) == 0 {
				return fmt.Errorf("bench: %s has no committed harness rows to compare against", *compare)
			}
			fresh := &bench.Report{}
			// The committed file carries the full-run label; a smoke run
			// measures the same stages, so adopt each committed row's label
			// under its stage identity before comparing.
			for _, r := range rows {
				for _, w := range staged.Runs {
					if w.Stage == r.Stage {
						r.Label = w.Label
					}
				}
				fresh.Merge(r)
			}
			if problems := bench.Compare(staged, fresh, *ratio); len(problems) > 0 {
				for _, p := range problems {
					lg.Errorf("bench", "%s", p)
				}
				return fmt.Errorf("bench: %d perf-trajectory violation(s) against %s", len(problems), *compare)
			}
			lg.Infof("perf trajectory holds against %s (%d rows)", *compare, len(committed.Runs))
			return nil
		}
		if err := bench.MergeFile(*out, rows...); err != nil {
			return err
		}
		lg.Infof("%d rows merged into %s", len(rows), *out)
		return nil
	})
}
