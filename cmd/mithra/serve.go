package main

// The serving client commands (DESIGN.md §10):
//
//	mithra decide   -config prog.bin -scale test -seed 7 -decisions offline.jsonl
//	mithra loadgen  -addr 127.0.0.1:7433 -config prog.bin -scale test -seed 7 \
//	                -conns 4 -pipeline 64 -decisions served.jsonl
//
// Both derive the same invocation-input sequence from (benchmark, scale,
// seed) — decide classifies offline with the compiled table classifier,
// loadgen ships the inputs to a mithrad server — and both can write a
// decision journal, so `mithra journal diff offline.jsonl served.jsonl`
// is the end-to-end determinism check: clean exactly when every served
// decision matched the offline replay.

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"mithra/internal/axbench"
	"mithra/internal/bench"
	"mithra/internal/cluster"
	"mithra/internal/core"
	"mithra/internal/dataset"
	"mithra/internal/mathx"
	"mithra/internal/obs"
	"mithra/internal/serve"
)

// scaleFor maps the -scale flag to dataset dimensions.
func scaleFor(scale string) (axbench.Scale, error) {
	switch scale {
	case "test":
		return axbench.TestScale(), nil
	case "medium", "":
		return axbench.MediumScale(), nil
	case "paper":
		return axbench.PaperScale(), nil
	}
	return axbench.Scale{}, usageErrf("unknown scale %q (test|medium|paper)", scale)
}

// loadProgramInputs loads a compiled deployment and synthesizes its
// dataset's invocation inputs in invocation order, running only the
// precise path (no accelerator evaluation — the decisions are the
// server's or the offline classifier's job).
func loadProgramInputs(cfgPath, scale string, seed uint64) (*core.Program, [][]float64, error) {
	if cfgPath == "" {
		return nil, nil, usageErrf("-config is required")
	}
	sc, err := scaleFor(scale)
	if err != nil {
		return nil, nil, err
	}
	blob, err := os.ReadFile(cfgPath)
	if err != nil {
		return nil, nil, err
	}
	prog, err := core.LoadProgram(blob)
	if err != nil {
		return nil, nil, err
	}
	in := prog.Bench.GenInput(mathx.NewRNG(seed), sc)
	inputs := make([][]float64, 0, in.Invocations())
	prog.Bench.Run(in, func(kin, kout []float64) {
		inputs = append(inputs, append([]float64(nil), kin...))
		prog.Bench.Precise(kin, kout)
	})
	return prog, inputs, nil
}

// cmdDecide computes the offline decision vector for one dataset — the
// reference a served run is compared against. With -addr/-unix it asks a
// mithrad server instead, stamping every request batch with a wire-v2
// trace ID and (under -trace) journaling a client-to-server span tree:
// one span per pipelined batch, annotated with the trace ID the server
// echoed back, so `mithra journal show` reconstructs which server-side
// decisions belong to which client batch.
func cmdDecide(args []string, stdout, stderr io.Writer) int {
	var (
		cfgPath, scale, decisions *string
		addr, unixPath            *string
		seed                      *uint64
		pipeline                  *int
	)
	return command("decide", args, stderr, func(fs *flag.FlagSet, of *obsFlags) {
		cfgPath = fs.String("config", "", "exported deployment file (from 'mithra compile -o')")
		scale = fs.String("scale", "test", "dataset scale: test|medium|paper")
		seed = fs.Uint64("seed", 7, "dataset generation seed")
		decisions = fs.String("decisions", "", "write the decision journal to this file")
		addr = fs.String("addr", "", "ask this mithrad TCP address instead of classifying offline")
		unixPath = fs.String("unix", "", "ask the mithrad on this Unix socket instead of classifying offline")
		pipeline = fs.Int("pipeline", 64, "requests pipelined per traced batch (server mode)")
		of.register(fs)
	}, func(_ *flag.FlagSet, of *obsFlags, lg *obs.Logger) error {
		prog, inputs, err := loadProgramInputs(*cfgPath, *scale, *seed)
		if err != nil {
			return err
		}
		if *addr != "" || *unixPath != "" {
			return decideServed(stdout, of, lg, prog, inputs, *addr, *unixPath, *seed, *pipeline, *decisions)
		}
		ds := serve.NewDecisionSet(prog.Bench.Name())
		precise := 0
		for _, in := range inputs {
			p := prog.Table.Classify(in)
			if p {
				precise++
			}
			ds.Append(p)
		}
		fmt.Fprintf(stdout, "bench      %s (offline, threshold %.6f)\n", prog.Bench.Name(), prog.Threshold)
		fmt.Fprintf(stdout, "decisions  %d (%d precise, %.1f%% invocation rate)\n",
			ds.Len(), precise, 100*float64(ds.Len()-precise)/float64(max(1, ds.Len())))
		fmt.Fprintf(stdout, "digest     %s\n", ds.Digest())
		if *decisions != "" {
			if err := ds.WriteJournal(*decisions, *seed); err != nil {
				return err
			}
			lg.Infof("decision journal written to %s", *decisions)
		}
		return nil
	})
}

// decideServed is cmdDecide's server mode: one connection, pipelined
// batches, every batch stamped with a deterministic nonzero trace ID
// derived from (seed, batch index). Each response must echo its batch's
// trace ID — a mismatch is a protocol failure, which is what makes this
// the end-to-end test of wire-v2 trace propagation.
func decideServed(stdout io.Writer, of *obsFlags, lg *obs.Logger, prog *core.Program,
	inputs [][]float64, addr, unixPath string, seed uint64, pipeline int, decisions string) error {
	if addr != "" && unixPath != "" {
		return usageErrf("need at most one of -addr / -unix")
	}
	if pipeline < 1 {
		return usageErrf("-pipeline must be >= 1")
	}
	network, target := "tcp", addr
	if unixPath != "" {
		network, target = "unix", unixPath
	}
	benchName := prog.Bench.Name()
	o, shutdown, err := of.open(lg, "decide", seed, map[string]any{
		"bench": benchName, "mode": "served", "pipeline": pipeline,
	}, 1)
	if err != nil {
		return err
	}
	runErr := func() error {
		cl, err := serve.Dial(network, target)
		if err != nil {
			return err
		}
		defer cl.Close()
		ds := serve.NewDecisionSet(benchName)
		nPrecise, traced := 0, 0
		for base, batchIdx := 0, uint64(0); base < len(inputs); base, batchIdx = base+pipeline, batchIdx+1 {
			hi := min(base+pipeline, len(inputs))
			// Trace IDs are a pure function of (seed, batch): nonzero by
			// construction, stable across runs.
			traceID := seed<<20 | (batchIdx + 1)
			cl.SetTrace(traceID)
			span := o.StartSpan("decide.batch",
				obs.A("trace_id", traceID), obs.A("base_id", base), obs.A("n", hi-base))
			resps, err := cl.DecideBatch(benchName, uint32(base), inputs[base:hi])
			span.End()
			if err != nil {
				return err
			}
			for _, r := range resps {
				if r.TraceID != traceID {
					return fmt.Errorf("response %d echoed trace %#x, want %#x", r.ID, r.TraceID, traceID)
				}
				traced++
				if r.Precise {
					nPrecise++
				}
				ds.Append(r.Precise)
			}
		}
		fmt.Fprintf(stdout, "bench      %s (served, traced)\n", benchName)
		fmt.Fprintf(stdout, "decisions  %d (%d precise, %d trace-verified)\n", ds.Len(), nPrecise, traced)
		fmt.Fprintf(stdout, "digest     %s\n", ds.Digest())
		if decisions != "" {
			if err := ds.WriteJournal(decisions, seed); err != nil {
				return err
			}
			lg.Infof("decision journal written to %s", decisions)
		}
		return nil
	}()
	shutdown(runErr)
	return runErr
}

// cmdLoadgen replays a dataset's invocation inputs against a mithrad
// server and reports throughput and batch round-trip latency.
func cmdLoadgen(args []string, stdout, stderr io.Writer) int {
	var (
		addr, unixPath, cfgPath, scale *string
		decisions, benchJSON, label    *string
		endpoints, drift               *string
		seed                           *uint64
		conns, pipeline, repeat        *int
		qps                            *float64
		chaos                          *bool
	)
	return command("loadgen", args, stderr, func(fs *flag.FlagSet, of *obsFlags) {
		addr = fs.String("addr", "", "mithrad TCP address (e.g. 127.0.0.1:7433)")
		unixPath = fs.String("unix", "", "mithrad Unix socket path")
		endpoints = fs.String("endpoints", "", "cluster spec file: resolve the consistent-hash ring locally and spread requests across every node (multi-endpoint mode)")
		cfgPath = fs.String("config", "", "the compiled deployment the server loaded (defines the input stream)")
		scale = fs.String("scale", "test", "dataset scale: test|medium|paper")
		seed = fs.Uint64("seed", 7, "dataset generation seed")
		conns = fs.Int("conns", 1, "parallel client connections")
		pipeline = fs.Int("pipeline", 64, "requests pipelined per batch")
		repeat = fs.Int("repeat", 1, "times to replay the input set (load amplification)")
		qps = fs.Float64("qps", 0, "target decisions/sec (0 = as fast as possible)")
		decisions = fs.String("decisions", "", "write the served decision journal to this file (first pass only when -repeat > 1)")
		benchJSON = fs.String("bench-json", "", "append a run row to this BENCH_serve.json file")
		label = fs.String("label", "", "label recorded in the bench row (e.g. conns4)")
		chaos = fs.Bool("chaos", false, "resilient mode: retry across connection faults and server restarts, and re-ask fallback decisions until the classifier answers (chaos testing)")
		drift = fs.String("drift", "", "seeded drift schedule applied to the input stream by global request index, e.g. 'kind=sudden,at=4096,shift=0.3' (see mithra loadgen -drift docs; drifted decisions are not offline-comparable)")
		of.registerLog(fs)
	}, func(_ *flag.FlagSet, _ *obsFlags, lg *obs.Logger) error {
		set := 0
		for _, s := range []string{*addr, *unixPath, *endpoints} {
			if s != "" {
				set++
			}
		}
		if set != 1 {
			return usageErrf("need exactly one of -addr / -unix / -endpoints")
		}
		if *conns < 1 || *pipeline < 1 || *repeat < 1 {
			return usageErrf("-conns, -pipeline, -repeat must be >= 1")
		}
		network, target := "tcp", *addr
		if *unixPath != "" {
			network, target = "unix", *unixPath
		}
		// Multi-endpoint mode: the client resolves the same consistent-hash
		// ring the nodes use and pins a connection per node, so each request
		// lands on its deciding node directly (mis-routed frames would still
		// be forwarded server-side — this just avoids the extra hop).
		var cspec *cluster.Spec
		if *endpoints != "" {
			var err error
			cspec, err = cluster.ParseSpecFile(*endpoints)
			if err != nil {
				return err
			}
			target = fmt.Sprintf("%d-node cluster", len(cspec.Nodes))
			network = "ring"
		}
		prog, inputs, err := loadProgramInputs(*cfgPath, *scale, *seed)
		if err != nil {
			return err
		}
		// Drift mode: the request stream is the dataset transformed by a
		// seeded, replayable schedule — a pure function of (spec, global
		// request index), so two runs (or two client shapes) see
		// byte-identical drifted inputs.
		var dr *dataset.Drift
		if *drift != "" {
			dr, err = dataset.ParseDrift(*drift)
			if err != nil {
				return err
			}
			lg.Infof("drift schedule: %s", dr.String())
		}
		benchName := prog.Bench.Name()
		n := len(inputs)
		total := n * *repeat
		lg.Infof("loadgen: %d invocations x%d over %d conn(s), pipeline %d, to %s %s",
			n, *repeat, *conns, *pipeline, network, target)

		// precise[global] collects decisions by invocation index — slot
		// writes from disjoint ranges, so conns never contend.
		precise := make([]bool, total)
		rtts := make([][]time.Duration, *conns)
		errs := make([]error, *conns)
		clients := make([]*serve.Client, *conns)
		routed := make([]*cluster.RoutedClient, *conns)
		fallbacksSeen := make([]int, *conns)
		// Pacing: with C conns each sending P-sized batches, the fleet hits
		// qps when every conn starts a batch each P*C/qps seconds.
		var interval time.Duration
		if *qps > 0 {
			interval = time.Duration(float64(*pipeline) * float64(*conns) / *qps * float64(time.Second))
		}

		// Allocation accounting brackets the whole run: per-decision cost
		// is a whole-process average (floor-divided, so sub-one-per-op
		// noise reads as zero), comparable run over run at fixed settings.
		runtime.GC()
		var mem0, mem1 runtime.MemStats
		runtime.ReadMemStats(&mem0)
		start := time.Now()
		var wg sync.WaitGroup
		for c := 0; c < *conns; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				retry := serve.RetryConfig{Seed: *seed + uint64(c) + 1}
				var cl interface {
					DecideBatch(bench string, baseID uint32, inputs [][]float64) ([]serve.DecideResponse, error)
					Decide(bench string, id uint32, in []float64) (*serve.DecideResponse, error)
				}
				if cspec != nil {
					rc, err := cluster.NewRoutedClient(cspec, *chaos, retry)
					if err != nil {
						errs[c] = err
						return
					}
					defer rc.Close()
					routed[c], cl = rc, rc
				} else {
					var sc *serve.Client
					var err error
					if *chaos {
						sc, err = serve.DialResilient(network, target, retry)
					} else {
						sc, err = serve.Dial(network, target)
					}
					if err != nil {
						errs[c] = err
						return
					}
					defer sc.Close()
					clients[c], cl = sc, sc
				}
				next := time.Now()
				// Conn c owns every total-index t with (t/pipeline) % conns == c.
				for base := c * *pipeline; base < total; base += *conns * *pipeline {
					if interval > 0 {
						time.Sleep(time.Until(next))
						next = next.Add(interval)
					}
					hi := min(base+*pipeline, total)
					batch := make([][]float64, hi-base)
					for i := range batch {
						idx := base + i
						if dr != nil {
							batch[i] = dr.Apply(nil, inputs[idx%n], uint64(idx))
						} else {
							batch[i] = inputs[idx%n]
						}
					}
					t0 := time.Now()
					resps, err := cl.DecideBatch(benchName, uint32(base), batch)
					if err != nil {
						errs[c] = err
						return
					}
					rtts[c] = append(rtts[c], time.Since(t0))
					for i, r := range resps {
						// A fallback answer is quality-safe but not the
						// classifier's decision; in chaos mode re-ask (same ID —
						// decisions are idempotent) until the classifier answers,
						// so the final vector stays offline-comparable. Each
						// re-ask also drives the open breaker toward its
						// half-open probe.
						for attempt := 0; *chaos && r.Fallback && attempt < 512; attempt++ {
							fallbacksSeen[c]++
							nr, err := cl.Decide(benchName, r.ID, batch[i])
							if err != nil {
								errs[c] = err
								return
							}
							r = *nr
						}
						if *chaos && r.Fallback {
							errs[c] = fmt.Errorf("request %d still answered by fallback after 512 re-asks", r.ID)
							return
						}
						precise[base+i] = r.Precise
					}
				}
			}(c)
		}
		wg.Wait()
		elapsed := time.Since(start)
		runtime.ReadMemStats(&mem1)
		for _, err := range errs {
			if err != nil {
				return err
			}
		}

		var all []time.Duration
		for _, r := range rtts {
			all = append(all, r...)
		}
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		pct := func(p float64) float64 {
			if len(all) == 0 {
				return 0
			}
			return float64(all[int(p*float64(len(all)-1))].Microseconds())
		}
		dps := float64(total) / elapsed.Seconds()

		ds := serve.NewDecisionSet(benchName)
		ds.AppendBools(precise[:n]) // first pass = the offline-comparable vector
		nPrecise := 0
		for _, p := range precise {
			if p {
				nPrecise++
			}
		}
		fmt.Fprintf(stdout, "bench      %s (served)\n", benchName)
		fmt.Fprintf(stdout, "decisions  %d (%d precise) in %.3fs = %.0f decisions/sec\n",
			total, nPrecise, elapsed.Seconds(), dps)
		fmt.Fprintf(stdout, "batch rtt  p50 %.0fus  p99 %.0fus (%d batches of <=%d)\n",
			pct(0.50), pct(0.99), len(all), *pipeline)
		fmt.Fprintf(stdout, "digest     %s\n", ds.Digest())
		if *chaos {
			retries, reconnects, fallbacks := 0, 0, 0
			for c, cl := range clients {
				if cl != nil {
					retries += cl.Retries
					reconnects += cl.Reconnects
				}
				if routed[c] != nil {
					rt, rc2, _ := routed[c].Stats()
					retries += rt
					reconnects += rc2
				}
				fallbacks += fallbacksSeen[c]
			}
			fmt.Fprintf(stdout, "chaos      %d retries, %d reconnects, %d fallback answers (all resolved)\n",
				retries, reconnects, fallbacks)
		}

		if *decisions != "" {
			if err := ds.WriteJournal(*decisions, *seed); err != nil {
				return err
			}
			lg.Infof("decision journal written to %s", *decisions)
		}
		if *benchJSON != "" {
			// Shared schema with `mithra bench` (internal/bench): merge
			// replaces the row with the same (label, bench, conns, pipeline)
			// identity and renders deterministically, so re-running at the
			// same settings updates the file in place instead of growing it.
			row := bench.Row{
				Label: *label, Bench: benchName, Conns: *conns, Pipeline: *pipeline,
				Decisions: total, Seconds: elapsed.Seconds(), DecisionsPerSec: dps,
				P50us: pct(0.50), P99us: pct(0.99),
				AllocsPerOp: int64(mem1.Mallocs-mem0.Mallocs) / int64(total),
				BytesPerOp:  int64(mem1.TotalAlloc-mem0.TotalAlloc) / int64(total),
			}
			if err := bench.MergeFile(*benchJSON, row); err != nil {
				return err
			}
			lg.Infof("bench row merged into %s", *benchJSON)
		}
		return nil
	})
}
