// Command mithrad is the online decision server: it loads compiled
// deployment snapshots (from `mithra compile -o`) and answers
// accept/reject decisions over the length-prefixed binary protocol on
// TCP and/or Unix sockets, with an HTTP/JSON fallback on the obs debug
// mux (POST /decide, GET /snapshots next to /metrics and /debug/pprof/).
//
//	mithra compile -bench sobel -scale test -o sobel.bin
//	mithrad -snapshot sobel.bin -listen 127.0.0.1:7433 -debug-addr localhost:6060
//	mithra loadgen -addr 127.0.0.1:7433 -config sobel.bin -scale test
//
// The sporadic error-sampling path (-sample-rate) routes a deterministic
// fraction of invocations through the precise kernel and feeds each
// shard's guarantee monitor, the one guarantee loop: it re-checks the
// Clopper-Pearson guarantee over a sliding window of -recheck-window
// sampled observations and, on a violation, folds the bad inputs into
// the table and swaps the repaired snapshot in atomically. -freeze keeps
// the monitor's measurements but withholds its fold-ins, which makes
// served decisions byte-identical to an offline replay (DESIGN.md §10).
//
// Shutdown (SIGINT/SIGTERM) drains gracefully: listeners close, queued
// requests are answered, then connections close — bounded by
// -drain-timeout, shared with the debug endpoint's HTTP drain.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"mithra/internal/cluster"
	"mithra/internal/fault"
	"mithra/internal/obs"
	"mithra/internal/serve"
	"mithra/internal/watch"
)

func main() {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, stop))
}

// run is the testable entry point: it serves until stop delivers (or
// both listeners fail) and returns the process exit code.
func run(args []string, stdout, stderr io.Writer, stop <-chan os.Signal) int {
	fs := flag.NewFlagSet("mithrad", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.Usage = func() {}
	var (
		snapshots    = fs.String("snapshot", "", "comma-separated compiled deployment files (from 'mithra compile -o'); required")
		listen       = fs.String("listen", "", "TCP listen address (e.g. 127.0.0.1:7433)")
		unixPath     = fs.String("unix", "", "Unix socket path")
		debugAddr    = fs.String("debug-addr", "", "debug/JSON endpoint address (metrics, pprof, POST /decide)")
		workers      = fs.Int("workers", 0, "decision workers per benchmark shard (0 = all cores)")
		queueDepth   = fs.Int("queue-depth", 256, "bounded request queue depth per shard")
		maxBatch     = fs.Int("max-batch", 32, "max requests one worker drains per wakeup")
		sampleRate   = fs.Float64("sample-rate", 0, "sporadic error-sampling rate (0 disables online updates)")
		sampleSeed   = fs.Uint64("sample-seed", 42, "deterministic sampler seed")
		freeze       = fs.Bool("freeze", false, "measure but never swap snapshots (replay mode)")
		drainTimeout = fs.Duration("drain-timeout", 10*time.Second, "graceful shutdown bound")
		journal      = fs.String("journal", "", "write a run journal (with the serving metrics snapshot) to this file")
		quiet        = fs.Bool("quiet", false, "suppress progress output")
		logJSON      = fs.Bool("log-json", false, "emit progress and errors as JSON lines")
		walDir       = fs.String("wal-dir", "", "crash-safe state directory: installed snapshots persist here and are recovered on restart")
		faultPlan    = fs.String("fault-plan", "", "deterministic fault-injection plan, e.g. 'seed=42,conn.reset=0.01,worker.panic=0.05@64' (chaos testing)")
		rejectFull   = fs.Bool("reject-when-full", false, "shed load in-band (CodeQueueFull) instead of exerting backpressure when a shard queue saturates")
		watchLag     = fs.Int("watch-lag", 0, "reorder-buffer depth for ID-ordered monitor ingestion (0 = default 512)")
		recheckWin   = fs.Int("recheck-window", 64, "guarantee monitor window: with -sample-rate > 0, re-check the guarantee over sliding windows of N sampled observations and escalate at-risk/violated into a sampling boost + table fold-in")
		maxFoldIns   = fs.Int("max-foldins-to-recover", 0, "fold-ins allowed per recovery episode before the monitor journals recovery_exceeded and stops repairing (0 = default 8)")
		clusterSpec  = fs.String("cluster-spec", "", "cluster spec file shared by every node (enables multi-node mode; requires -node and -wal-dir)")
		nodeName     = fs.String("node", "", "this node's name in the -cluster-spec file")
	)
	err := fs.Parse(args)
	if errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(stderr, "usage: mithrad -snapshot <file>[,<file>...] [-listen addr] [-unix path] [flags]\nflags:")
		fs.SetOutput(stderr)
		fs.PrintDefaults()
		return 0
	}
	level := obs.LevelNormal
	if *quiet {
		level = obs.LevelQuiet
	}
	lg := obs.NewLogger(stderr, "mithrad", level, *logJSON)
	if err != nil {
		lg.Errorf("usage", "%v", err)
		return 2
	}
	if *snapshots == "" {
		lg.Errorf("usage", "-snapshot is required")
		return 2
	}
	// Cluster mode: the shared spec file fixes this node's listen address
	// and the cluster-wide sampling config. Sampling flags must agree on
	// every node or placement and sampling would disagree, so the spec
	// overrides them; the WAL is mandatory because the replicated
	// snapshots and the decision log live there.
	var cspec *cluster.Spec
	if *clusterSpec != "" {
		if *nodeName == "" {
			lg.Errorf("usage", "-cluster-spec requires -node")
			return 2
		}
		if *walDir == "" {
			lg.Errorf("usage", "cluster mode requires -wal-dir (snapshot records, decision log)")
			return 2
		}
		var err error
		cspec, err = cluster.ParseSpecFile(*clusterSpec)
		if err != nil {
			lg.Errorf("usage", "%v", err)
			return 2
		}
		if _, err := cspec.Node(*nodeName); err != nil {
			lg.Errorf("usage", "%v", err)
			return 2
		}
		*sampleRate = cspec.SampleRate
		*sampleSeed = cspec.SampleSeed
	}
	if *listen == "" && *unixPath == "" && cspec == nil {
		lg.Errorf("usage", "need at least one of -listen / -unix (or -cluster-spec)")
		return 2
	}

	o, err := obs.New(obs.Options{Metrics: true, JournalPath: *journal, Log: lg})
	if err != nil {
		lg.Errorf("io", "%v", err)
		return 1
	}

	var faults *fault.Set
	if *faultPlan != "" {
		plan, err := fault.ParsePlan(*faultPlan)
		if err != nil {
			lg.Errorf("usage", "%v", err)
			return 2
		}
		faults = fault.NewSet(plan)
		lg.Infof("fault injection active: %s", plan.String())
		o.Note("fault_plan", map[string]any{"plan": plan.String()})
	}

	// Crash-safe state: open the WAL and recover the pre-crash snapshots
	// before anything is installed, and attach the write-ahead persist
	// hook before the boot installs so every snapshot the registry ever
	// publishes is durable first.
	var (
		wal       *serve.WAL
		recovered *serve.Recovered
	)
	reg := serve.NewRegistry()
	if *walDir != "" {
		wal, err = serve.OpenWAL(*walDir)
		if err != nil {
			lg.Errorf("io", "%v", err)
			return 1
		}
		recovered, err = wal.Recover()
		if err != nil {
			lg.Errorf("io", "%v", err)
			return 1
		}
		for _, skip := range recovered.Skipped {
			lg.Errorf("run", "wal: skipped %s", skip)
			o.Note("wal_skipped", map[string]any{"record": skip})
		}
		serve.AttachWAL(reg, wal, faults, o)
	}

	for _, path := range strings.Split(*snapshots, ",") {
		blob, err := os.ReadFile(path)
		if err != nil {
			lg.Errorf("io", "%v", err)
			return 1
		}
		snap, err := serve.LoadSnapshot(blob)
		if err != nil {
			lg.Errorf("run", "load %s: %v", path, err)
			return 1
		}
		// A WAL record for this benchmark supersedes the shipped file: it
		// is the exact pre-crash serving state, online updates included.
		if recovered != nil {
			if rec, ok := recovered.Snapshots[snap.Bench]; ok {
				rsnap, rerr := serve.LoadSnapshot(rec.Blob)
				if rerr != nil {
					lg.Errorf("run", "wal: recover %s v%d: %v", rec.Bench, rec.Version, rerr)
					o.Note("wal_skipped", map[string]any{"record": fmt.Sprintf("%s v%d: %v", rec.Bench, rec.Version, rerr)})
				} else {
					rsnap.Version = rec.Version
					snap = rsnap
					lg.Infof("wal: recovered bench=%s at version %d", rec.Bench, rec.Version)
					o.Note("wal_recovered", map[string]any{"bench": rec.Bench, "version": rec.Version})
				}
			}
		}
		if _, err := reg.Install(snap); err != nil {
			lg.Errorf("run", "install %s: %v", path, err)
			return 1
		}
		lg.Infof("loaded %s: bench=%s threshold=%.6f dim=%d version=%d",
			path, snap.Bench, snap.Threshold, snap.Table.InputDim(), snap.Version)
	}

	// Cluster node: the recorder persists this node's half of the cluster
	// digest; the node wires routing, forwarding, and fold-in replication
	// into the server via the ClusterHooks interface.
	var (
		node     *cluster.Node
		recorder *cluster.Recorder
	)
	if cspec != nil {
		recorder, err = cluster.OpenRecorder(filepath.Join(*walDir, "decisions.dlog"))
		if err != nil {
			lg.Errorf("io", "%v", err)
			return 1
		}
		node, err = cluster.NewNode(cluster.NodeConfig{
			Spec:     cspec,
			Self:     *nodeName,
			Registry: reg,
			Recorder: recorder,
			Faults:   faults,
			Obs:      o,
			Logf:     lg.Infof,
		})
		if err != nil {
			lg.Errorf("run", "%v", err)
			return 1
		}
		lg.Infof("cluster node %s (%d nodes, seed %d, vnodes %d)",
			*nodeName, len(cspec.Nodes), cspec.Seed, cspec.VNodes)
		o.Note("cluster_node", map[string]any{
			"node": *nodeName, "nodes": len(cspec.Nodes),
			"seed": cspec.Seed, "vnodes": cspec.VNodes,
			"sample_rate": cspec.SampleRate, "sample_seed": cspec.SampleSeed,
		})
	}

	cfg := serve.Config{
		Workers:        *workers,
		QueueDepth:     *queueDepth,
		MaxBatch:       *maxBatch,
		SampleRate:     *sampleRate,
		SampleSeed:     *sampleSeed,
		Freeze:         *freeze,
		Obs:            o,
		Faults:         faults,
		RejectWhenFull: *rejectFull,
		Watch: watch.Config{
			Window: *recheckWin,
			Lag:    *watchLag,
			Recheck: watch.Recheck{
				RepairEvery: *recheckWin,
				MaxFoldIns:  *maxFoldIns,
			},
		},
	}
	if node != nil {
		cfg.Cluster = node
		cfg.OnFoldIn = node.OnFoldIn
	}
	srv, err := serve.NewServer(reg, cfg)
	if err != nil {
		lg.Errorf("run", "%v", err)
		return 1
	}
	runCfg := map[string]any{
		"snapshots": *snapshots, "sample_rate": *sampleRate,
		"freeze": *freeze, "wal": *walDir != "", "fault_plan": *faultPlan,
		"recheck_window": *recheckWin, "max_foldins": cfg.Watch.Recheck.MaxFoldIns,
	}
	if cspec != nil {
		runCfg["cluster_node"] = *nodeName
		runCfg["cluster_nodes"] = len(cspec.Nodes)
	}
	o.RunStart("mithrad", *sampleSeed, runCfg, nil)

	var dbg *obs.DebugServer
	if *debugAddr != "" {
		handlers := srv.HTTPHandlers()
		// Prometheus text exposition rides the same mux (`mithra watch`
		// polls it); the rendering lives in watch because obs cannot
		// import it.
		handlers["/metrics.prom"] = watch.PromHandler(o.Metrics())
		dbg, err = obs.StartDebugMux(*debugAddr, o.Metrics(), handlers)
		if err != nil {
			lg.Errorf("io", "%v", err)
			return 1
		}
		lg.Infof("debug/JSON endpoint: http://%s/ (POST /decide, GET /snapshots, /metrics, /metrics.prom)", dbg.Addr())
	}

	// serveErrs carries listener failures; a failed listener counts like a
	// stop request once every listener is down.
	serveErrs := make(chan error, 2)
	listeners := 0
	startListener := func(network, addr string) error {
		ln, err := net.Listen(network, addr)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "listening on %s %s\n", network, ln.Addr())
		lg.Infof("serving %s on %s %s", strings.Join(reg.Benches(), ","), network, ln.Addr())
		listeners++
		go func() { serveErrs <- srv.Serve(ln) }()
		return nil
	}
	if *listen != "" {
		if err := startListener("tcp", *listen); err != nil {
			lg.Errorf("io", "%v", err)
			return 1
		}
	}
	if *unixPath != "" {
		os.Remove(*unixPath) //nolint:errcheck // stale socket from a previous run
		if err := startListener("unix", *unixPath); err != nil {
			lg.Errorf("io", "%v", err)
			return 1
		}
	}
	clusterUnix := ""
	if cspec != nil {
		// Peers and routed clients dial the spec address, so the node must
		// listen there (on top of any extra -listen/-unix endpoints).
		addr := cspec.Addr(*nodeName)
		nw := "tcp"
		if strings.ContainsRune(addr, '/') {
			nw = "unix"
		}
		if addr != *listen && addr != *unixPath {
			if nw == "unix" {
				os.Remove(addr) //nolint:errcheck // stale socket from a previous run
				clusterUnix = addr
			}
			if err := startListener(nw, addr); err != nil {
				lg.Errorf("io", "%v", err)
				return 1
			}
		}
		// Boot catch-up: fetch the newest table of every benchmark this
		// node replicates, in case it missed pushes while it was down.
		go node.CatchUp(10, 500*time.Millisecond)
	}

	exit := 0
	running := true
	for running {
		select {
		case sig := <-stop:
			lg.Infof("received %v, draining (timeout %s)", sig, *drainTimeout)
			running = false
		case err := <-serveErrs:
			if err != nil {
				lg.Errorf("run", "%v", err)
				exit = 1
			}
			listeners--
			if listeners == 0 {
				running = false
			}
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		lg.Errorf("run", "drain incomplete: %v", err)
		exit = 1
	}
	if dbg != nil {
		if err := dbg.Shutdown(ctx); err != nil {
			lg.Errorf("run", "debug drain incomplete: %v", err)
		}
	}
	if *unixPath != "" {
		os.Remove(*unixPath) //nolint:errcheck // best-effort socket cleanup
	}
	if clusterUnix != "" {
		os.Remove(clusterUnix) //nolint:errcheck // best-effort socket cleanup
	}
	if node != nil {
		node.Close()
	}
	if recorder != nil {
		if err := recorder.Close(); err != nil {
			lg.Errorf("io", "%v", err)
			exit = 1
		}
	}
	if wal != nil {
		wal.Close() //nolint:errcheck // snapshot records are already durable
	}
	var closeErr error
	if exit != 0 {
		closeErr = fmt.Errorf("mithrad exited with failures")
	}
	if err := o.Close(closeErr); err != nil {
		lg.Errorf("io", "%v", err)
		exit = 1
	}
	lg.Infof("drained: %d snapshot swap(s), %d decision(s) served",
		reg.Swaps(), o.Counter("serve.decisions.precise").Value()+o.Counter("serve.decisions.approx").Value())
	return exit
}
