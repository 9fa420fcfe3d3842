package bench

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sort"
	"time"

	"mithra/internal/classifier"
	"mithra/internal/cluster"
	"mithra/internal/lint"
	"mithra/internal/mathx"
	"mithra/internal/misr"
	"mithra/internal/obs"
	"mithra/internal/serve"
	"mithra/internal/stats"
	"mithra/internal/watch"
)

// Config parameterizes one harness run.
type Config struct {
	// Smoke shrinks every stage's op count for CI gating (~10× fewer ops,
	// same stages, same alloc exactness — only timing gets noisier).
	Smoke bool
	// Seed keys the synthetic workload (table training set and inputs).
	// Same seed → same table geometry → same decisions.
	Seed uint64
	// Label tags the emitted rows; defaults to "bench".
	Label string
	// LintRoot, when set, is the module root to time one full
	// static-analysis pass over (the lint_repo stage: load, type-check,
	// all analyzers). Empty skips the stage — not every invocation runs
	// from a source checkout.
	LintRoot string
}

// benchName is the synthetic benchmark every harness stage serves.
const benchName = "synthetic"

// hermeticStages are the stages whose allocs/op is an exact contract: no
// socket, no goroutine handoff, single-threaded under GOMAXPROCS(1), so
// the measured malloc count is reproducible on any machine. Compare
// gates these exactly; RTT stages get slack.
var hermeticStages = map[string]bool{
	"wire_encode":        true,
	"wire_parse":         true,
	"misr_hash":          true,
	"table_classify":     true,
	"table_classify_64d": true,
	"registry_lookup":    true,
	"ring_lookup":        true,
	"decide_steady":      true,
	"drift_overhead":     true,
	"watch_observe":      true,
	"cluster_hop":        true,
}

// IsHermetic reports whether stage carries an exact allocs/op contract.
func IsHermetic(stage string) bool { return hermeticStages[stage] }

// measured is one stage's raw measurement.
type measured struct {
	ops     int
	seconds float64
	nsPerOp float64
	allocs  int64
	bytes   int64
}

// measure times ops calls of fn after warmup, with the allocation delta
// read from runtime.MemStats under GOMAXPROCS(1) — the same discipline
// as testing.AllocsPerRun, so a zero-alloc path measures exactly zero.
// Allocs and bytes are floor-divided by ops: a handful of stray runtime
// allocations (finalizers, timer wheel) cannot smear a true zero into a
// flaky one, while a real per-op allocation always survives the division.
func measure(warmup, ops int, fn func() error) (measured, error) {
	var res measured
	for i := 0; i < warmup; i++ {
		if err := fn(); err != nil {
			return res, err
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		if err := fn(); err != nil {
			return res, err
		}
	}
	el := time.Since(t0)
	runtime.ReadMemStats(&m1)
	res.ops = ops
	res.seconds = el.Seconds()
	res.nsPerOp = float64(el.Nanoseconds()) / float64(ops)
	res.allocs = int64(m1.Mallocs-m0.Mallocs) / int64(ops)
	res.bytes = int64(m1.TotalAlloc-m0.TotalAlloc) / int64(ops)
	return res, nil
}

// measureRTT is measure with a pre-allocated per-op latency recording
// (µs) for the percentile fields. Recording into lat allocates nothing,
// so the MemStats delta stays exact.
func measureRTT(warmup, ops int, lat []float64, fn func() error) (measured, error) {
	var res measured
	for i := 0; i < warmup; i++ {
		if err := fn(); err != nil {
			return res, err
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		s := time.Now()
		if err := fn(); err != nil {
			return res, err
		}
		lat[i] = float64(time.Since(s).Nanoseconds()) / 1e3
	}
	el := time.Since(t0)
	runtime.ReadMemStats(&m1)
	res.ops = ops
	res.seconds = el.Seconds()
	res.nsPerOp = float64(el.Nanoseconds()) / float64(ops)
	res.allocs = int64(m1.Mallocs-m0.Mallocs) / int64(ops)
	res.bytes = int64(m1.TotalAlloc-m0.TotalAlloc) / int64(ops)
	return res, nil
}

// percentile reads p (0..1) from an ascending-sorted latency slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

// syntheticTable trains a dim-wide table on seeded uniform inputs: those
// with in[0] > 0.9 are bad. At dim 3 it is the table every serving stage
// classifies against — the same geometry the serve tests use, cheap to
// train and fully determined by the seed.
func syntheticTable(seed uint64, dim int) (*classifier.Table, error) {
	rng := mathx.NewRNG(seed)
	samples := make([]classifier.Sample, 2000)
	for i := range samples {
		in := seededInput(rng, dim)
		samples[i] = classifier.Sample{In: in, Bad: in[0] > 0.9}
	}
	return classifier.TrainTable(classifier.DefaultTableConfig(), samples)
}

// seededInput draws a dim-wide input uniform in [0,1).
func seededInput(rng *mathx.RNG, dim int) []float64 {
	in := make([]float64, dim)
	for i := range in {
		in[i] = rng.Float64()
	}
	return in
}

// sinks defeat dead-code elimination in the measurement loops.
var (
	sinkU32 uint32
	sinkB   bool
)

// Run executes every stage and returns the rows for BENCH_serve.json.
func Run(cfg Config) ([]Row, error) {
	if cfg.Label == "" {
		cfg.Label = "bench"
	}
	if cfg.Seed == 0 {
		cfg.Seed = 99
	}
	hermWarm, hermOps := 2000, 20000
	rttWarm, rtt1Ops, rtt32Ops := 100, 3000, 500
	if cfg.Smoke {
		hermWarm, hermOps = 200, 2000
		rttWarm, rtt1Ops, rtt32Ops = 30, 400, 80
	}

	tab, err := syntheticTable(cfg.Seed, 3)
	if err != nil {
		return nil, err
	}
	g := stats.Guarantee{QualityLoss: 0.05, SuccessRate: 0.6, Confidence: 0.9}
	snap, err := serve.NewSnapshot(benchName, tab, nil, 0.1, g, nil)
	if err != nil {
		return nil, err
	}
	reg := serve.NewRegistry(snap)
	srv, err := serve.NewServer(reg, serve.Config{Workers: 1, MaxBatch: 32, Freeze: true})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go srv.Serve(ln) //nolint:errcheck // exits nil on drain
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx) //nolint:errcheck // best-effort teardown
	}()

	rng := mathx.NewRNG(cfg.Seed + 1)
	in := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
	var rows []Row
	herm := func(stage string, fn func() error) error {
		m, err := measure(hermWarm, hermOps, fn)
		if err != nil {
			return fmt.Errorf("bench: stage %s: %w", stage, err)
		}
		rows = append(rows, Row{
			Label: cfg.Label, Stage: stage, Bench: benchName,
			Decisions: m.ops, NsPerOp: m.nsPerOp,
			AllocsPerOp: m.allocs, BytesPerOp: m.bytes,
		})
		return nil
	}

	// wire_encode: request frame append into a reused buffer.
	req := serve.DecideRequest{ID: 7, Bench: benchName, In: in}
	ebuf := make([]byte, 0, 256)
	if err := herm("wire_encode", func() error {
		var e error
		ebuf, e = serve.AppendDecideRequest(ebuf[:0], &req)
		return e
	}); err != nil {
		return nil, err
	}

	// wire_parse: zero-copy decode of that frame's payload.
	frame, err := serve.AppendDecideRequest(nil, &req)
	if err != nil {
		return nil, err
	}
	payload := frame[4:]
	var preq serve.DecideRequest
	if err := herm("wire_parse", func() error {
		_, e := serve.ParseDecideRequestInto(payload, &preq)
		return e
	}); err != nil {
		return nil, err
	}

	// misr_hash: the reference MISR signature alone, over three words.
	h := misr.NewHasher(misr.Pool()[0], 12)
	words := []uint16{11, 42, 7}
	if err := herm("misr_hash", func() error {
		sinkU32 += h.Hash(words)
		return nil
	}); err != nil {
		return nil, err
	}

	// table_classify: the full quantize → hash → bitset decision, cycling
	// over 32 seeded inputs so the row is not one cache-hot input repeated.
	ins := make([][]float64, 32)
	for i := range ins {
		ins[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	var insIdx int
	if err := herm("table_classify", func() error {
		sinkB = tab.Classify(ins[insIdx%len(ins)])
		insIdx++
		return nil
	}); err != nil {
		return nil, err
	}

	// table_classify_64d: the same decision at jpeg's input width — 64
	// elements, default geometry (8 projected tables, QuantBits 6) —
	// where the per-element indexing dominates.
	tab64, err := syntheticTable(cfg.Seed, 64)
	if err != nil {
		return nil, err
	}
	rng64 := mathx.NewRNG(cfg.Seed + 2)
	ins64 := make([][]float64, 32)
	for i := range ins64 {
		ins64[i] = seededInput(rng64, 64)
	}
	insIdx = 0
	if err := herm("table_classify_64d", func() error {
		sinkB = tab64.Classify(ins64[insIdx%len(ins64)])
		insIdx++
		return nil
	}); err != nil {
		return nil, err
	}

	// registry_lookup: the per-batch snapshot resolve on the worker path.
	if err := herm("registry_lookup", func() error {
		if reg.Get(benchName) == nil {
			return fmt.Errorf("bench: registry lost %s", benchName)
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// ring_lookup: the routed client's per-request placement — consistent
	// hash over (bench, id, input slot) through the full Route path,
	// sampled-ID check included. This is the client-side cost of cluster
	// awareness and must stay allocation-free (a routed loadgen does one
	// per request).
	spec, err := cluster.ParseSpec("seed 7\nsample-rate 0.05\n" +
		"node alpha 127.0.0.1:1\nnode beta 127.0.0.1:2\nnode gamma 127.0.0.1:3\n" +
		"split " + benchName + " 8\n")
	if err != nil {
		return nil, err
	}
	router, err := cluster.NewRouter(spec)
	if err != nil {
		return nil, err
	}
	var ringID uint32
	if err := herm("ring_lookup", func() error {
		sinkU32 += uint32(len(router.Route(benchName, ringID, in)))
		ringID++
		return nil
	}); err != nil {
		return nil, err
	}

	// cluster_hop: the CPU-side cost of one forwarded request beyond a
	// local decide — route, forward-frame encode/decode, pending-table
	// bookkeeping, response encode/decode, ID rewrite — hermetic, no
	// sockets (the wire cost is the rtt stages' business).
	hop, err := cluster.NewHopDriver(spec, benchName, 3, in)
	if err != nil {
		return nil, err
	}
	if err := herm("cluster_hop", hop.Step); err != nil {
		return nil, err
	}

	// decide_steady: the hermetic end-to-end decide — pooled request,
	// frame parse, shard intern, classify, response encode — via the
	// server's SteadyDriver window. This is the zero-alloc contract row.
	drv, err := srv.SteadyDriver(benchName, in)
	if err != nil {
		return nil, err
	}
	if err := herm("decide_steady", drv.Step); err != nil {
		return nil, err
	}

	// zeroProbe measures every sampled decision as in bound.
	zeroProbe := func() serve.ErrorProbe {
		return func([]float64) float64 { return 0 }
	}

	// drift_overhead: decide_steady re-measured against a drift-armed
	// server — sampler, probe and recheck-mode monitor with the fold-in
	// escalation and the forced-sampling boost window armed: the serving
	// shape `mithrad -sample-rate 0.05 -recheck-window 16 -watch-lag 64`
	// runs. The driver's request ID (1) is not sampled at seed 42, so this
	// is the path every unsampled decision takes, and the ns/op delta
	// against decide_steady is the full cost of carrying the monitor. The
	// hermetic contract is the DESIGN.md §14 and §16 invariant: a
	// drift-armed steady decide still allocates nothing (boost membership
	// is one atomic load), so continuous monitoring is safe to leave on in
	// production.
	dsnap, err := serve.NewSnapshot(benchName, tab, nil, 0.1, g, zeroProbe)
	if err != nil {
		return nil, err
	}
	dsrv, err := serve.NewServer(serve.NewRegistry(dsnap), serve.Config{
		Workers: 1, MaxBatch: 32,
		SampleRate: 0.05, SampleSeed: 42,
		Watch: watch.Config{
			Window: 16, RecoverAfter: 8, Lag: 64,
			Recheck: watch.Recheck{MaxFoldIns: 8, RepairEvery: 40},
		},
	})
	if err != nil {
		return nil, err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		dsrv.Shutdown(ctx) //nolint:errcheck // best-effort teardown
	}()
	ddrv, err := dsrv.SteadyDriver(benchName, in)
	if err != nil {
		return nil, err
	}
	if err := herm("drift_overhead", ddrv.Step); err != nil {
		return nil, err
	}

	// watch_observe: one sampled observation through the guarantee
	// monitor in the shape `mithrad -recheck-window 32 -watch-lag 64`
	// runs it — recheck armed, divergence reference attached, metrics on,
	// no journal — on a holding stream. Every release re-checks the
	// Clopper-Pearson guarantee and every 32nd marks a window, so this
	// row is the monitor's full per-sample cost on the updater goroutine.
	wrng := mathx.NewRNG(cfg.Seed + 2)
	wins := make([][]float64, 256)
	for i := range wins {
		wins[i] = []float64{0.9 * wrng.Float64(), wrng.Float64(), wrng.Float64()}
	}
	wo, err := obs.New(obs.Options{Metrics: true})
	if err != nil {
		return nil, err
	}
	mon := watch.NewMonitor(benchName, g, watch.BuildReference(nil, wins), watch.Config{
		Enabled: true, Window: 32, Lag: 64,
		Recheck: watch.Recheck{Enabled: true, RepairEvery: 32, MaxFoldIns: 8},
	}, wo)
	var obsID uint32
	if err := herm("watch_observe", func() error {
		mon.Observe(watch.Obs{ID: obsID, In: wins[obsID%uint32(len(wins))]})
		obsID++
		return nil
	}); err != nil {
		return nil, err
	}

	// RTT stages: real loopback round trips through the full server
	// (reader goroutine, shard queue, worker, writev response path).
	cl, err := serve.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	rtt := func(stage string, pipeline, ops int) error {
		inputs := make([][]float64, pipeline)
		for i := range inputs {
			inputs[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		}
		out := make([]serve.DecideResponse, pipeline)
		lat := make([]float64, ops)
		id := uint32(1)
		m, err := measureRTT(rttWarm, ops, lat, func() error {
			_, e := cl.DecideBatchInto(benchName, id, inputs, out)
			id += uint32(pipeline)
			return e
		})
		if err != nil {
			return fmt.Errorf("bench: stage %s: %w", stage, err)
		}
		sort.Float64s(lat)
		rows = append(rows, Row{
			Label: cfg.Label, Stage: stage, Bench: benchName,
			Conns: 1, Pipeline: pipeline,
			Decisions: m.ops * pipeline, Seconds: m.seconds,
			DecisionsPerSec: float64(m.ops*pipeline) / m.seconds,
			P50us:           percentile(lat, 0.50),
			P99us:           percentile(lat, 0.99),
			NsPerOp:         m.nsPerOp,
			AllocsPerOp:     m.allocs, BytesPerOp: m.bytes,
		})
		return nil
	}
	if err := rtt("rtt_p1", 1, rtt1Ops); err != nil {
		return nil, err
	}
	if err := rtt("rtt_p32", 32, rtt32Ops); err != nil {
		return nil, err
	}

	// lint_repo: one full mithralint pass over the module — load,
	// type-check, every analyzer. Timing-only (see IsTimingOnly): the
	// type checker allocates freely, so only the gross ns/op ratio gates
	// this row; it is committed so the suite's own cost is part of the
	// perf trajectory and cannot balloon unnoticed.
	if cfg.LintRoot != "" {
		m, err := measure(0, 1, func() error {
			pkgs, err := lint.Load(cfg.LintRoot, []string{"./..."})
			if err != nil {
				return err
			}
			_, err = lint.Run(pkgs, lint.Analyzers())
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("bench: stage lint_repo: %w", err)
		}
		rows = append(rows, Row{
			Label: cfg.Label, Stage: "lint_repo",
			Decisions: m.ops, Seconds: m.seconds, NsPerOp: m.nsPerOp,
			AllocsPerOp: m.allocs, BytesPerOp: m.bytes,
		})
	}
	return rows, nil
}
