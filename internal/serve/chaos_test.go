package serve

import (
	"bytes"
	"context"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"mithra/internal/axbench"
	"mithra/internal/core"
	"mithra/internal/fault"
	"mithra/internal/mathx"
	"mithra/internal/obs"
	"mithra/internal/watch"
)

// compiledFixture builds one real fft deployment (test scale) shared by
// the chaos tests: the exported blob, the trace's invocation inputs, and
// the offline decision vector. Compilation dominates the cost, so it
// runs once.
var compiledFixture = sync.OnceValues(func() (struct {
	blob    []byte
	inputs  [][]float64
	offline []bool
}, error,
) {
	var fx struct {
		blob    []byte
		inputs  [][]float64
		offline []bool
	}
	b, err := axbench.New("fft")
	if err != nil {
		return fx, err
	}
	ctx, err := core.NewContext(b, core.TestOptions())
	if err != nil {
		return fx, err
	}
	dep, err := ctx.Deploy(testGuarantee())
	if err != nil {
		return fx, err
	}
	if fx.blob, err = dep.Export(); err != nil {
		return fx, err
	}
	ds := ctx.Validate[0]
	fx.offline = make([]bool, ds.Tr.N)
	ds.Tr.Replay(b, ds.In, fx.offline, dep.Decisions(core.DesignTable, 0, ds.Tr))
	fx.inputs = ds.Tr.CollectInputs()
	return fx, nil
})

// startServerWithRegistry is startServer for a caller-built registry
// (the WAL tests attach persistence hooks before the server exists).
func startServerWithRegistry(t testing.TB, reg *Registry, cfg Config) (*Server, string) {
	t.Helper()
	s, err := NewServer(reg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln) //nolint:errcheck // exits nil on drain
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx) //nolint:errcheck // best-effort teardown
	})
	return s, ln.Addr().String()
}

// TestChaosFaultsDegradeSafelyAndRecover is the fault-plan acceptance
// test: under injected connection resets and a burst of worker panics,
// every decision the resilient client collects is either byte-identical
// to the offline classifier or an explicitly flagged fallback — and a
// fallback is always DecisionPrecise, the quality-safe direction. Once
// the panic burst exhausts its limit, the breaker's probes re-close it
// (transitions journaled), and decisions flow normally again.
func TestChaosFaultsDegradeSafelyAndRecover(t *testing.T) {
	plan, err := fault.ParsePlan("seed=7,conn.reset=0.01,worker.panic=1@30")
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.NewSet(plan)
	var jbuf bytes.Buffer
	o, err := obs.New(obs.Options{Metrics: true, JournalWriter: &jbuf})
	if err != nil {
		t.Fatal(err)
	}
	snap := syntheticSnapshot(t, "alpha", nil)
	offline := snap.Table.ConcurrentView()

	_, addr := startServer(t, Config{
		Workers: 2, Obs: o, Faults: faults,
		Breaker: BreakerConfig{Window: 8, ErrBudget: 0.25, ProbeAfter: 4, Probes: 2},
	}, snap)

	rcl, err := DialResilient("tcp", addr, RetryConfig{Seed: 11, Attempts: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer rcl.Close()

	rng := mathx.NewRNG(21)
	inputs := make([][]float64, 600)
	for i := range inputs {
		inputs[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	fallbacks, tail := 0, 0
	for base := 0; base < len(inputs); base += 32 {
		hi := min(base+32, len(inputs))
		resps, err := rcl.DecideBatch("alpha", uint32(base), inputs[base:hi])
		if err != nil {
			t.Fatalf("batch at %d: %v", base, err)
		}
		for i, r := range resps {
			if r.Fallback {
				fallbacks++
				if !r.Precise {
					t.Fatalf("request %d: fallback decision is not precise — quality-unsafe", base+i)
				}
				continue
			}
			if want := offline.Classify(inputs[base+i]); r.Precise != want {
				t.Fatalf("request %d: served %v, offline classifier %v", base+i, r.Precise, want)
			}
			if base >= 512 {
				tail++
			}
		}
	}
	if got := faults.Fired(fault.SiteWorkerPanic); got != 30 {
		t.Errorf("worker panics fired %d times, want the full limit of 30", got)
	}
	if fallbacks == 0 {
		t.Error("panic burst produced no fallback decisions — breaker never engaged")
	}
	if tail == 0 {
		t.Error("no non-fallback decisions after the burst — breaker never recovered")
	}
	if o.Counter("serve.worker.panics").Value() == 0 {
		t.Error("recovered panics not counted")
	}

	if err := o.Close(nil); err != nil {
		t.Fatal(err)
	}
	journal := jbuf.String()
	for _, want := range []string{`"name":"breaker"`, `"to":"open"`, `"to":"half-open"`, `"to":"closed"`} {
		if !strings.Contains(journal, want) {
			t.Errorf("journal missing breaker transition %s", want)
		}
	}
}

// TestWALCrashRecoveryRestoresRepairedSnapshot is the crash-safety
// acceptance test at the engine level: injected drift forces an online
// repair (persisted write-ahead), then the server is abandoned and a
// fresh WAL recovery must reinstate the exact repaired snapshot — same
// version, decision-identical table.
func TestWALCrashRecoveryRestoresRepairedSnapshot(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a full deployment")
	}
	fx, err := compiledFixture()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	wal, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	o, err := obs.New(obs.Options{Metrics: true})
	if err != nil {
		t.Fatal(err)
	}

	reg := NewRegistry()
	AttachWAL(reg, wal, nil, o)
	snap, err := LoadSnapshot(fx.blob)
	if err != nil {
		t.Fatal(err)
	}
	// Injected drift: the probe reports an error far above the threshold
	// for every sampled invocation, as if the accelerator degraded.
	snap.SetProbe(func() ErrorProbe {
		return func([]float64) float64 { return 1e9 }
	})
	if _, err := reg.Install(snap); err != nil {
		t.Fatal(err)
	}

	srv, addr := startServerWithRegistry(t, reg, Config{
		Workers: 2, SampleRate: 1, SampleSeed: 3, Obs: o,
		Watch: watch.Config{Window: 16, Lag: 8},
	})
	cl, err := Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	for base := 0; base < len(fx.inputs) && reg.Swaps() == 0; base += 64 {
		hi := min(base+64, len(fx.inputs))
		if _, err := cl.DecideBatch("fft", uint32(base), fx.inputs[base:hi]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 500 && reg.Swaps() == 0; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	cl.Close()
	if reg.Swaps() == 0 {
		t.Fatal("injected drift never produced a repaired snapshot swap")
	}

	// "Crash": stop serving. The snapshot records were durable the moment
	// each install published (write-ahead), so nothing depends on a clean
	// shutdown; the subprocess SIGKILL test covers the hard-kill path.
	// The drain releases the monitor's reorder buffer and may fold once
	// more, so the pre-crash state is read after it.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	srv.Shutdown(ctx) //nolint:errcheck
	pre := reg.Get("fft")
	wal.Close()

	wal2, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer wal2.Close()
	rec, err := wal2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Skipped) != 0 {
		t.Fatalf("recovery skipped records: %v", rec.Skipped)
	}
	got, ok := rec.Snapshots["fft"]
	if !ok {
		t.Fatal("no recovered snapshot for fft")
	}
	if got.Version != pre.Version {
		t.Fatalf("recovered version %d, pre-crash version %d", got.Version, pre.Version)
	}
	rsnap, err := LoadSnapshot(got.Blob)
	if err != nil {
		t.Fatal(err)
	}
	rsnap.Version = got.Version
	// The recovered table must decide exactly like the pre-crash repaired
	// table — including the online updates that made the guarantee hold.
	rview, pview := rsnap.Table.ConcurrentView(), pre.Table.ConcurrentView()
	updatedDecisions := 0
	for i, in := range fx.inputs {
		r, p := rview.Classify(in), pview.Classify(in)
		if r != p {
			t.Fatalf("input %d: recovered table decides %v, pre-crash %v", i, r, p)
		}
		if p != fx.offline[i] {
			updatedDecisions++
		}
	}
	if updatedDecisions == 0 {
		t.Fatal("repair changed no decisions — the test exercised nothing")
	}

	// Restart the stack from recovery and serve: the restored snapshot
	// version is what clients observe.
	reg2 := NewRegistry()
	AttachWAL(reg2, wal2, nil, nil)
	if _, err := reg2.Install(rsnap); err != nil {
		t.Fatal(err)
	}
	_, addr2 := startServerWithRegistry(t, reg2, Config{Workers: 1})
	cl2, err := Dial("tcp", addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	resp, err := cl2.Decide("fft", 1, fx.inputs[0])
	if err != nil {
		t.Fatal(err)
	}
	if resp.Version != pre.Version {
		t.Fatalf("restarted daemon serves version %d, want recovered %d", resp.Version, pre.Version)
	}
	if resp.Precise != pview.Classify(fx.inputs[0]) {
		t.Fatal("restarted decision differs from pre-crash snapshot")
	}
}

// TestWALPersistsReplicatedTable checks that a table a replica installs
// from a peer (Snapshot.WithReplica) is stored write-ahead like a local
// repair: the WAL is a replica's only durable copy of replicated state,
// so recovery must reinstate the pushed version and table bytes.
func TestWALPersistsReplicatedTable(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a full deployment")
	}
	fx, err := compiledFixture()
	if err != nil {
		t.Fatal(err)
	}
	wal, err := OpenWAL(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	AttachWAL(reg, wal, nil, nil)
	snap, err := LoadSnapshot(fx.blob)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Install(snap); err != nil {
		t.Fatal(err)
	}
	// The home node's repaired table: the seed table with some inputs
	// folded in as bad.
	repaired := snap.Table.Clone()
	for _, in := range fx.inputs[:64] {
		repaired.Update(in, true)
	}
	pushed, err := repaired.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if seed, err := snap.Table.Encode(); err != nil || bytes.Equal(seed, pushed) {
		t.Fatalf("folding changed no table bits (err %v)", err)
	}
	ns, err := reg.Get("fft").WithReplica(3, pushed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Install(ns); err != nil {
		t.Fatal(err)
	}

	rec, err := wal.Recover()
	if err != nil {
		t.Fatal(err)
	}
	got, ok := rec.Snapshots["fft"]
	if !ok || got.Version != 3 {
		t.Fatalf("recovered fft v%d (found %v), want v3", got.Version, ok)
	}
	rsnap, err := LoadSnapshot(got.Blob)
	if err != nil {
		t.Fatal(err)
	}
	back, err := rsnap.Table.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, pushed) {
		t.Fatal("recovered table differs from the replicated one")
	}
}

// TestInstallFaultForcesBreakerOpen: when a guarantee violation's repair
// cannot be persisted (injected snapshot-install failure), the shard
// force-opens its breaker — the guarantee is restored by serving
// precise instead.
func TestInstallFaultForcesBreakerOpen(t *testing.T) {
	plan, err := fault.ParsePlan("seed=3,snapshot.install=1")
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.NewSet(plan)
	var jbuf bytes.Buffer
	o, err := obs.New(obs.Options{Metrics: true, JournalWriter: &jbuf})
	if err != nil {
		t.Fatal(err)
	}
	snap := syntheticSnapshot(t, "synth", func() ErrorProbe {
		return func([]float64) float64 { return 1.0 }
	})
	reg := NewRegistry(snap) // boot install precedes the faulty persist hook
	wal, err := OpenWAL(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	AttachWAL(reg, wal, faults, o)

	_, addr := startServerWithRegistry(t, reg, Config{
		Workers: 2, SampleRate: 1, SampleSeed: 3, Obs: o,
		Watch:   watch.Config{Window: 16, Lag: 8},
		Breaker: BreakerConfig{Window: 8, ErrBudget: 0.5, ProbeAfter: 1 << 30, Probes: 8},
	})
	cl, err := Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Safe-region inputs the stale table accelerates; the drifted probe
	// marks them bad, so the first full window violates and tries to
	// install a repair — which the fault plan refuses.
	rng := mathx.NewRNG(13)
	inputs := make([][]float64, 64)
	for i := range inputs {
		inputs[i] = []float64{0.5 * rng.Float64(), rng.Float64(), rng.Float64()}
	}
	if _, err := cl.DecideBatch("synth", 0, inputs); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500 && o.Counter("serve.snapshot.install_errors").Value() == 0; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	if o.Counter("serve.snapshot.install_errors").Value() == 0 {
		t.Fatal("injected install fault never fired")
	}
	if reg.Swaps() != 0 {
		t.Fatal("failed install still swapped a snapshot in")
	}

	// The breaker is now open (ProbeAfter is huge, so it stays open):
	// every subsequent decision is the precise fallback.
	resps, err := cl.DecideBatch("synth", 1000, inputs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range resps {
		if !r.Fallback || !r.Precise {
			t.Fatalf("request %d after forced-open: fallback=%v precise=%v, want true/true", i, r.Fallback, r.Precise)
		}
	}
	if err := o.Close(nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(jbuf.String(), "snapshot install failed") {
		t.Errorf("journal missing the forced-open reason:\n%s", jbuf.String())
	}
}
