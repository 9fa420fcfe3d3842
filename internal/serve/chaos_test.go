package serve

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"slices"
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
// fallback is always DecisionPrecise, the quality-safe direction. The
// panic barrier is the only source of fallbacks: the server answers
// exactly the panicking decisions with one, and every other decision is
// the classifier's.
func TestChaosFaultsDegradeSafelyAndRecover(t *testing.T) {
	plan, err := fault.ParsePlan("seed=7,conn.reset=0.01,worker.panic=1@30")
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.NewSet(plan)
	o, err := obs.New(obs.Options{Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	snap := syntheticSnapshot(t, "alpha", nil)
	offline := snap.Table.ConcurrentView()

	_, addr := startServer(t, Config{Obs: o, Faults: faults}, snap)

	rcl, err := DialResilient("tcp", addr, 11)
	if err != nil {
		t.Fatal(err)
	}
	defer rcl.Close()

	rng := mathx.NewRNG(21)
	inputs := make([][]float64, 600)
	for i := range inputs {
		inputs[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	fallbacks := 0
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
		}
	}
	if fallbacks == 0 || fallbacks > 30 {
		t.Errorf("client saw %d fallback answers, want 1..30 (one per panic at most)", fallbacks)
	}
	fired := faults.Fired(fault.SiteWorkerPanic)
	panics := o.Counter("serve.worker.panics").Value()
	served := o.Counter("serve.decisions.fallback").Value()
	if fired != 30 || panics != 30 || served != 30 {
		t.Errorf("panics fired %d, recovered %d, fallbacks served %d; want 30 each", fired, panics, served)
	}
	if got := o.Counter("serve.bench.fallbacks.alpha").Value(); got != 30 {
		t.Errorf("serve.bench.fallbacks.alpha = %d, want 30", got)
	}
}

// TestChaosDecisionParity tears connections, tears frames and injects
// decide panics while several resilient clients hammer the server.
// Every answered decision must still match the offline classifier (a
// read buffer serving another request's bytes would break parity), and
// every fallback must be precise.
func TestChaosDecisionParity(t *testing.T) {
	plan, err := fault.ParsePlan("seed=19,conn.reset=0.005,frame.partial=0.01,worker.panic=1@10")
	if err != nil {
		t.Fatal(err)
	}
	snap := syntheticSnapshot(t, "alpha", nil)
	srv, addr := startServer(t, Config{
		Faults: fault.NewSet(plan),
	}, snap)

	const clients = 4
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rcl, err := DialResilient("tcp", addr, seed)
			if err != nil {
				t.Error(err)
				return
			}
			defer rcl.Close()
			offline := snap.Table.ConcurrentView() // private scratch per goroutine
			rng := mathx.NewRNG(seed)
			for base := 0; base < 200; base += 20 {
				inputs := make([][]float64, 20)
				for i := range inputs {
					inputs[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
				}
				resps, err := rcl.DecideBatch("alpha", uint32(base), inputs)
				if err != nil {
					// A torn connection can exhaust retries; that is the
					// fault plan working, not a parity failure.
					continue
				}
				for i, r := range resps {
					if r.Fallback {
						if !r.Precise {
							t.Errorf("fallback decision not precise at %d", base+i)
						}
						continue
					}
					if want := offline.Classify(inputs[i]); r.Precise != want {
						t.Errorf("request %d: served %v, offline %v", base+i, r.Precise, want)
					}
				}
			}
		}(uint64(cl) + 31)
	}
	wg.Wait()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
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
		SampleRate: 1, SampleSeed: 3, Obs: o,
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
	_, addr2 := startServerWithRegistry(t, reg2, Config{})
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

// TestRefusedRepairIsRetriedByMonitor: when a guarantee violation's
// repair cannot be persisted (an injected snapshot-install failure), the
// shard keeps serving its current snapshot through the classifier, the
// refusal is journaled, and the monitor's next repair — RepairEvery
// releases later, while the violation persists — installs.
func TestRefusedRepairIsRetriedByMonitor(t *testing.T) {
	plan, err := fault.ParsePlan("seed=3,snapshot.install=1@1")
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
	offline := snap.Table.ConcurrentView()
	// The synthetic snapshot has no compiled blob for a WAL to store, so
	// the persist hook is only the fault site: the boot install precedes
	// it, the first repair hits the fault and every later one persists.
	reg := NewRegistry(snap)
	reg.SetPersist(func(*Snapshot) error {
		if faults.Site(fault.SiteSnapshotInstall).Hit() {
			return fmt.Errorf("%w: snapshot install", fault.ErrInjected)
		}
		return nil
	})

	// Window 16, lag 8: the monitor releases an observation once 8 newer
	// ones are pending, and RepairEvery defaults to the window, so while
	// the violation persists the fold-ins come at the 16th, 32nd and
	// 48th release.
	_, addr := startServerWithRegistry(t, reg, Config{
		SampleRate: 1, SampleSeed: 3, Obs: o,
		Watch: watch.Config{Window: 16, Lag: 8},
	})
	cl, err := Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Safe-region inputs the stale table accelerates; the drifted probe
	// marks them bad, so the first full window violates.
	rng := mathx.NewRNG(13)
	inputs := make([][]float64, 48)
	for i := range inputs {
		inputs[i] = []float64{0.5 * rng.Float64(), rng.Float64(), rng.Float64()}
	}
	send := func(lo, hi int) []DecideResponse {
		t.Helper()
		resps, err := cl.DecideBatch("synth", uint32(lo), inputs[lo:hi])
		if err != nil {
			t.Fatal(err)
		}
		return resps
	}
	waitFor := func(what string, done func() bool) {
		t.Helper()
		for i := 0; i < 500 && !done(); i++ {
			time.Sleep(10 * time.Millisecond)
		}
		if !done() {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
	installErrors := o.Counter("serve.snapshot.install_errors")
	observed := o.Counter("watch.samples.synth")
	foldIns := o.Counter("watch.recovery.foldins.synth")

	// IDs 0..23 release 16 observations: a full, violated window, whose
	// repair (at the 16th release) the fault plan refuses.
	send(0, 24)
	waitFor("the refused install", func() bool { return installErrors.Value() == 1 })
	if reg.Swaps() != 0 {
		t.Fatal("refused install still swapped a snapshot in")
	}

	// IDs 24..31 release up to the 24th observation, short of the next
	// repair at the 32nd: the shard answers with the classifier on the
	// unrepaired table, not a fallback.
	for i, r := range send(24, 32) {
		if r.Fallback || r.Version != 1 || r.Precise != offline.Classify(inputs[24+i]) {
			t.Fatalf("request %d after the refused install: fallback=%v version=%d precise=%v, want the v1 classifier's answer",
				24+i, r.Fallback, r.Version, r.Precise)
		}
	}
	waitFor("the monitor to see IDs 0..31", func() bool { return observed.Value() == 32 })
	if foldIns.Value() != 1 || reg.Swaps() != 0 {
		t.Fatalf("%d fold-ins and %d swaps before RepairEvery releases, want 1 and 0", foldIns.Value(), reg.Swaps())
	}

	// IDs 32..47 release up to the 40th observation: past the retried
	// repair at the 32nd, which installs, and short of the 48th.
	send(32, 48)
	waitFor("the retried fold-in", func() bool { return foldIns.Value() == 2 })
	if reg.Swaps() != 1 {
		t.Fatalf("%d swaps after the retried repair, want 1", reg.Swaps())
	}
	if got := reg.Get("synth").Version; got != 2 {
		t.Fatalf("repaired snapshot version %d, want 2", got)
	}
	if installErrors.Value() != 1 {
		t.Fatalf("install_errors = %d, want 1", installErrors.Value())
	}

	if err := o.Close(nil); err != nil {
		t.Fatal(err)
	}
	entries, err := obs.ReadJournal(&jbuf)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range entries {
		if e["t"] != "note" {
			continue
		}
		attrs := e["attrs"].(map[string]any)
		switch e["name"] {
		case "install_failed":
			if msg, _ := attrs["error"].(string); !strings.Contains(msg, fault.ErrInjected.Error()) {
				t.Errorf("install_failed note carries error %q, want the injected fault", msg)
			}
			got = append(got, "install_failed")
		case "foldin":
			got = append(got, fmt.Sprintf("foldin applied=%v", attrs["applied"]))
		}
	}
	want := []string{"install_failed", "foldin applied=false", "foldin applied=true"}
	if !slices.Equal(got, want) {
		t.Fatalf("journal repair notes %q, want %q", got, want)
	}
}
