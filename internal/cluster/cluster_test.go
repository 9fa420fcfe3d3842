package cluster

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mithra/internal/classifier"
	"mithra/internal/fault"
	"mithra/internal/mathx"
	"mithra/internal/obs"
	"mithra/internal/serve"
	"mithra/internal/stats"
	"mithra/internal/watch"
)

// testCluster is an in-process multi-node deployment: real servers on
// loopback TCP, real forwarding and replication, everything torn down at
// test end.
type testCluster struct {
	spec    *Spec
	nodes   map[string]*Node
	servers map[string]*serve.Server
	regs    map[string]*serve.Registry
	obses   map[string]*obs.Obs
	dlogs   map[string]string
	walDirs map[string]string
}

// clusterOpts shapes one test deployment.
type clusterOpts struct {
	nodes      int
	workers    int
	sampleRate float64
	freeze     bool
	splits     string // extra spec lines, e.g. "split hot 8\n"
	probeErr   float64
	wal        bool
	// oodProbe swaps the constant-error probe for a domain-sensitive
	// one: zero error inside [-0.02, 1.02] per component, 1 outside —
	// the failure mode distribution drift induces (mirrors the serve
	// package's drift acceptance tests).
	oodProbe bool
	// watch sizes every node's guarantee monitor, which sampling arms
	// (zero value: the monitor defaults).
	watch watch.Config
	// journals, when non-nil, gives every node a deterministic journal:
	// startCluster fills journals[name] with the buffer that node writes
	// canonical obs entries into (fake clock; flushed by obs Close).
	journals map[string]*bytes.Buffer
	// faults maps node name ("n0"...) to a fault plan for that node.
	faults map[string]string
}

func testTable(t testing.TB) *classifier.Table {
	t.Helper()
	rng := mathx.NewRNG(99)
	samples := make([]classifier.Sample, 2000)
	for i := range samples {
		in := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		samples[i] = classifier.Sample{In: in, Bad: in[0] > 0.9}
	}
	tab, err := classifier.TrainTable(classifier.DefaultTableConfig(), samples)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// startCluster boots opts.nodes mithrad-equivalents serving benches.
func startCluster(t *testing.T, opts clusterOpts, benches ...string) *testCluster {
	t.Helper()
	if opts.workers == 0 {
		opts.workers = 1
	}
	lns := make([]net.Listener, opts.nodes)
	specText := "seed 7\nsample-rate " + fmt.Sprintf("%g", opts.sampleRate) + "\nsample-seed 11\n"
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		specText += fmt.Sprintf("node n%d %s\n", i, ln.Addr().String())
	}
	specText += opts.splits
	spec, err := ParseSpec(specText)
	if err != nil {
		t.Fatal(err)
	}
	tc := &testCluster{
		spec:    spec,
		nodes:   map[string]*Node{},
		servers: map[string]*serve.Server{},
		regs:    map[string]*serve.Registry{},
		obses:   map[string]*obs.Obs{},
		dlogs:   map[string]string{},
		walDirs: map[string]string{},
	}
	g := stats.Guarantee{QualityLoss: 0.05, SuccessRate: 0.6, Confidence: 0.9}
	for i := range lns {
		name := fmt.Sprintf("n%d", i)
		tab := testTable(t)
		snaps := make([]*serve.Snapshot, len(benches))
		for j, bench := range benches {
			probeErr := opts.probeErr
			factory := func() serve.ErrorProbe {
				return func([]float64) float64 { return probeErr }
			}
			if opts.oodProbe {
				factory = func() serve.ErrorProbe {
					return func(in []float64) float64 {
						for _, x := range in {
							if x < -0.02 || x > 1.02 {
								return 1
							}
						}
						return 0
					}
				}
			}
			snap, err := serve.NewSnapshot(bench, tab, nil, 0.1, g, factory)
			if err != nil {
				t.Fatal(err)
			}
			snaps[j] = snap
		}
		reg := serve.NewRegistry(snaps...)
		dir := t.TempDir()
		var wal *serve.WAL
		if opts.wal {
			wal, err = serve.OpenWAL(dir)
			if err != nil {
				t.Fatal(err)
			}
			tc.walDirs[name] = dir
		}
		dlog := filepath.Join(dir, "decisions.dlog")
		rec, err := OpenRecorder(dlog)
		if err != nil {
			t.Fatal(err)
		}
		var faults *fault.Set
		if plan := opts.faults[name]; plan != "" {
			p, err := fault.ParsePlan(plan)
			if err != nil {
				t.Fatal(err)
			}
			faults = fault.NewSet(p)
		}
		oopts := obs.Options{Metrics: true}
		if opts.journals != nil {
			buf := &bytes.Buffer{}
			opts.journals[name] = buf
			oopts.Clock = obs.NewFakeClock(time.Unix(1700000000, 0))
			oopts.JournalWriter = buf
		}
		o, err := obs.New(oopts)
		if err != nil {
			t.Fatal(err)
		}
		node, err := NewNode(NodeConfig{
			Spec: spec, Self: name, Registry: reg, WAL: wal,
			Recorder: rec, Faults: faults, Obs: o, Logf: t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := serve.NewServer(reg, serve.Config{
			Workers: opts.workers, MaxBatch: 32,
			SampleRate: spec.SampleRate, SampleSeed: spec.SampleSeed,
			Freeze: opts.freeze, Obs: o, Faults: faults, Watch: opts.watch,
			Cluster: node, OnFoldIn: node.OnFoldIn,
		})
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(lns[i]) //nolint:errcheck // exits nil on drain
		tc.nodes[name] = node
		tc.servers[name] = srv
		tc.regs[name] = reg
		tc.obses[name] = o
		tc.dlogs[name] = dlog
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			srv.Shutdown(ctx) //nolint:errcheck // best-effort teardown
			node.Close()
			rec.Close() //nolint:errcheck
			if wal != nil {
				wal.Close() //nolint:errcheck
			}
		})
	}
	return tc
}

// mergedDigest merges every node's decision log and returns bench's
// digest.
func (tc *testCluster) mergedDigest(t *testing.T, bench string) string {
	t.Helper()
	paths := make([]string, 0, len(tc.dlogs))
	for _, name := range tc.spec.Names() {
		paths = append(paths, tc.dlogs[name])
	}
	sets, skipped, err := MergeDecisionLogs(paths)
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 0 {
		t.Fatalf("unexpected skipped blocks: %v", skipped)
	}
	if sets[bench] == nil {
		t.Fatalf("no records for %s", bench)
	}
	return sets[bench].Digest()
}

// testInputs is the deterministic request trace every digest test replays.
func testInputs(n int) [][]float64 {
	rng := mathx.NewRNG(5)
	inputs := make([][]float64, n)
	for i := range inputs {
		inputs[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	return inputs
}

// driveRouted replays inputs through a routed client in batches of 32.
func driveRouted(t *testing.T, spec *Spec, bench string, inputs [][]float64) []serve.DecideResponse {
	t.Helper()
	rc, err := NewRoutedClient(spec, false, serve.RetryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	out := make([]serve.DecideResponse, 0, len(inputs))
	for base := 0; base < len(inputs); base += 32 {
		end := base + 32
		if end > len(inputs) {
			end = len(inputs)
		}
		resps, err := rc.DecideBatch(bench, uint32(base), inputs[base:end])
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, resps...)
	}
	return out
}

// TestClusterDigestMatchesSingleNode is the tentpole acceptance gate in
// miniature: the merged decision digest of a 3-node cluster must be
// byte-identical to a single-node replay of the same trace, at worker
// counts 1 and 4, for both a split and an unsplit benchmark.
func TestClusterDigestMatchesSingleNode(t *testing.T) {
	inputs := testInputs(400)
	digests := map[string]map[string]string{} // config -> bench -> digest
	for _, nodes := range []int{1, 3} {
		for _, workers := range []int{1, 4} {
			tc := startCluster(t, clusterOpts{
				nodes: nodes, workers: workers,
				sampleRate: 0.2, freeze: true,
				splits: "split hot 8\n",
			}, "hot", "cold")
			key := fmt.Sprintf("n%d_w%d", nodes, workers)
			digests[key] = map[string]string{}
			for _, bench := range []string{"hot", "cold"} {
				resps := driveRouted(t, tc.spec, bench, inputs)
				// Reference digest straight from the responses the client saw.
				ref := serve.NewDecisionSet(bench)
				for _, r := range resps {
					if r.Fallback {
						t.Fatalf("%s: unexpected fallback", key)
					}
					ref.Append(r.Precise)
				}
				got := tc.mergedDigest(t, bench)
				if got != ref.Digest() {
					t.Fatalf("%s/%s: merged dlog digest %s != client-observed %s",
						key, bench, got, ref.Digest())
				}
				digests[key][bench] = got
			}
		}
	}
	base := digests["n1_w1"]
	for key, d := range digests {
		for bench, dig := range d {
			if dig != base[bench] {
				t.Fatalf("digest for %s diverged at %s: %s != %s", bench, key, dig, base[bench])
			}
		}
	}
}

// TestForwardingServesMisroutedClients sends the whole trace to one
// node with a plain (cluster-unaware) client: frames the node does not
// own must be forwarded and answered correctly, and the merged digest
// must still match the routed run.
func TestForwardingServesMisroutedClients(t *testing.T) {
	inputs := testInputs(200)
	tc := startCluster(t, clusterOpts{
		nodes: 3, workers: 2, sampleRate: 0.2, freeze: true,
		splits: "split hot 8\n",
	}, "hot")
	// Reference: a routed run against a fresh, identical cluster.
	ref := startCluster(t, clusterOpts{
		nodes: 3, workers: 2, sampleRate: 0.2, freeze: true,
		splits: "split hot 8\n",
	}, "hot")
	refResps := driveRouted(t, ref.spec, "hot", inputs)
	wantDigest := ref.mergedDigest(t, "hot")

	// Drive every request at n0, whatever the ring says.
	cl, err := serve.Dial("tcp", tc.spec.Addr("n0"))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var got []serve.DecideResponse
	for base := 0; base < len(inputs); base += 32 {
		end := base + 32
		if end > len(inputs) {
			end = len(inputs)
		}
		resps, err := cl.DecideBatch("hot", uint32(base), inputs[base:end])
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, resps...)
	}
	for i := range got {
		if got[i].Precise != refResps[i].Precise {
			t.Fatalf("request %d: forwarded decision %v, routed run decided %v",
				i, got[i].Precise, refResps[i].Precise)
		}
	}
	if dig := tc.mergedDigest(t, "hot"); dig != wantDigest {
		t.Fatalf("forwarded-run digest %s != routed-run digest %s", dig, wantDigest)
	}
	forwards := int64(0)
	for _, o := range tc.obses {
		forwards += o.Counter("serve.cluster.forwards").Value()
	}
	if forwards == 0 {
		t.Fatal("no frames were forwarded — ring owned everything at n0?")
	}
}

// TestRoutedClientRetriesThroughFaults drives a 3-node cluster whose
// peer links fail (peer.drop, conn.partition) with a routed client that
// has retries armed. The client resolves a stale ring (a different ring
// seed than the nodes share), so the requests it sends to non-owners
// must be forwarded, and the first forwards on every link fail with the
// retryable CodePeerDown. Every decision must still equal the offline
// classifier's, and the retry path must really have run.
func TestRoutedClientRetriesThroughFaults(t *testing.T) {
	inputs := testInputs(400)
	view := testTable(t).ConcurrentView()
	plan := "seed=42,peer.drop=1@3,conn.partition=1@2"
	for _, workers := range []int{1, 4} {
		tc := startCluster(t, clusterOpts{
			nodes: 3, workers: workers, freeze: true,
			splits: "split synth 8\n",
			faults: map[string]string{"n0": plan, "n1": plan, "n2": plan},
		}, "synth")
		stale, err := ParseSpec(strings.Replace(tc.spec.String(), "seed 7\n", "seed 8\n", 1))
		if err != nil {
			t.Fatal(err)
		}
		rc, err := NewRoutedClient(stale, true, serve.RetryConfig{Seed: 3, Attempts: 10})
		if err != nil {
			t.Fatal(err)
		}
		for base := 0; base < len(inputs); base += 32 {
			end := min(base+32, len(inputs))
			resps, err := rc.DecideBatch("synth", uint32(base), inputs[base:end])
			if err != nil {
				t.Fatalf("workers %d: %v", workers, err)
			}
			for i, r := range resps {
				if r.ID != uint32(base+i) || r.Fallback {
					t.Fatalf("workers %d: slot %d holds %+v", workers, base+i, r)
				}
				if want := view.Classify(inputs[base+i]); r.Precise != want {
					t.Fatalf("workers %d: decision %d: served %v, classifier %v", workers, base+i, r.Precise, want)
				}
			}
		}
		retries, reconnects, _ := rc.Stats()
		rc.Close()
		t.Logf("workers %d: %d retries, %d reconnects", workers, retries, reconnects)
		if retries == 0 {
			t.Fatalf("workers %d: no retries — the faulted forwards never reached the client", workers)
		}
	}
}

// waitFor polls cond for up to 5 seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for i := 0; i < 500; i++ {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// foldWatch sizes the monitor for the fold-in tests: they drive 64
// sampled observations, fewer than the default 512-deep reorder buffer,
// so a small Lag lets the home node re-check (and fold) while serving.
var foldWatch = watch.Config{Window: 16, Lag: 8}

// TestFoldInReplication forces a guarantee violation on a benchmark's
// home node and waits for the repaired snapshot to replicate: every
// node must converge to the same version through the push path.
func TestFoldInReplication(t *testing.T) {
	tc := startCluster(t, clusterOpts{
		nodes: 3, workers: 2, sampleRate: 1, probeErr: 1.0, wal: true,
		watch: foldWatch,
	}, "synth")
	home := tc.nodes["n0"].Router().Home("synth")

	// Safe-region inputs the stale table accelerates; the probe reports
	// them all as bad, so the home node's monitor folds and swaps.
	rng := mathx.NewRNG(13)
	inputs := make([][]float64, 64)
	for i := range inputs {
		inputs[i] = []float64{0.5 * rng.Float64(), rng.Float64(), rng.Float64()}
	}
	driveRouted(t, tc.spec, "synth", inputs)

	waitFor(t, "home fold-in", func() bool {
		return tc.regs[home].Get("synth").Version >= 2
	})
	homeVer := tc.regs[home].Get("synth").Version
	for _, name := range tc.spec.Names() {
		if name == home {
			continue
		}
		reg := tc.regs[name]
		waitFor(t, "replica "+name+" convergence", func() bool {
			return reg.Get("synth").Version >= homeVer
		})
		// The replica's fold history (memory and WAL) must now replay the
		// same versions the home node installed. The home's monitor may
		// still be folding, so wait for history and registry to agree.
		node := tc.nodes[name]
		waitFor(t, "replica "+name+" history", func() bool {
			recs := node.FoldIns("synth", 0)
			return len(recs) > 0 && recs[len(recs)-1].Version == reg.Get("synth").Version
		})
	}
}

// TestCatchUpRepairsPartition replays replication with every push from
// the home node dropped by fault injection: replicas stay stale until
// catch-up fetches the fold history over the wire.
func TestCatchUpRepairsPartition(t *testing.T) {
	tc := startCluster(t, clusterOpts{
		nodes: 3, workers: 1, sampleRate: 1, probeErr: 1.0, wal: true,
		watch: foldWatch,
		faults: map[string]string{
			"n0": "seed=3,peer.drop=1",
			"n1": "seed=3,peer.drop=1",
			"n2": "seed=3,peer.drop=1",
		},
	}, "synth")
	home := tc.nodes["n0"].Router().Home("synth")

	rng := mathx.NewRNG(13)
	inputs := make([][]float64, 64)
	for i := range inputs {
		inputs[i] = []float64{0.5 * rng.Float64(), rng.Float64(), rng.Float64()}
	}
	driveRouted(t, tc.spec, "synth", inputs)
	waitFor(t, "home fold-in", func() bool {
		return tc.regs[home].Get("synth").Version >= 2
	})
	homeVer := tc.regs[home].Get("synth").Version

	// Pushes were all dropped: replicas must still be at the seed version.
	for _, name := range tc.spec.Names() {
		if name != home && tc.regs[name].Get("synth").Version != 1 {
			t.Fatalf("push to %s survived a peer.drop=1 plan", name)
		}
	}
	// Catch-up dials the home node directly (peer.drop only fires on the
	// push path's sends) and replays the missing fold-ins in order.
	for _, name := range tc.spec.Names() {
		if name == home {
			continue
		}
		if err := tc.nodes[name].CatchUpBench("synth"); err != nil {
			t.Fatal(err)
		}
		if got := tc.regs[name].Get("synth").Version; got < homeVer {
			t.Fatalf("replica %s at v%d after catch-up, home at v%d", name, got, homeVer)
		}
	}
}

// TestFoldHistorySurvivesRestart reopens a replica's WAL in a fresh
// Node — the crash/restart path — and checks the fold history is
// restored for serving peers' catch-ups.
func TestFoldHistorySurvivesRestart(t *testing.T) {
	tc := startCluster(t, clusterOpts{
		nodes: 2, workers: 1, sampleRate: 1, probeErr: 1.0, wal: true,
		watch: foldWatch,
	}, "synth")
	home := tc.nodes["n0"].Router().Home("synth")

	rng := mathx.NewRNG(13)
	inputs := make([][]float64, 64)
	for i := range inputs {
		inputs[i] = []float64{0.5 * rng.Float64(), rng.Float64(), rng.Float64()}
	}
	driveRouted(t, tc.spec, "synth", inputs)
	waitFor(t, "replication", func() bool {
		for _, name := range tc.spec.Names() {
			if tc.regs[name].Get("synth").Version < 2 {
				return false
			}
		}
		return true
	})

	name := tc.spec.Names()[0]
	if name == home {
		name = tc.spec.Names()[1]
	}
	// Crash the replica before reading its history: the home's monitor
	// may still be folding, and a live replica would keep appending.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := tc.servers[name].Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	tc.nodes[name].Close()
	want := len(tc.nodes[name].FoldIns("synth", 0))
	if want == 0 {
		t.Fatal("replica has no fold history to restart with")
	}
	wal, err := serve.OpenWAL(tc.walDirs[name])
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	reborn, err := NewNode(NodeConfig{
		Spec: spec2(t, tc.spec), Self: name,
		Registry: tc.regs[name], WAL: wal, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer reborn.Close()
	if got := len(reborn.FoldIns("synth", 0)); got != want {
		t.Fatalf("restarted node restored %d fold-ins, want %d", got, want)
	}
}

// spec2 reparses a spec through its canonical render — the same path a
// restarted mithrad takes through the spec file.
func spec2(t *testing.T, s *Spec) *Spec {
	t.Helper()
	again, err := ParseSpec(s.String())
	if err != nil {
		t.Fatal(err)
	}
	return again
}

// TestHopDriverSteady keeps the cluster_hop bench honest: the driver
// must run indefinitely without error and without unbounded state.
func TestHopDriverSteady(t *testing.T) {
	spec, err := ParseSpec("seed 7\nnode a 127.0.0.1:1\nnode b 127.0.0.1:2\nsplit x 4\n")
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewHopDriver(spec, "x", 3, []float64{0.1, 0.2, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		if err := d.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if len(d.pending) != 0 {
		t.Fatalf("pending table leaked %d entries", len(d.pending))
	}
}

// TestHopDriverZeroAlloc pins the cluster_hop bench row's 0 allocs/op:
// a forward hop's encode, decode and ID rewrite allocate nothing.
func TestHopDriverZeroAlloc(t *testing.T) {
	spec, err := ParseSpec("seed 7\nnode a 127.0.0.1:1\nnode b 127.0.0.1:2\nsplit x 4\n")
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewHopDriver(spec, "x", 3, []float64{0.1, 0.2, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(2000, func() {
		if err := d.Step(); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("HopDriver.Step allocates %v per op, want 0", avg)
	}
}
