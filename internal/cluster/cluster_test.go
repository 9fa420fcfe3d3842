package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"mithra/internal/classifier"
	"mithra/internal/fault"
	"mithra/internal/mathx"
	"mithra/internal/misr"
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
}

// clusterOpts shapes one test deployment.
type clusterOpts struct {
	nodes      int
	sampleRate float64
	freeze     bool
	splits     string // extra spec lines, e.g. "split hot 8\n"
	probeErr   float64
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
		dlog := filepath.Join(t.TempDir(), "decisions.dlog")
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
			Spec: spec, Self: name, Registry: reg,
			Recorder: rec, Faults: faults, Obs: o, Logf: t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := serve.NewServer(reg, serve.Config{
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
	rc, err := NewRoutedClient(spec, false, 0)
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

// clientShape is one way clients drive the cluster: conns routed
// clients, each pipelining windows of pipeline requests. The determinism
// tests run both shapes the CI cluster job uses.
type clientShape struct{ conns, pipeline int }

func (c clientShape) String() string { return fmt.Sprintf("%dx%d", c.conns, c.pipeline) }

var clientShapes = []clientShape{{1, 1}, {4, 32}}

// dialShape builds one routed client per connection of shape.
func dialShape(t *testing.T, spec *Spec, shape clientShape, resilient bool, seed uint64) []*RoutedClient {
	t.Helper()
	rcs := make([]*RoutedClient, shape.conns)
	for c := range rcs {
		rc, err := NewRoutedClient(spec, resilient, seed+uint64(c))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { rc.Close() })
		rcs[c] = rc
	}
	return rcs
}

// decideRounds decides inputs (IDs 0, 1, ...) through rcs, window w (the
// pipeline inputs from w×pipeline on) on client w mod len(rcs) — the
// layout of `mithra loadgen` — and returns the responses in input order.
// Windows go out in rounds, each client sending one and the next round
// starting once all are answered, so the IDs in flight never span more
// than len(rcs)×pipeline.
func decideRounds(t *testing.T, rcs []*RoutedClient, pipeline int, bench string, inputs [][]float64) []serve.DecideResponse {
	t.Helper()
	out := make([]serve.DecideResponse, len(inputs))
	errs := make([]error, len(rcs))
	for round := 0; round < len(inputs); round += len(rcs) * pipeline {
		var wg sync.WaitGroup
		for c, rc := range rcs {
			lo := min(round+c*pipeline, len(inputs))
			hi := min(lo+pipeline, len(inputs))
			if lo == hi {
				break
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				resps, err := rc.DecideBatch(bench, uint32(lo), inputs[lo:hi])
				copy(out[lo:hi], resps)
				errs[c] = err
			}()
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestClusterDigestMatchesSingleNode is the tentpole acceptance gate in
// miniature: the merged decision digest of a 3-node cluster must be
// byte-identical to a single-node replay of the same trace, at both
// client shapes, for both a split and an unsplit benchmark.
func TestClusterDigestMatchesSingleNode(t *testing.T) {
	inputs := testInputs(400)
	digests := map[string]map[string]string{} // config -> bench -> digest
	for _, nodes := range []int{1, 3} {
		for _, shape := range clientShapes {
			tc := startCluster(t, clusterOpts{
				nodes: nodes, sampleRate: 0.2, freeze: true,
				splits: "split hot 8\n",
			}, "hot", "cold")
			key := fmt.Sprintf("n%d_%v", nodes, shape)
			digests[key] = map[string]string{}
			for _, bench := range []string{"hot", "cold"} {
				resps := decideRounds(t, dialShape(t, tc.spec, shape, false, 0), shape.pipeline, bench, inputs)
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
	base := digests[fmt.Sprintf("n1_%v", clientShapes[0])]
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
		nodes: 3, sampleRate: 0.2, freeze: true,
		splits: "split hot 8\n",
	}, "hot")
	// Reference: a routed run against a fresh, identical cluster.
	ref := startCluster(t, clusterOpts{
		nodes: 3, sampleRate: 0.2, freeze: true,
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
	for _, shape := range clientShapes {
		tc := startCluster(t, clusterOpts{
			nodes: 3, freeze: true,
			splits: "split synth 8\n",
			faults: map[string]string{"n0": plan, "n1": plan, "n2": plan},
		}, "synth")
		stale, err := ParseSpec(strings.Replace(tc.spec.String(), "seed 7\n", "seed 8\n", 1))
		if err != nil {
			t.Fatal(err)
		}
		rcs := dialShape(t, stale, shape, true, 3)
		for i, r := range decideRounds(t, rcs, shape.pipeline, "synth", inputs) {
			if r.ID != uint32(i) || r.Fallback {
				t.Fatalf("shape %v: slot %d holds %+v", shape, i, r)
			}
			if want := view.Classify(inputs[i]); r.Precise != want {
				t.Fatalf("shape %v: decision %d: served %v, classifier %v", shape, i, r.Precise, want)
			}
		}
		retries, reconnects := 0, 0
		for _, rc := range rcs {
			r, c, _ := rc.Stats()
			retries, reconnects = retries+r, reconnects+c
		}
		t.Logf("shape %v: %d retries, %d reconnects", shape, retries, reconnects)
		if retries == 0 {
			t.Fatalf("shape %v: no retries — the faulted forwards never reached the client", shape)
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

// encodedTable is the replicated form of a node's current synth table.
func encodedTable(t *testing.T, reg *serve.Registry) []byte {
	t.Helper()
	b, err := reg.Get("synth").Table.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// sameTable reports whether reg serves home's synth version and table.
func sameTable(t *testing.T, reg, home *serve.Registry) bool {
	return reg.Get("synth").Version == home.Get("synth").Version &&
		bytes.Equal(encodedTable(t, reg), encodedTable(t, home))
}

// safeInputs are inputs from the region the stale table accelerates;
// the fold-in tests' probe reports them all as bad, so the home node's
// monitor folds and swaps.
func safeInputs() [][]float64 {
	rng := mathx.NewRNG(13)
	inputs := make([][]float64, 64)
	for i := range inputs {
		inputs[i] = []float64{0.5 * rng.Float64(), rng.Float64(), rng.Float64()}
	}
	return inputs
}

// replicaOf names a node of a two-node cluster other than home.
func replicaOf(tc *testCluster, home string) string {
	names := tc.spec.Names()
	if names[0] != home {
		return names[0]
	}
	return names[1]
}

// TestFoldInReplication forces a guarantee violation on a benchmark's
// home node and waits for the repaired snapshot to replicate: every
// node must converge to the home node's version and table bytes through
// the push path.
func TestFoldInReplication(t *testing.T) {
	tc := startCluster(t, clusterOpts{
		nodes: 3, sampleRate: 1, probeErr: 1.0,
		watch: foldWatch,
	}, "synth")
	home := tc.nodes["n0"].Router().Home("synth")

	driveRouted(t, tc.spec, "synth", safeInputs())

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
		// The home's monitor may still be folding, so wait for the
		// replica to serve the home's latest version, bit for bit.
		waitFor(t, "replica "+name+" table", func() bool {
			return sameTable(t, reg, tc.regs[home])
		})
	}
}

// TestCatchUpRepairsPartition replays replication with every push from
// the home node dropped by fault injection: replicas stay stale until
// catch-up fetches the home node's current table in one message.
func TestCatchUpRepairsPartition(t *testing.T) {
	tc := startCluster(t, clusterOpts{
		nodes: 3, sampleRate: 1, probeErr: 1.0,
		watch: foldWatch,
		faults: map[string]string{
			"n0": "seed=3,peer.drop=1",
			"n1": "seed=3,peer.drop=1",
			"n2": "seed=3,peer.drop=1",
		},
	}, "synth")
	home := tc.nodes["n0"].Router().Home("synth")

	driveRouted(t, tc.spec, "synth", safeInputs())
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
	// push path's sends) and fetches the home node's current table in one
	// message.
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

// TestReplicaRestartCatchesUp rebuilds a replica's node and registry
// at the seed version — a restart that lost every push — and checks
// that one catch-up brings it to the home node's version and table.
func TestReplicaRestartCatchesUp(t *testing.T) {
	tc := startCluster(t, clusterOpts{
		nodes: 2, sampleRate: 1, probeErr: 1.0,
		watch: foldWatch,
	}, "synth")
	home := tc.nodes["n0"].Router().Home("synth")

	driveRouted(t, tc.spec, "synth", safeInputs())
	waitFor(t, "home fold-in", func() bool {
		return tc.regs[home].Get("synth").Version >= 2
	})
	name := replicaOf(tc, home)
	stopNode(t, tc, name)
	rebirthCatchesUp(t, tc, name, synthSnapshot(t, testTable(t), 0))
}

// TestReplicaRestartsFromWAL restarts a replica from its WAL, which is
// the only durable copy of the tables it replicated: the recovered state
// must hold a replicated version, and catch-up then brings the replica
// to the home node's version and table.
func TestReplicaRestartsFromWAL(t *testing.T) {
	tc := startCluster(t, clusterOpts{
		nodes: 2, sampleRate: 1, probeErr: 1.0,
		watch: foldWatch,
	}, "synth")
	home := tc.nodes["n0"].Router().Home("synth")
	name := replicaOf(tc, home)
	wal, err := serve.OpenWAL(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// The synth snapshots carry no compiled program for Snapshot.Export
	// (serve.AttachWAL's record), so the replica's WAL records hold the
	// encoded table: the state replication changes.
	tc.regs[name].SetPersist(func(s *serve.Snapshot) error {
		tab, err := s.Table.Encode()
		if err != nil {
			return err
		}
		return wal.StoreSnapshot(s.Bench, s.Version, tab)
	})

	driveRouted(t, tc.spec, "synth", safeInputs())
	waitFor(t, "replicated fold-in", func() bool {
		return tc.regs[name].Get("synth").Version >= 2
	})
	stopNode(t, tc, name)
	pre := tc.regs[name].Get("synth")
	want := encodedTable(t, tc.regs[name])
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := wal.Recover()
	if err != nil {
		t.Fatal(err)
	}
	got, ok := rec.Snapshots["synth"]
	if !ok || got.Version != pre.Version || !bytes.Equal(got.Blob, want) {
		t.Fatalf("WAL recovered synth v%d (found %v), replica served v%d", got.Version, ok, pre.Version)
	}
	tab, err := classifier.DecodeTable(got.Blob)
	if err != nil {
		t.Fatal(err)
	}
	rebirthCatchesUp(t, tc, name, synthSnapshot(t, tab, got.Version))
}

// stopNode shuts down the named node's server and closes its node.
func stopNode(t *testing.T, tc *testCluster, name string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := tc.servers[name].Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	tc.nodes[name].Close()
}

// synthSnapshot builds a synth snapshot serving tab at version (0: the
// registry assigns the seed version).
func synthSnapshot(t *testing.T, tab *classifier.Table, version uint32) *serve.Snapshot {
	t.Helper()
	snap, err := serve.NewSnapshot("synth", tab, nil, 0.1,
		stats.Guarantee{QualityLoss: 0.05, SuccessRate: 0.6, Confidence: 0.9}, nil)
	if err != nil {
		t.Fatal(err)
	}
	snap.Version = version
	return snap
}

// rebirthCatchesUp rebuilds the stopped node name over a fresh registry
// serving snap and checks that catch-up brings it to the home node's
// latest version, bit for bit.
func rebirthCatchesUp(t *testing.T, tc *testCluster, name string, snap *serve.Snapshot) {
	t.Helper()
	home := tc.nodes["n0"].Router().Home("synth")
	reg := serve.NewRegistry(snap)
	reborn, err := NewNode(NodeConfig{Spec: spec2(t, tc.spec), Self: name, Registry: reg, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer reborn.Close()
	// The home's monitor may still be folding: catch up until the reborn
	// replica serves the home's latest version, bit for bit.
	waitFor(t, "catch-up to the home table", func() bool {
		if err := reborn.CatchUpBench("synth"); err != nil {
			t.Fatal(err)
		}
		return sameTable(t, reg, tc.regs[home])
	})
	if v := reg.Get("synth").Version; v < 2 {
		t.Fatalf("reborn replica at v%d after catch-up", v)
	}
	// Asking again finds nothing older to replace (or the home's next
	// version): either way the answer is not an error.
	if err := reborn.CatchUpBench("synth"); err != nil {
		t.Fatal(err)
	}
}

// TestReplicaRefusesMismatchedTable pushes tables the replica cannot
// serve — fit for another input width, or not a table at all — straight
// to a replica: each must be refused with FoldFailed and counted in
// cluster.foldin.errors, and the replica keeps serving its version.
func TestReplicaRefusesMismatchedTable(t *testing.T) {
	tc := startCluster(t, clusterOpts{nodes: 2, freeze: true}, "synth")
	home := tc.nodes["n0"].Router().Home("synth")
	name := replicaOf(tc, home)
	rng := mathx.NewRNG(3)
	samples := make([]classifier.Sample, 500)
	for i := range samples {
		in := []float64{rng.Float64(), rng.Float64()}
		samples[i] = classifier.Sample{In: in, Bad: in[0] > 0.9}
	}
	narrow, err := classifier.TrainTable(classifier.DefaultTableConfig(), samples)
	if err != nil {
		t.Fatal(err)
	}
	wrongDim, err := narrow.Encode()
	if err != nil {
		t.Fatal(err)
	}
	nc, err := net.Dial("tcp", tc.spec.Addr(name))
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	br := bufio.NewReader(nc)
	for i, table := range [][]byte{wrongDim, []byte("not a table")} {
		if err := serve.WriteMessage(nc, &serve.FoldIn{Bench: "synth", Version: 5, Table: table}); err != nil {
			t.Fatal(err)
		}
		msg, err := serve.ReadMessage(br)
		if err != nil {
			t.Fatal(err)
		}
		if ack, ok := msg.(*serve.FoldInAck); !ok || ack.Status != serve.FoldFailed {
			t.Fatalf("push %d answered %#v, want a FoldFailed ack", i, msg)
		}
		if got := tc.obses[name].Counter("cluster.foldin.errors").Value(); got != int64(i+1) {
			t.Fatalf("cluster.foldin.errors = %d after %d refused pushes", got, i+1)
		}
	}
	cl, err := serve.Dial("tcp", tc.spec.Addr(name))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	resps, err := cl.DecideBatch("synth", 0, testInputs(8))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range resps {
		if r.Version != 1 || r.Fallback {
			t.Fatalf("replica answered %+v after refusing the pushes, want version 1", r)
		}
	}
}

// TestReplicaRefusesUnboundedQuantizer: a pushed table whose quantizer
// range is [NaN, +Inf] in every feature would route every input through
// one entry. The replica must refuse it (FoldFailed) and keep serving
// its current version.
func TestReplicaRefusesUnboundedQuantizer(t *testing.T) {
	tc := startCluster(t, clusterOpts{nodes: 2, freeze: true}, "synth")
	home := tc.nodes["n0"].Router().Home("synth")
	name := replicaOf(tc, home)
	good, err := tc.regs[home].Get("synth").Table.Encode()
	if err != nil {
		t.Fatal(err)
	}
	// Rewrite the quantizer bounds of the home node's own (valid) table.
	// The mirror decodes Table.Encode's gob stream by field name.
	var g struct {
		Cfg                classifier.TableConfig
		QuantMin, QuantMax []float64
		QuantBits          int
		MISRConfig         []misr.Config
		Proj               [][]int
		Compressed         []byte
	}
	if err := gob.NewDecoder(bytes.NewReader(good)).Decode(&g); err != nil {
		t.Fatal(err)
	}
	for i := range g.QuantMin {
		g.QuantMin[i], g.QuantMax[i] = math.NaN(), math.Inf(1)
	}
	var bad bytes.Buffer
	if err := gob.NewEncoder(&bad).Encode(g); err != nil {
		t.Fatal(err)
	}
	nc, err := net.Dial("tcp", tc.spec.Addr(name))
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := serve.WriteMessage(nc, &serve.FoldIn{Bench: "synth", Version: 5, Table: bad.Bytes()}); err != nil {
		t.Fatal(err)
	}
	msg, err := serve.ReadMessage(bufio.NewReader(nc))
	if err != nil {
		t.Fatal(err)
	}
	if ack, ok := msg.(*serve.FoldInAck); !ok || ack.Status != serve.FoldFailed {
		t.Fatalf("push answered %#v, want a FoldFailed ack", msg)
	}
	cl, err := serve.Dial("tcp", tc.spec.Addr(name))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	inputs := testInputs(64)
	resps, err := cl.DecideBatch("synth", 0, inputs)
	if err != nil {
		t.Fatal(err)
	}
	view := testTable(t).ConcurrentView()
	for i, r := range resps {
		if r.Version != 1 || r.Fallback || r.Precise != view.Classify(inputs[i]) {
			t.Fatalf("replica answered %+v for input %d after refusing the push, want version 1's decision", r, i)
		}
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
