package cluster

// Cluster-mode drift acceptance: the same sudden-drift scenario the
// serve package pins single-process must also ride out a multi-node
// deployment. The benchmark is unsplit, so every request routes to its
// home node — the placement rule that keeps sampling, boost windows,
// and the monitor's table view coherent — while the monitor-driven
// fold-ins replicate to the other nodes through the push path. The
// home node's recovery note streams must be byte-identical across
// cluster sizes (1 vs 3 nodes) and client shapes (1x1 vs 4x32), so a
// multi-address `mithra watch` tells one recovery story no matter how
// the deployment is shaped.

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"mithra/internal/dataset"
	"mithra/internal/mathx"
	"mithra/internal/obs"
	"mithra/internal/watch"
)

// clusterDriftNotes mirrors the serve package's drift gate: the note
// streams that must be deterministic. (Raw journal bytes also carry the
// final metrics snapshot, whose push/catch-up counters legitimately
// depend on replication timing.)
var clusterDriftNotes = []string{"guarantee", "boost", "foldin", "cp_window", "recovery", "recovery_exceeded"}

// clusterDriftInputs is the serve drift tests' stationary stream:
// distinct vectors in [0, 0.9)^3, inside the table's trained-good
// region and the probe's accuracy domain.
func clusterDriftInputs(n int) [][]float64 {
	rng := mathx.NewRNG(5)
	out := make([][]float64, n)
	for i := range out {
		out[i] = []float64{rng.Float64() * 0.9, rng.Float64() * 0.9, rng.Float64() * 0.9}
	}
	return out
}

// clusterDriftRun drives the sudden-drift scenario through routed
// clients of one shape against an n-node cluster with recheck-armed
// monitors, waits
// for the repaired tables to replicate, and returns the home node's
// rendered note streams plus the number of fold-ins the home registry
// installed.
func clusterDriftRun(t *testing.T, nodes int, shape clientShape) (string, int64) {
	t.Helper()
	d, err := dataset.ParseDrift("kind=sudden,at=300,shift=0.35,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	journals := map[string]*bytes.Buffer{}
	tc := startCluster(t, clusterOpts{
		nodes: nodes, sampleRate: 1,
		oodProbe: true, journals: journals,
		// Lag 128 covers the widest shape's in-flight skew (4 clients of
		// 32-request windows).
		watch: watch.Config{
			Window: 16, RecoverAfter: 8, Exemplars: 4, Lag: 128,
			Recheck: watch.Recheck{MaxFoldIns: 8, RepairEvery: 40},
		},
	}, "synth")
	home := tc.nodes["n0"].Router().Home("synth")

	// The bench is unsplit, so every window lands on the home node, over
	// one connection per routed client.
	base := clusterDriftInputs(120)
	const repeats = 10
	ins := make([][]float64, len(base)*repeats)
	for i := range ins {
		ins[i] = d.Apply(nil, base[i%len(base)], uint64(i))
	}
	rcs := dialShape(t, tc.spec, shape, false, 0)
	decideRounds(t, rcs, shape.pipeline, "synth", ins)
	for _, rc := range rcs {
		rc.Close()
	}

	// Drain the home server first: its updater finishes the queued
	// observations, the monitor flushes and journals its final state,
	// and any last fold-in is installed before we pin the home version.
	// The replicas stay up until they have converged: the last fold-ins
	// are pushed by the home node's sender goroutine, and a replica
	// drained while a push is in flight could never receive it.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := tc.servers[home].Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	homeVer := tc.regs[home].Get("synth").Version
	if homeVer < 2 {
		t.Fatalf("home node never folded a repair in (version %d)", homeVer)
	}
	folds := int64(homeVer) - 1
	for _, name := range tc.spec.Names() {
		if name == home {
			continue
		}
		reg := tc.regs[name]
		waitFor(t, "replica "+name+" convergence", func() bool {
			return reg.Get("synth").Version >= homeVer
		})
		if !sameTable(t, reg, tc.regs[home]) {
			t.Fatalf("replica %s table differs from the home node's at v%d", name, homeVer)
		}
		if err := tc.servers[name].Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
		if applied := tc.obses[name].Counter("cluster.foldin.applied.synth").Value(); applied != folds {
			t.Fatalf("replica %s applied %d fold-ins, home installed %d", name, applied, folds)
		}
	}

	for _, name := range tc.spec.Names() {
		if err := tc.obses[name].Close(nil); err != nil {
			t.Fatal(err)
		}
	}
	// Every replica's journal must tell the same catch-up story: one
	// foldin_replica note per home fold-in, in version order.
	for _, name := range tc.spec.Names() {
		if name == home {
			continue
		}
		entries, err := obs.ReadJournal(bytes.NewReader(journals[name].Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		var replica strings.Builder
		obs.RenderNotes(&replica, entries, "foldin_replica")
		lines := strings.Split(strings.TrimSpace(replica.String()), "\n")
		if int64(len(lines)) != folds {
			t.Fatalf("replica %s journaled %d foldin_replica notes, want %d:\n%s",
				name, len(lines), folds, replica.String())
		}
		for i, line := range lines {
			if want := fmt.Sprintf("version=%d", i+2); !strings.Contains(line, want) {
				t.Fatalf("replica %s fold-in notes out of version order at %d:\n%s",
					name, i, replica.String())
			}
		}
	}

	entries, err := obs.ReadJournal(bytes.NewReader(journals[home].Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var rendered strings.Builder
	for _, n := range clusterDriftNotes {
		obs.RenderNotes(&rendered, entries, n)
	}
	return rendered.String(), folds
}

// checkClusterDriftCycle asserts the home node's guarantee notes walk a
// complete holding → violated → … → recovering → holding cycle with a
// bounded, successful recovery — the cluster restatement of the serve
// package's checkDriftCycle.
func checkClusterDriftCycle(t *testing.T, notes string) {
	t.Helper()
	var trs [][2]string
	recoveries := 0
	for _, line := range strings.Split(notes, "\n") {
		if strings.HasPrefix(line, "note recovery_exceeded") {
			t.Fatalf("fold-in bound exceeded: %s", line)
		}
		if strings.HasPrefix(line, "note recovery ") {
			recoveries++
			if !strings.Contains(line, "exceeded=false") {
				t.Fatalf("recovery note reports exceeded: %s", line)
			}
		}
		if !strings.HasPrefix(line, "note guarantee ") {
			continue
		}
		trs = append(trs, [2]string{driftNoteAttr(line, "from="), driftNoteAttr(line, "to=")})
	}
	if len(trs) < 3 {
		t.Fatalf("want >= 3 guarantee transitions, got %v", trs)
	}
	if trs[0] != [2]string{"holding", "violated"} {
		t.Fatalf("first transition %v, want holding→violated", trs[0])
	}
	sawRecovering := false
	for i, tr := range trs {
		if i > 0 && tr[0] != trs[i-1][1] {
			t.Fatalf("broken transition chain at %d: %v", i, trs)
		}
		if tr[1] == "recovering" {
			sawRecovering = true
		}
	}
	if !sawRecovering {
		t.Fatalf("no recovering transition journaled: %v", trs)
	}
	if last := trs[len(trs)-1]; last[1] != "holding" {
		t.Fatalf("final transition %v, want re-entry into holding", last)
	}
	if recoveries == 0 {
		t.Fatal("no recovery note journaled")
	}
}

// driftNoteAttr pulls one `k=v` attr value out of a rendered note line.
func driftNoteAttr(line, key string) string {
	i := strings.Index(line, key)
	if i < 0 {
		return ""
	}
	v := line[i+len(key):]
	if j := strings.IndexAny(v, " }"); j >= 0 {
		v = v[:j]
	}
	return v
}

// TestClusterDriftRecovery is the cluster acceptance gate: the home
// node's recovery journal is byte-identical across cluster sizes and
// client shapes, the guarantee cycle completes within the fold-in
// bound, and every replica converges to the repaired table with a
// deterministic replication journal.
func TestClusterDriftRecovery(t *testing.T) {
	type run struct {
		notes string
		folds int64
	}
	runs := map[string]run{}
	for _, nodes := range []int{1, 3} {
		for _, shape := range clientShapes {
			key := fmt.Sprintf("n%d_%v", nodes, shape)
			t.Run(key, func(t *testing.T) {
				notes, folds := clusterDriftRun(t, nodes, shape)
				checkClusterDriftCycle(t, notes)
				if folds > 8 {
					t.Fatalf("home installed %d fold-ins, bound 8", folds)
				}
				runs[key] = run{notes, folds}
			})
		}
	}
	baseKey := fmt.Sprintf("n1_%v", clientShapes[0])
	baseRun, ok := runs[baseKey]
	if !ok {
		t.Fatal("baseline run missing")
	}
	for key, r := range runs {
		if r.notes != baseRun.notes {
			t.Fatalf("recovery journal diverged at %s:\n--- %s ---\n%s\n--- %s ---\n%s",
				key, baseKey, baseRun.notes, key, r.notes)
		}
		if r.folds != baseRun.folds {
			t.Fatalf("fold-in count diverged at %s: %d != %d", key, r.folds, baseRun.folds)
		}
	}
}
