package serve

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"mithra/internal/axbench"
	"mithra/internal/classifier"
	"mithra/internal/core"
	"mithra/internal/mathx"
	"mithra/internal/obs"
	"mithra/internal/stats"
	"mithra/internal/watch"
)

// testGuarantee is loose enough for small sampling windows.
func testGuarantee() stats.Guarantee {
	return stats.Guarantee{QualityLoss: 0.05, SuccessRate: 0.6, Confidence: 0.9}
}

// syntheticTable trains a dim-3 table over a synthetic error geometry
// (inputs with in[0] > 0.9 are bad) — cheap enough for every test.
func syntheticTable(t testing.TB) *classifier.Table {
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

// syntheticSnapshot wraps a synthetic table (threshold 0.1, loose
// guarantee). probeFactory may be nil.
func syntheticSnapshot(t testing.TB, bench string, probeFactory func() ErrorProbe) *Snapshot {
	t.Helper()
	snap, err := NewSnapshot(bench, syntheticTable(t), 0.1, testGuarantee(), probeFactory)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// startServer builds a server over snaps, listens on loopback TCP, and
// tears everything down at test end. Returns the server and its address.
func startServer(t testing.TB, cfg Config, snaps ...*Snapshot) (*Server, string) {
	t.Helper()
	reg := NewRegistry(snaps...)
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

// clientShape is one way clients drive a server: conns connections, each
// pipelining windows of pipeline requests. The determinism tests run
// every shape in clientShapes; decisions, sampled sets and journaled
// notes must not depend on which.
type clientShape struct{ conns, pipeline int }

func (c clientShape) String() string { return fmt.Sprintf("%dx%d", c.conns, c.pipeline) }

// clientShapes are the two shapes the CI serving jobs use: one request
// at a time on one connection, and four connections of 32-request
// windows.
var clientShapes = []clientShape{{1, 1}, {4, 32}}

// shapedClients is one client shape dialed to a server.
type shapedClients struct {
	shape clientShape
	cls   []*Client
}

func dialShape(t testing.TB, addr string, shape clientShape) *shapedClients {
	t.Helper()
	sc := &shapedClients{shape: shape}
	for i := 0; i < shape.conns; i++ {
		cl, err := Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		sc.cls = append(sc.cls, cl)
	}
	return sc
}

// decide decides inputs under IDs base, base+1, ... into out (input
// order). Window w, the pipeline inputs from w×pipeline on, goes to
// connection w mod conns, the layout of `mithra loadgen`. Windows go out
// in rounds: every connection sends one window, and the next round
// starts once all of them are answered, so the IDs in flight never span
// more than conns×pipeline — the skew a monitor's reorder buffer
// (watch.Config.Lag) must cover.
func (sc *shapedClients) decide(bench string, base uint32, inputs [][]float64, out []DecideResponse) error {
	p, conns := sc.shape.pipeline, sc.shape.conns
	errs := make([]error, conns)
	for round := 0; round < len(inputs); round += conns * p {
		var wg sync.WaitGroup
		for c := 0; c < conns; c++ {
			lo := min(round+c*p, len(inputs))
			hi := min(lo+p, len(inputs))
			if lo == hi {
				break
			}
			wg.Add(1)
			go func(c, lo, hi int) {
				defer wg.Done()
				_, errs[c] = sc.cls[c].DecideBatchInto(bench, base+uint32(lo), inputs[lo:hi], out[lo:hi])
			}(c, lo, hi)
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return err
		}
	}
	return nil
}

func TestRegistryVersioningAndCOW(t *testing.T) {
	a := syntheticSnapshot(t, "alpha", nil)
	b := syntheticSnapshot(t, "beta", nil)
	reg := NewRegistry(b, a)
	if got := reg.Benches(); len(got) != 2 || got[0] != "alpha" || got[1] != "beta" {
		t.Fatalf("Benches() = %v, want sorted [alpha beta]", got)
	}
	if v := reg.Get("alpha").Version; v != 1 {
		t.Fatalf("first install version = %d, want 1", v)
	}
	if reg.Swaps() != 0 {
		t.Fatalf("first installs counted as swaps: %d", reg.Swaps())
	}
	old := reg.Get("alpha")
	upd := old.withTable(old.Table.Clone())
	prev, err := reg.Install(upd)
	if err != nil {
		t.Fatalf("Install: %v", err)
	}
	if prev != old {
		t.Fatal("Install did not return the replaced snapshot")
	}
	if v := reg.Get("alpha").Version; v != 2 {
		t.Fatalf("swapped version = %d, want 2", v)
	}
	if reg.Swaps() != 1 {
		t.Fatalf("Swaps() = %d, want 1", reg.Swaps())
	}
	// COW: the beta entry is untouched, and the old alpha snapshot still
	// describes version 1 (readers holding it mid-batch are unaffected).
	if reg.Get("beta") != b {
		t.Fatal("unrelated snapshot disturbed by Install")
	}
	if old.Version != 1 {
		t.Fatalf("old snapshot mutated: version %d", old.Version)
	}
	if reg.Get("nope") != nil {
		t.Fatal("unknown bench should be nil")
	}
}

func TestServerDecidesLikeClassifier(t *testing.T) {
	snap := syntheticSnapshot(t, "synth", nil)
	_, addr := startServer(t, Config{}, snap)
	cl, err := Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}

	rng := mathx.NewRNG(7)
	inputs := make([][]float64, 500)
	for i := range inputs {
		inputs[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	resps, err := cl.DecideBatch("synth", 0, inputs)
	if err != nil {
		t.Fatal(err)
	}
	view := snap.Table.ConcurrentView()
	for i, r := range resps {
		if r.ID != uint32(i) {
			t.Fatalf("response %d carries id %d", i, r.ID)
		}
		if want := view.Classify(inputs[i]); r.Precise != want {
			t.Fatalf("decision %d: served %v, classifier %v", i, r.Precise, want)
		}
		if r.Sampled {
			t.Fatalf("decision %d sampled with SampleRate 0", i)
		}
		if r.Version != 1 {
			t.Fatalf("decision %d from version %d", i, r.Version)
		}
	}
}

// TestServerDecidesNonFiniteInputsLikeClassifier: NaN, ±Inf and
// ±MaxFloat64 in every input position travel the wire as raw IEEE-754
// bits and are served exactly as the offline classifier decides them.
func TestServerDecidesNonFiniteInputsLikeClassifier(t *testing.T) {
	snap := syntheticSnapshot(t, "synth", nil)
	_, addr := startServer(t, Config{}, snap)
	cl, err := Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	vals := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64, 0.95, 0.5}
	var inputs [][]float64
	for _, a := range vals {
		for _, b := range vals {
			for _, c := range vals {
				inputs = append(inputs, []float64{a, b, c})
			}
		}
	}
	resps, err := cl.DecideBatch("synth", 0, inputs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range resps {
		if r.Fallback {
			t.Fatalf("input %v: served the panic fallback", inputs[i])
		}
		if want := snap.Table.Classify(inputs[i]); r.Precise != want {
			t.Fatalf("input %v: served %v, classifier %v", inputs[i], r.Precise, want)
		}
	}
}

func TestServerShardsAreIsolated(t *testing.T) {
	a := syntheticSnapshot(t, "alpha", nil)
	b := syntheticSnapshot(t, "beta", nil)
	_, addr := startServer(t, Config{}, a, b)
	cl, err := Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	in := [][]float64{{0.95, 0.5, 0.5}, {0.1, 0.2, 0.3}}
	ra, err := cl.DecideBatch("alpha", 0, in)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := cl.DecideBatch("beta", 100, in)
	if err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if ra[i].Precise != rb[i].Precise {
			t.Fatalf("identical tables disagreed on input %d", i)
		}
	}
}

func TestServerErrorResponses(t *testing.T) {
	snap := syntheticSnapshot(t, "synth", nil)
	_, addr := startServer(t, Config{}, snap)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	br := bufio.NewReader(nc)

	// Unknown benchmark.
	if err := WriteMessage(nc, &DecideRequest{ID: 1, Bench: "nope", In: []float64{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	msg, err := ReadMessage(br)
	if err != nil {
		t.Fatal(err)
	}
	if e, ok := msg.(*ErrorResponse); !ok || e.Code != CodeUnknownBench || e.ID != 1 {
		t.Fatalf("want CodeUnknownBench for id 1, got %#v", msg)
	}

	// Wrong input width.
	if err := WriteMessage(nc, &DecideRequest{ID: 2, Bench: "synth", In: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	msg, err = ReadMessage(br)
	if err != nil {
		t.Fatal(err)
	}
	if e, ok := msg.(*ErrorResponse); !ok || e.Code != CodeBadDim || e.ID != 2 {
		t.Fatalf("want CodeBadDim for id 2, got %#v", msg)
	}

	// Malformed payload inside a well-formed frame: an error response,
	// and the connection survives.
	if _, err := nc.Write(frameFor([]byte{'M', 1, 77})); err != nil {
		t.Fatal(err)
	}
	msg, err = ReadMessage(br)
	if err != nil {
		t.Fatal(err)
	}
	if e, ok := msg.(*ErrorResponse); !ok || e.Code != CodeMalformed {
		t.Fatalf("want CodeMalformed, got %#v", msg)
	}
	if err := WriteMessage(nc, Ping{}); err != nil {
		t.Fatal(err)
	}
	if msg, err = ReadMessage(br); err != nil {
		t.Fatal(err)
	}
	if _, ok := msg.(Pong); !ok {
		t.Fatalf("connection unusable after malformed payload: %#v", msg)
	}
}

// scriptedClient connects a Client to a fake server over net.Pipe. For
// each batch in answers, the server reads two requests and answers with
// the listed response IDs (Version = batch number, from 1); after the
// last batch it closes the connection.
func scriptedClient(t *testing.T, answers ...[]uint32) *Client {
	t.Helper()
	cliEnd, srvEnd := net.Pipe()
	go func() {
		defer srvEnd.Close()
		br := bufio.NewReader(srvEnd)
		for batch, ids := range answers {
			for range 2 {
				if _, err := ReadMessage(br); err != nil {
					return
				}
			}
			for _, id := range ids {
				if err := WriteMessage(srvEnd, &DecideResponse{ID: id, Version: uint32(batch + 1)}); err != nil {
					return
				}
			}
		}
	}()
	cl := NewClient(cliEnd)
	t.Cleanup(func() { cl.Close() })
	return cl
}

// TestClientResponseIDs: every slot of a batch is filled by its own
// response ID. A duplicate answer is dropped and cannot stand in for a
// missing one — which would leave the previous call's decision in out —
// and an ID outside the request set is a protocol error.
func TestClientResponseIDs(t *testing.T) {
	in := [][]float64{{1}, {2}}
	out := make([]DecideResponse, 2)

	cl := scriptedClient(t, []uint32{11, 10}, []uint32{10, 10})
	if _, err := cl.DecideBatchInto("synth", 10, in, out); err != nil {
		t.Fatal(err)
	}
	if out[0].ID != 10 || out[1].ID != 11 || out[0].Version != 1 || out[1].Version != 1 {
		t.Fatalf("first batch filed out of order: %+v", out)
	}
	_, err := cl.DecideBatchInto("synth", 10, in, out)
	if err == nil {
		t.Fatalf("ID 11 was never answered but the batch succeeded; out[1] = %+v is the previous call's", out[1])
	}
	if !errors.Is(err, ErrRetryable) {
		t.Fatalf("unanswered slot after the server hung up: want a retryable read error, got %v", err)
	}

	cl = scriptedClient(t, []uint32{10, 99})
	if _, err := cl.DecideBatchInto("synth", 10, in, out); !errors.Is(err, ErrProtocol) {
		t.Fatalf("response ID 99 outside the request set: want ErrProtocol, got %v", err)
	}
}

// TestPipelinedMixedWidthBatch: one wrong-width request inside a
// pipelined window must fail alone. At every client shape each
// connection sends the same 32 requests, a window per write; ID 16 gets
// CodeBadDim and every other decision equals the offline classifier's.
func TestPipelinedMixedWidthBatch(t *testing.T) {
	const n, bad = 32, 16
	rng := mathx.NewRNG(11)
	inputs := make([][]float64, n)
	for i := range inputs {
		inputs[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	inputs[bad] = []float64{0.5}
	for _, shape := range clientShapes {
		snap := syntheticSnapshot(t, "synth", nil)
		_, addr := startServer(t, Config{}, snap)
		errs := make(chan error, shape.conns)
		for c := 0; c < shape.conns; c++ {
			go func() { errs <- mixedWidthConn(addr, snap, inputs, shape.pipeline, bad) }()
		}
		for c := 0; c < shape.conns; c++ {
			if err := <-errs; err != nil {
				t.Fatalf("shape %v: %v", shape, err)
			}
		}
	}
}

// mixedWidthConn drives TestPipelinedMixedWidthBatch's requests over one
// connection, pipeline frames per write.
func mixedWidthConn(addr string, snap *Snapshot, inputs [][]float64, pipeline int, bad uint32) error {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer nc.Close()
	br := bufio.NewReader(nc)
	view := snap.Table.ConcurrentView()
	seen := make([]bool, len(inputs))
	for lo := 0; lo < len(inputs); lo += pipeline {
		hi := min(lo+pipeline, len(inputs))
		var frames []byte
		for i := lo; i < hi; i++ {
			if frames, err = AppendFrame(frames, &DecideRequest{ID: uint32(i), Bench: "synth", In: inputs[i]}); err != nil {
				return err
			}
		}
		if _, err := nc.Write(frames); err != nil {
			return err
		}
		for i := lo; i < hi; i++ {
			msg, err := ReadMessage(br)
			if err != nil {
				return err
			}
			switch m := msg.(type) {
			case *ErrorResponse:
				if m.Code != CodeBadDim || m.ID != bad {
					return fmt.Errorf("want CodeBadDim for id %d, got %#v", bad, m)
				}
				seen[m.ID] = true
			case *DecideResponse:
				if m.ID == bad || int(m.ID) < lo || int(m.ID) >= hi || seen[m.ID] {
					return fmt.Errorf("unexpected decision %#v", m)
				}
				if want := view.Classify(inputs[m.ID]); m.Precise != want {
					return fmt.Errorf("decision %d: served %v, classifier %v", m.ID, m.Precise, want)
				}
				seen[m.ID] = true
			default:
				return fmt.Errorf("unexpected response %#v", msg)
			}
		}
	}
	return nil
}

func TestSamplingIsDeterministic(t *testing.T) {
	// The sampled set must be a pure function of (seed, bench, id) — the
	// same at any client shape and in any scheduling.
	sampledSet := func(shape clientShape) []bool {
		snap := syntheticSnapshot(t, "synth", func() ErrorProbe {
			return func([]float64) float64 { return 0 }
		})
		_, addr := startServer(t, Config{SampleRate: 0.3, SampleSeed: 11}, snap)
		rng := mathx.NewRNG(5)
		inputs := make([][]float64, 400)
		for i := range inputs {
			inputs[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		}
		resps := make([]DecideResponse, len(inputs))
		if err := dialShape(t, addr, shape).decide("synth", 0, inputs, resps); err != nil {
			t.Fatal(err)
		}
		out := make([]bool, len(resps))
		hits := 0
		for i, r := range resps {
			out[i] = r.Sampled
			if r.Sampled {
				hits++
			}
		}
		if hits == 0 || hits == len(resps) {
			t.Fatalf("sample rate 0.3 hit %d/%d invocations", hits, len(resps))
		}
		return out
	}
	want := sampledSet(clientShapes[0])
	for _, shape := range clientShapes[1:] {
		got := sampledSet(shape)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("sampled set diverged at invocation %d between shapes %v and %v", i, clientShapes[0], shape)
			}
		}
	}
}

func TestOnlineUpdateRestoresGuarantee(t *testing.T) {
	// Injected drift: the probe reports error 1.0 (far above the 0.1
	// threshold) for every input — as if the accelerator degraded — while
	// the table still routes the safe region to the accelerator. The
	// guarantee monitor must observe the violation, fold the bad inputs
	// into the table, and swap a repaired snapshot in.
	snap := syntheticSnapshot(t, "synth", func() ErrorProbe {
		return func([]float64) float64 { return 1.0 }
	})
	o, err := obs.New(obs.Options{Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	// OnFoldIn records every repaired snapshot the monitor installs.
	var (
		foldMu sync.Mutex
		folded []*Snapshot
	)
	srv, addr := startServer(t, Config{
		SampleRate: 1, SampleSeed: 3, Obs: o,
		OnFoldIn: func(snap *Snapshot) {
			foldMu.Lock()
			defer foldMu.Unlock()
			folded = append(folded, snap)
		},
		// Lag 64 covers one 64-request batch's in-flight skew, so the
		// monitor releases each batch in ID order once the next arrives
		// (the default 512 would hold everything until drain).
		Watch: watch.Config{Window: 16, Lag: 64},
	}, snap)
	cl, err := Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// 64 distinct inputs from the "safe" region the stale table approves
	// for acceleration (in[0] < 0.5 — far from the trained bad region).
	rng := mathx.NewRNG(13)
	inputs := make([][]float64, 64)
	for i := range inputs {
		inputs[i] = []float64{0.5 * rng.Float64(), rng.Float64(), rng.Float64()}
	}
	resps, err := cl.DecideBatch("synth", 0, inputs)
	if err != nil {
		t.Fatal(err)
	}
	approx := 0
	for _, r := range resps {
		if !r.Precise {
			approx++
		}
	}
	if approx == 0 {
		t.Fatal("drift test needs the stale table to accelerate some inputs")
	}

	// The drifted traffic keeps arriving: the second pass releases the
	// first from the reorder buffer in ID order. The first full window
	// violates, and the monitor folds the collected bad inputs in on
	// entry and again every 16 releases while the violation persists:
	// four fold-ins over the first pass's 64 releases.
	if _, err := cl.DecideBatch("synth", 500, inputs); err != nil {
		t.Fatal(err)
	}
	rechecks := o.Counter("serve.guarantee.rechecks")
	for i := 0; i < 500 && rechecks.Value() < 4; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	if got := rechecks.Value(); got < 4 {
		t.Fatalf("guarantee re-checks = %d, want >= 4", got)
	}
	violations := o.Counter("watch.guarantee.violations.synth")
	if violations.Value() == 0 {
		t.Fatal("injected drift did not register a guarantee violation")
	}
	if srv.Registry().Swaps() == 0 {
		t.Fatal("violation did not swap a repaired snapshot in")
	}
	if o.Counter("serve.snapshot.swaps").Value() == 0 {
		t.Fatal("snapshot swap not observable as a metrics counter")
	}

	// The repaired table must now route every observed-bad input the
	// monitor folded in through the precise path, at the current version.
	// A fold-in sets every table's bit for each input it folds, and later
	// fold-ins never clear bits, so any input a repaired snapshot routes
	// precise (a superset of its folded inputs) must stay precise.
	// The monitor folds only while its window violates the guarantee, so
	// inputs whose failures it released after its last fold-in of the
	// episode (the window already certified with them accelerated) may
	// stay accelerated. What the repair must restore is the guarantee:
	// every accelerated input is bad under the drift, so the precise
	// routings are this pass's successes, and they must certify it.
	resps, err = cl.DecideBatch("synth", 1000, inputs)
	if err != nil {
		t.Fatal(err)
	}
	cur := srv.Registry().Get("synth")
	precise := 0
	foldMu.Lock()
	if len(folded) == 0 {
		t.Fatal("OnFoldIn never saw a repaired snapshot")
	}
	for i, r := range resps {
		for _, snap := range folded {
			if !r.Precise && snap.Table.ConcurrentView().Classify(inputs[i]) {
				t.Fatalf("input %d still accelerated after the v%d table update", i, snap.Version)
			}
		}
		if r.Precise {
			precise++
		}
		if r.Version != cur.Version {
			t.Fatalf("input %d decided by version %d, current is %d", i, r.Version, cur.Version)
		}
	}
	foldMu.Unlock()
	if cur.Version < 2 {
		t.Fatalf("current snapshot version %d, want >= 2 after swap", cur.Version)
	}
	if !cur.G.Holds(precise, len(inputs)) {
		t.Fatalf("repaired table routes %d of %d drifted inputs precise: the guarantee does not hold", precise, len(inputs))
	}

	violationsBefore := violations.Value()
	if _, err := cl.DecideBatch("synth", 2000, inputs); err != nil {
		t.Fatal(err)
	}
	// Drain: every observation still in the monitor's reorder buffer is
	// released and re-checked before Shutdown returns.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	// The violation counter only moves on entry into violated, so the
	// monitor must also have left the episode: a repaired table that
	// kept violating would hold it in violated (or exhaust the fold-in
	// bound) without a new entry.
	if got := violations.Value(); got != violationsBefore {
		t.Fatalf("repaired snapshot still violating: %d -> %d", violationsBefore, got)
	}
	if st := watch.State(o.Gauge("watch.guarantee.state.synth").Value()); st != watch.Holding {
		t.Fatalf("monitor ended %s after the repair, want holding", st)
	}
	if n := o.Counter("watch.recovery.exceeded.synth").Value(); n != 0 {
		t.Fatalf("repair exceeded the fold-in bound %d times", n)
	}
}

func TestFreezeNeverSwaps(t *testing.T) {
	snap := syntheticSnapshot(t, "synth", func() ErrorProbe {
		return func([]float64) float64 { return 1.0 }
	})
	o, err := obs.New(obs.Options{Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	srv, addr := startServer(t, Config{
		SampleRate: 1, SampleSeed: 3, Freeze: true, Obs: o,
		Watch: watch.Config{Window: 8, Lag: 4},
	}, snap)
	cl, err := Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	rng := mathx.NewRNG(13)
	inputs := make([][]float64, 32)
	for i := range inputs {
		inputs[i] = []float64{0.5 * rng.Float64(), rng.Float64(), rng.Float64()}
	}
	if _, err := cl.DecideBatch("synth", 0, inputs); err != nil {
		t.Fatal(err)
	}
	violations := o.Counter("watch.guarantee.violations.synth")
	for i := 0; i < 500 && violations.Value() == 0; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	if violations.Value() == 0 {
		t.Fatal("freeze must still measure violations")
	}
	if srv.Registry().Swaps() != 0 {
		t.Fatal("freeze mode must never install snapshots")
	}
}

func TestShutdownDrains(t *testing.T) {
	snap := syntheticSnapshot(t, "synth", nil)
	reg := NewRegistry(snap)
	s, err := NewServer(reg, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ln) }()

	cl, err := Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Decide("synth", 1, []float64{0.1, 0.2, 0.3}); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve after drain: %v", err)
	}
	// A drained server refuses new listeners.
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Serve(ln2); err == nil {
		t.Fatal("Serve on a shut-down server must fail")
	}
	// Shutdown is idempotent.
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
}

func TestShutdownUnderLoad(t *testing.T) {
	// Drain while clients are mid-pipeline: every request must get either
	// a decision or a clean connection error — never a hang.
	snap := syntheticSnapshot(t, "synth", nil)
	reg := NewRegistry(snap)
	s, err := NewServer(reg, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln) //nolint:errcheck // exits nil on drain

	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := Dial("tcp", ln.Addr().String())
			if err != nil {
				return
			}
			defer cl.Close()
			rng := mathx.NewRNG(uint64(c))
			for b := 0; b < 50; b++ {
				inputs := make([][]float64, 8)
				for i := range inputs {
					inputs[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
				}
				if _, err := cl.DecideBatch("synth", uint32(b*8), inputs); err != nil {
					return // drain cut the connection — acceptable
				}
			}
		}(c)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain under load: %v", err)
	}
	wg.Wait() // must not hang: every reader saw a response or a closed conn
}

// TestServedDecisionsMatchOfflineReplay is the end-to-end determinism
// acceptance check: a real compiled deployment, exported and re-loaded
// through the snapshot path, served over TCP at both client shapes
// with sporadic sampling on (frozen), must produce decisions
// byte-identical to the offline trace replay.
func TestServedDecisionsMatchOfflineReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a full deployment")
	}
	b, err := axbench.New("fft")
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := core.NewContext(b, core.TestOptions())
	if err != nil {
		t.Fatal(err)
	}
	dep, err := ctx.Deploy(testGuarantee())
	if err != nil {
		t.Fatal(err)
	}
	blob, err := dep.Export()
	if err != nil {
		t.Fatal(err)
	}

	// Offline reference: the table design's decision vector on the first
	// validation dataset, via the captured trace.
	ds := ctx.Validate[0]
	offline := make([]bool, ds.Tr.N)
	ds.Tr.Replay(b, ds.In, offline, dep.Decisions(core.DesignTable, 0, ds.Tr))
	ref := NewDecisionSet("fft")
	ref.AppendBools(offline)
	inputs := ds.Tr.CollectInputs()

	for _, shape := range clientShapes {
		snap, err := LoadSnapshot(blob)
		if err != nil {
			t.Fatal(err)
		}
		_, addr := startServer(t, Config{
			SampleRate: 0.2, SampleSeed: 17, Freeze: true,
		}, snap)
		resps := make([]DecideResponse, len(inputs))
		if err := dialShape(t, addr, shape).decide("fft", 0, inputs, resps); err != nil {
			t.Fatal(err)
		}
		served := NewDecisionSet("fft")
		for _, r := range resps {
			served.Append(r.Precise)
		}
		if !bytes.Equal(served.Bytes(), ref.Bytes()) {
			t.Fatalf("shape %v: served decisions differ from offline replay (%d invocations)",
				shape, len(inputs))
		}
		if served.Digest() != ref.Digest() {
			t.Fatalf("shape %v: digest mismatch: %s != %s", shape, served.Digest(), ref.Digest())
		}
	}
}

func BenchmarkServeDecide(b *testing.B) {
	snap := syntheticSnapshot(b, "synth", nil)
	_, addr := startServer(b, Config{}, snap)
	cl, err := Dial("tcp", addr)
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	rng := mathx.NewRNG(1)
	inputs := make([][]float64, 64)
	for i := range inputs {
		inputs[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	b.ResetTimer()
	for n := 0; n < b.N; n += len(inputs) {
		if _, err := cl.DecideBatch("synth", uint32(n), inputs); err != nil {
			b.Fatal(err)
		}
	}
}
