package serve

import (
	"testing"

	"mithra/internal/parallel"
	"mithra/internal/watch"
)

// Allocation-regression tests (DESIGN.md §12): the steady-state decide
// path — frame parse → classify → encode — must allocate nothing, and
// the client round trip must stay within its documented budget. These
// are hard gates, not benchmarks: a regression fails `go test ./...`.
// They skip under the race detector, whose instrumentation allocates on
// its own behalf.

// decideFixture is a hermetic server fixture the allocation tests and
// micro-benchmarks drive without a network: a live server's steady
// decide driver and the decide-request frame payload it replays.
type decideFixture struct {
	drv     *SteadyDriver
	payload []byte // frame payload (header stripped) of one decide request
}

func newDecideFixture(t testing.TB) *decideFixture {
	t.Helper()
	snap := syntheticSnapshot(t, "bench", nil)
	s, _ := startServer(t, Config{Freeze: true}, snap)
	drv, err := s.SteadyDriver("bench", []float64{0.2, 0.5, 0.8})
	if err != nil {
		t.Fatal(err)
	}
	return &decideFixture{drv: drv, payload: drv.frame}
}

func skipUnderRace(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under the race detector")
	}
}

func TestDecidePathZeroAlloc(t *testing.T) {
	skipUnderRace(t)
	f := newDecideFixture(t)
	if err := f.drv.Step(); err != nil { // size the reader's buffers
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(200, func() {
		if err := f.drv.Step(); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("steady-state decide path allocates %v per run, want 0", avg)
	}
}

func TestWireParseZeroAlloc(t *testing.T) {
	skipUnderRace(t)
	f := newDecideFixture(t)
	var req DecideRequest
	if _, err := ParseDecideRequestInto(f.payload, &req); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(200, func() {
		if _, err := ParseDecideRequestInto(f.payload, &req); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("ParseDecideRequestInto allocates %v per run, want 0", avg)
	}
}

func TestWireEncodeZeroAlloc(t *testing.T) {
	skipUnderRace(t)
	buf := make([]byte, 0, 64)
	resp := &DecideResponse{ID: 9, Precise: true, Version: 3}
	if avg := testing.AllocsPerRun(200, func() {
		out, err := AppendFrame(buf[:0], resp)
		if err != nil {
			t.Fatal(err)
		}
		buf = out[:0]
	}); avg != 0 {
		t.Fatalf("AppendFrame(DecideResponse) allocates %v per run, want 0", avg)
	}
}

func TestParseDecideResponseZeroAlloc(t *testing.T) {
	skipUnderRace(t)
	frame, err := AppendFrame(nil, &DecideResponse{ID: 9, Precise: true, Version: 3})
	if err != nil {
		t.Fatal(err)
	}
	var resp DecideResponse
	if avg := testing.AllocsPerRun(200, func() {
		if err := ParseDecideResponseInto(frame[4:], &resp); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("ParseDecideResponseInto allocates %v per run, want 0", avg)
	}
}

func TestRegistryGetZeroAlloc(t *testing.T) {
	skipUnderRace(t)
	reg := NewRegistry(syntheticSnapshot(t, "bench", nil))
	if avg := testing.AllocsPerRun(200, func() {
		if reg.Get("bench") == nil {
			t.Fatal("lost snapshot")
		}
	}); avg != 0 {
		t.Fatalf("Registry.Get allocates %v per run, want 0", avg)
	}
}

func TestSampleHitZeroAlloc(t *testing.T) {
	skipUnderRace(t)
	var hits int
	if avg := testing.AllocsPerRun(200, func() {
		if sampleHit(12345, 678, 0.25) {
			hits++
		}
	}); avg != 0 {
		t.Fatalf("sampleHit allocates %v per run, want 0 (the RNG chain must stay inlined)", avg)
	}
}

func TestClassifyZeroAlloc(t *testing.T) {
	skipUnderRace(t)
	snap := syntheticSnapshot(t, "bench", nil)
	view := snap.view()
	in := []float64{0.2, 0.5, 0.8}
	view.Classify(in) // warm scratch
	if avg := testing.AllocsPerRun(200, func() {
		view.Classify(in)
	}); avg != 0 {
		t.Fatalf("table Classify allocates %v per run, want 0", avg)
	}
}

// TestWatchedRoundTripZeroAlloc pins the mithrawatch hot-path contract:
// arming the guarantee monitor must not add a single allocation to the
// trace-free steady decide round trip. The monitor consumes only the
// sampled-observation path (which already allocates by design), so an
// unsampled request through a sampling, monitor-armed server stays at
// zero.
func TestWatchedRoundTripZeroAlloc(t *testing.T) {
	skipUnderRace(t)
	snap := syntheticSnapshot(t, "bench", func() ErrorProbe {
		return func([]float64) float64 { return 0 }
	})
	const (
		rate = 0.05
		seed = 42
		id   = 1000
	)
	if sampleHit(parallel.Seed(seed, "bench"), id, rate) {
		t.Fatalf("request ID %d is sampled at seed %d; the test needs an unsampled ID", id, seed)
	}
	srv, addr := startServer(t, Config{
		SampleRate: rate,
		SampleSeed: seed,
		Freeze:     true,
		Watch:      watch.Config{Window: 16},
	}, snap)
	if srv.shards["bench"].mon == nil {
		t.Fatal("a sampling server must arm the guarantee monitor")
	}
	c, err := Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	inputs := [][]float64{{0.2, 0.5, 0.8}}
	out := make([]DecideResponse, 1)
	for i := 0; i < 50; i++ { // warm pools, bufio, TCP autotuning
		if _, err := c.DecideBatchInto("bench", id, inputs, out); err != nil {
			t.Fatal(err)
		}
	}
	if avg := testing.AllocsPerRun(100, func() {
		if _, err := c.DecideBatchInto("bench", id, inputs, out); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("watch-armed round trip allocates %v per run, want 0", avg)
	}
}

// TestClientRoundTripAllocs pins one DecideBatchInto round trip — client
// encode, loopback TCP, the server's whole reader path, client
// parse — to the documented budget. Allocation counting is process-wide,
// so this covers the server goroutines too: a leak on either side of the
// wire fails here.
func TestClientRoundTripAllocs(t *testing.T) {
	skipUnderRace(t)
	snap := syntheticSnapshot(t, "bench", nil)
	_, addr := startServer(t, Config{Freeze: true}, snap)
	c, err := Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	inputs := [][]float64{{0.2, 0.5, 0.8}}
	out := make([]DecideResponse, 1)
	for i := 0; i < 50; i++ { // warm pools, bufio, TCP autotuning
		if _, err := c.DecideBatchInto("bench", uint32(i), inputs, out); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(100, func() {
		if _, err := c.DecideBatchInto("bench", 1000, inputs, out); err != nil {
			t.Fatal(err)
		}
	})
	if avg > RoundTripAllocs {
		t.Fatalf("client round trip allocates %v per run, budget %d (see Client.RoundTripAllocs)", avg, RoundTripAllocs)
	}
}
