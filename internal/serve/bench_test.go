package serve

import "testing"

// Micro-benchmarks for every stage of the serve decide path (DESIGN.md
// §12). `mithra bench` drives the same stages from the binary to produce
// the committed BENCH_serve.json; these exist so `go test -bench` can
// interrogate a single stage with full tooling (-benchmem, profiles).

var (
	sinkBuf  []byte
	sinkBool bool
)

func BenchmarkWireEncodeResponse(b *testing.B) {
	resp := &DecideResponse{ID: 9, Precise: true, Version: 3}
	buf := make([]byte, 0, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := AppendFrame(buf[:0], resp)
		if err != nil {
			b.Fatal(err)
		}
		sinkBuf = out
	}
}

func BenchmarkWireParseRequest(b *testing.B) {
	f := newDecideFixture(b)
	var req DecideRequest
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseDecideRequestInto(f.payload, &req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRegistryLookup(b *testing.B) {
	reg := NewRegistry(syntheticSnapshotB(b, "bench"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if reg.Get("bench") == nil {
			b.Fatal("lost snapshot")
		}
	}
}

func BenchmarkTableClassify(b *testing.B) {
	view := syntheticSnapshotB(b, "bench").view()
	in := []float64{0.2, 0.5, 0.8}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkBool = view.Classify(in)
	}
}

// BenchmarkDecideSteady is the hermetic full decide path — pooled
// request, zero-copy parse, shard-map intern, classify, encode — exactly
// as the reader and a worker compose it, minus the socket.
func BenchmarkDecideSteady(b *testing.B) {
	f := newDecideFixture(b)
	var (
		buf   = make([]byte, 0, 64)
		dresp DecideResponse
		eresp ErrorResponse
	)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = f.decideOnce(buf, &dresp, &eresp)
	}
}

// BenchmarkClientRoundTrip measures one pipelined decision over loopback
// TCP: client encode, the server's reader → shard queue → worker →
// writev path, client parse.
func BenchmarkClientRoundTrip(b *testing.B) {
	_, addr := startServer(b, Config{Workers: 1, Freeze: true}, syntheticSnapshotB(b, "bench"))
	c, err := Dial("tcp", addr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	inputs := [][]float64{{0.2, 0.5, 0.8}}
	out := make([]DecideResponse, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.DecideBatchInto("bench", uint32(i), inputs, out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClientBatch32 pushes a 32-request pipeline through the shard
// batch loop (batched classify, per-connection writev coalescing).
func BenchmarkClientBatch32(b *testing.B) {
	_, addr := startServer(b, Config{Workers: 1, Freeze: true, MaxBatch: 32}, syntheticSnapshotB(b, "bench"))
	c, err := Dial("tcp", addr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	inputs := make([][]float64, 32)
	for i := range inputs {
		inputs[i] = []float64{0.2, 0.5, float64(i) / 32}
	}
	out := make([]DecideResponse, len(inputs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.DecideBatchInto("bench", uint32(i), inputs, out); err != nil {
			b.Fatal(err)
		}
	}
}

// syntheticSnapshotB adapts the test-suite snapshot helper to testing.B.
func syntheticSnapshotB(b *testing.B, bench string) *Snapshot {
	return syntheticSnapshot(b, bench, nil)
}
