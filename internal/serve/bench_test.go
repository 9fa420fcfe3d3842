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

// BenchmarkDecideSteady is the hermetic full decide path — zero-copy
// parse, shard-map intern, classify, encode — exactly as the connection
// reader runs it, minus the socket.
func BenchmarkDecideSteady(b *testing.B) {
	f := newDecideFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.drv.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClientRoundTrip measures one pipelined decision over loopback
// TCP: client encode, the server's read → decide → write path, client
// parse.
func BenchmarkClientRoundTrip(b *testing.B) {
	_, addr := startServer(b, Config{Freeze: true}, syntheticSnapshotB(b, "bench"))
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

// BenchmarkClientBatch32 pushes a 32-request pipeline through the
// connection reader, which answers it with one write.
func BenchmarkClientBatch32(b *testing.B) {
	_, addr := startServer(b, Config{Freeze: true}, syntheticSnapshotB(b, "bench"))
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
