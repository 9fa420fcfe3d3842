package serve

import (
	"bufio"
	"context"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mithra/internal/classifier"
	"mithra/internal/mathx"
)

// The connection reader decides every request it parses and answers a
// pipelined batch with one write. These tests pin that shape
// deterministically, over net.Pipe (no kernel buffering, so every server
// write is one observable Write call) and over an in-memory connection.

// wideTable trains a dim-wide table on seeded uniform inputs (in[0] > 0.9
// is bad): the jpeg-width geometry of the table_classify_64d bench row.
func wideTable(t testing.TB, dim int) *classifier.Table {
	t.Helper()
	rng := mathx.NewRNG(99)
	samples := make([]classifier.Sample, 2000)
	for i := range samples {
		samples[i] = classifier.Sample{In: wideInput(rng, dim)}
		samples[i].Bad = samples[i].In[0] > 0.9
	}
	tab, err := classifier.TrainTable(classifier.DefaultTableConfig(), samples)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func wideInput(rng *mathx.RNG, dim int) []float64 {
	in := make([]float64, dim)
	for i := range in {
		in[i] = rng.Float64()
	}
	return in
}

// wideBatch encodes n pipelined dim-wide decide requests (IDs 0..n-1) as
// one byte stream.
func wideBatch(t testing.TB, n, dim int) ([][]float64, []byte) {
	t.Helper()
	rng := mathx.NewRNG(3)
	inputs := make([][]float64, n)
	var frames []byte
	for i := range inputs {
		inputs[i] = wideInput(rng, dim)
		var err error
		if frames, err = AppendFrame(frames, &DecideRequest{ID: uint32(i), Bench: "wide", In: inputs[i]}); err != nil {
			t.Fatal(err)
		}
	}
	return inputs, frames
}

// countingConn counts the Write calls the server makes on a connection.
type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// pipeListener hands the server one pre-made connection, then blocks in
// Accept until closed.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener(c net.Conn) *pipeListener {
	l := &pipeListener{conns: make(chan net.Conn, 1), done: make(chan struct{})}
	l.conns <- c
	return l
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return &net.TCPAddr{} }

// servePipe serves snap over one net.Pipe and returns the client end and
// the server end's write counter.
func servePipe(t *testing.T, snap *Snapshot) (net.Conn, *countingConn) {
	t.Helper()
	s, err := NewServer(NewRegistry(snap), Config{Freeze: true})
	if err != nil {
		t.Fatal(err)
	}
	client, server := net.Pipe()
	counted := &countingConn{Conn: server}
	go s.Serve(newPipeListener(counted)) //nolint:errcheck // exits nil on drain
	t.Cleanup(func() {
		client.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx) //nolint:errcheck // best-effort teardown
	})
	// A broken reader fails the test instead of hanging it.
	client.SetDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck // pipes support deadlines
	return client, counted
}

// readDecisions reads the decide responses to requests from..to-1, which
// one connection's reader answers in request order, and checks each
// against the classifier.
func readDecisions(t *testing.T, br *bufio.Reader, view classifier.Classifier, inputs [][]float64, from, to int) {
	t.Helper()
	for id := from; id < to; id++ {
		msg, err := ReadMessage(br)
		if err != nil {
			t.Fatal(err)
		}
		r, ok := msg.(*DecideResponse)
		if !ok || int(r.ID) != id {
			t.Fatalf("want the decision of request %d, got %#v", id, msg)
		}
		if want := view.Classify(inputs[r.ID]); r.Precise != want {
			t.Fatalf("decision %d: served %v, classifier %v", r.ID, r.Precise, want)
		}
	}
}

// TestPipelinedBatchOneWrite: 32 pipelined 64-element requests written
// in one client Write are answered by exactly one server Write carrying
// all 32 response frames.
func TestPipelinedBatchOneWrite(t *testing.T) {
	snap, err := NewSnapshot("wide", wideTable(t, 64), 0.1, testGuarantee(), nil)
	if err != nil {
		t.Fatal(err)
	}
	client, counted := servePipe(t, snap)
	inputs, frames := wideBatch(t, batchCap, 64)
	werr := make(chan error, 1)
	go func() {
		_, err := client.Write(frames)
		werr <- err
	}()
	readDecisions(t, bufio.NewReader(client), snap.Table.ConcurrentView(), inputs, 0, len(inputs))
	if err := <-werr; err != nil {
		t.Fatal(err)
	}
	if n := counted.writes.Load(); n != 1 {
		t.Fatalf("a %d-request pipelined batch took %d server writes, want 1", len(inputs), n)
	}
}

// TestSplitFrameAnswered: a client write that ends mid-frame leaves the
// reader about to block on the rest. It must first answer the complete
// frame it already decided; only then does the client send the rest of
// the split frame, which is answered in turn.
func TestSplitFrameAnswered(t *testing.T) {
	snap, err := NewSnapshot("wide", wideTable(t, 64), 0.1, testGuarantee(), nil)
	if err != nil {
		t.Fatal(err)
	}
	client, counted := servePipe(t, snap)
	inputs, frames := wideBatch(t, 2, 64)
	cut := len(frames) * 3 / 4 // inside the second frame
	view := snap.Table.ConcurrentView()
	br := bufio.NewReader(client)
	if _, err := client.Write(frames[:cut]); err != nil {
		t.Fatal(err)
	}
	readDecisions(t, br, view, inputs, 0, 1)
	if _, err := client.Write(frames[cut:]); err != nil {
		t.Fatal(err)
	}
	readDecisions(t, br, view, inputs, 1, 2)
	if n := counted.writes.Load(); n != 2 {
		t.Fatalf("two requests split across writes took %d server writes, want 2", n)
	}
}

// loopConn is an in-memory connection whose every Read returns the same
// request stream and whose Writes are counted and dropped.
type loopConn struct {
	net.Conn // unused; only Read and Write are called
	stream   []byte
	off      int
	writes   int
}

func (c *loopConn) Read(p []byte) (int, error) {
	if c.off == len(c.stream) {
		c.off = 0
	}
	n := copy(p, c.stream[c.off:])
	c.off += n
	return n, nil
}

func (c *loopConn) Write(p []byte) (int, error) {
	c.writes++
	return len(p), nil
}

// TestReaderBatchZeroAlloc pins the reader's decide-and-flush loop at the
// pipelined jpeg shape — 32 requests of 64 elements read at once,
// decided, and answered in one write — to zero allocations per batch.
func TestReaderBatchZeroAlloc(t *testing.T) {
	skipUnderRace(t)
	snap, err := NewSnapshot("wide", wideTable(t, 64), 0.1, testGuarantee(), nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(NewRegistry(snap), Config{Freeze: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background()) //nolint:errcheck // nothing to drain
	_, stream := wideBatch(t, batchCap, 64)
	lc := &loopConn{stream: stream}
	r := s.newConnReader(&conn{c: lc})
	batch := func() {
		for i := 0; i < batchCap; i++ {
			if !r.next() {
				t.Fatal("reader stopped")
			}
		}
	}
	batch() // size the payload, request and response buffers
	if avg := testing.AllocsPerRun(50, batch); avg != 0 {
		t.Fatalf("reader batch loop allocates %v per batch, want 0", avg)
	}
	// One sizing batch, AllocsPerRun's warm-up run, and 50 measured runs.
	if r.owed != 0 || lc.writes != 52 {
		t.Fatalf("after 52 batches: %d responses owed, %d writes; want 0 owed, 52 writes", r.owed, lc.writes)
	}
}
