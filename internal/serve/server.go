// Package serve is mithrad's engine: a long-running decision service
// that answers per-invocation accept/reject queries against immutable
// model snapshots (pre-trained classifier + tuned threshold), decided by
// each connection's reader and answered one write per pipelined batch,
// with the paper's online update path — sporadic error sampling feeding
// table-classifier updates and a Clopper-Pearson guarantee re-check that
// swaps refreshed snapshots in atomically.
//
// The package honors the repository determinism contract: a served
// decision is a pure function of (snapshot, input), so replaying a
// captured trace through a frozen-snapshot server yields decisions
// byte-identical to an offline trace.Replay at any client shape, and the
// sporadic sampler derives its choices from the sampling seed and the
// request's invocation ID, never from the wall clock or scheduling
// order. No code in this package reads the wall clock (it is inside the
// nondeterminism lint scope); latency measurement belongs to clients.
package serve

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mithra/internal/classifier"
	"mithra/internal/fault"
	"mithra/internal/mathx"
	"mithra/internal/obs"
	"mithra/internal/parallel"
	"mithra/internal/watch"
)

// Config sizes the decision server.
type Config struct {
	// SampleRate is the sporadic error-sampling rate (paper §IV-C1):
	// this fraction of served invocations is routed through the precise
	// path to measure the true accelerator error. 0 disables the online
	// update machinery.
	SampleRate float64
	// SampleSeed keys the deterministic sampler: whether invocation ID i
	// of benchmark b is sampled depends only on (SampleSeed, b, i).
	SampleSeed uint64
	// Freeze pins the serving snapshots: the guarantee monitor still
	// measures, re-checks, and boosts sampling, but it has no fold-in
	// hook, so updated snapshots are never installed. Replay/benchmark
	// runs use this to keep decisions byte-identical to the offline path.
	Freeze bool
	// Obs receives serving telemetry (counters and histograms only — all
	// commutative, so the hot path may update them from any reader).
	Obs *obs.Obs
	// Breaker configures the per-benchmark circuit breaker (zero value:
	// defaults).
	Breaker BreakerConfig
	// Faults is the active fault-injection plan (nil: no injection).
	// Injected faults exercise the degradation paths: connection faults,
	// decide panics, snapshot-install failures.
	Faults *fault.Set
	// Watch sizes the per-shard guarantee monitor (internal/watch), the
	// one guarantee loop: a sliding-window Clopper-Pearson re-check with
	// journaled state transitions, divergence gauges, and recheck-mode
	// escalation (sampling boost + table fold-in). Every shard runs one,
	// with recheck armed, exactly when SampleRate > 0: the Enabled and
	// Recheck.Enabled fields are ignored. An unset Recheck.BoostDelay is
	// scaled to the sample rate (boostDelay).
	Watch watch.Config
	// Cluster wires this node into a multi-node deployment (DESIGN.md
	// §15): request routing/forwarding, fold-in replication, and durable
	// decision records. Nil (the default) is the single-node engine; all
	// hook calls sit behind nil checks, so the zero-allocation decide
	// path is unchanged without a cluster.
	Cluster ClusterHooks
	// OnFoldIn fires after the monitor's fold-in installs a repaired
	// snapshot, with that (immutable) snapshot. The cluster node uses it
	// to push the repaired table to peers. It runs on the shard's updater
	// goroutine; implementations must not block on the network (hand off
	// to a sender instead).
	OnFoldIn func(snap *Snapshot)
}

// withDefaults fills unset knobs.
func (c Config) withDefaults() Config {
	// Sampling is what feeds the guarantee monitor, so it alone decides
	// whether shards run one; the Enabled fields a caller sets are
	// ignored.
	c.Watch.Enabled = c.SampleRate > 0
	c.Watch.Recheck.Enabled = c.Watch.Enabled
	if c.Watch.Enabled && c.Watch.Recheck.BoostDelay <= 0 {
		c.Watch.Recheck.BoostDelay = boostDelay(c.Watch.Lag, c.SampleRate)
	}
	return c
}

// updaterQueue is the capacity of each shard's observation channel
// (readers → updater): room for the updater to fall behind a burst of
// sampled decisions without blocking the readers that feed it.
// boostDelay counts every slot.
const updaterQueue = 256

// boostDelay is the default distance, in request IDs, between the
// release that arms a forced-sampling boost and the boost window's first
// ID. The window must open past every ID already decided when the
// monitor arms it, or whether a request is boosted would depend on
// decide timing. The sampled observations decided past the release
// frontier are the Lag still in the reorder buffer, at most updaterQueue
// in the updater's channel, and at most one per connection whose reader
// is blocked handing its observation over. The argument needs fewer
// connections on a shard than Lag (the Lag contract already asks that of
// the in-flight skew), so fewer than 2×Lag+updaterQueue sampled
// observations are past the frontier, spanning about
// (2×Lag+updaterQueue)/rate request IDs.
// The delay never drops below the monitor's own 8×Lag default, which
// full sampling keeps. It is derived from Lag rather than the client
// shape, so the boost windows, and with them the journaled notes, are
// the same however clients connect.
func boostDelay(lag int, rate float64) int {
	if lag <= 0 {
		lag = watch.DefaultLag
	}
	d := int(math.Ceil(float64(2*lag+updaterQueue) / rate))
	if d < 8*lag {
		d = 8 * lag
	}
	return d
}

// shard owns one benchmark's online updater and circuit breaker.
type shard struct {
	bench      string
	idx        int // position in Server.shardOrder; keys connReader.views
	inDim      int
	sampleSeed uint64 // parallel.Seed(cfg.SampleSeed, bench)
	up         *updater
	brk        *breaker
	// mon is the shard's guarantee monitor (nil unless the shard
	// samples). Only the updater goroutine feeds it; other goroutines
	// may read its published state.
	mon *watch.Monitor
	// boostWin is the forced-sampling window armed by the monitor's
	// recheck escalation, packed (from<<32 | until) so the decide path
	// reads both bounds in one atomic load and a re-arm can never expose
	// a half-updated window (membership must be a pure function of the
	// request ID). 0 = disarmed.
	boostWin atomic.Uint64
	// Per-shard fault injectors, resolved once at construction:
	// fault.Set.Scoped builds a composite key string per call, which the
	// decide path must not pay per request. Nil when the site is unplanned.
	fPanic *fault.Injector
	fDrift *fault.Injector
	// Per-benchmark decision counters for the watch status surface,
	// resolved once (commutative: safe from any reader).
	cDecisions *obs.Counter
	cFallbacks *obs.Counter
}

// serverMetrics holds the hot-path metric handles, resolved once at
// NewServer: obs registry lookups take an RWMutex per call, which is
// cheap for reporting but not free per served decision. All handles are
// nil-safe (a server without Obs counts into no-ops).
type serverMetrics struct {
	connections      *obs.Counter
	errFrameTooLarge *obs.Counter
	errFrame         *obs.Counter
	errMalformed     *obs.Counter
	errUnknownBench  *obs.Counter
	errBadDim        *obs.Counter
	errEncode        *obs.Counter
	decFallback      *obs.Counter
	decPrecise       *obs.Counter
	decApprox        *obs.Counter
	sampled          *obs.Counter
	sampleMiss       *obs.Counter
	workerPanics     *obs.Counter
	batches          *obs.Counter
	batchSize        *obs.Histogram
	forwards         *obs.Counter
	errPeerDown      *obs.Counter
	errRecordFlush   *obs.Counter
}

func newServerMetrics(o *obs.Obs) serverMetrics {
	return serverMetrics{
		connections:      o.Counter("serve.connections"),
		errFrameTooLarge: o.Counter("serve.errors.frame_too_large"),
		errFrame:         o.Counter("serve.errors.frame"),
		errMalformed:     o.Counter("serve.errors.malformed"),
		errUnknownBench:  o.Counter("serve.errors.unknown_bench"),
		errBadDim:        o.Counter("serve.errors.bad_dim"),
		errEncode:        o.Counter("serve.errors.encode"),
		decFallback:      o.Counter("serve.decisions.fallback"),
		decPrecise:       o.Counter("serve.decisions.precise"),
		decApprox:        o.Counter("serve.decisions.approx"),
		sampled:          o.Counter("serve.sampled"),
		sampleMiss:       o.Counter("serve.sample.misclassified"),
		workerPanics:     o.Counter("serve.worker.panics"),
		batches:          o.Counter("serve.batches"),
		batchSize:        o.Histogram("serve.batch.size", []float64{1, 2, 4, 8, 16, 32, 64}),
		forwards:         o.Counter("serve.cluster.forwards"),
		errPeerDown:      o.Counter("serve.errors.peer_down"),
		errRecordFlush:   o.Counter("serve.errors.record_flush"),
	}
}

// Server is the decision service. Construct with NewServer, feed it
// listeners via Serve, stop it with Shutdown.
type Server struct {
	cfg Config
	reg *Registry
	o   *obs.Obs
	m   serverMetrics

	shards     map[string]*shard
	shardOrder []string // sorted; deterministic startup/teardown order

	quit      chan struct{}
	quitOnce  sync.Once
	drainOnce sync.Once
	drainDone chan struct{}

	lnMu sync.Mutex
	lns  []net.Listener

	connMu  sync.Mutex
	conns   map[*conn]struct{}
	connSeq uint64 // guarded by connMu; keys per-connection fault scopes

	readerWG  sync.WaitGroup
	updaterWG sync.WaitGroup
}

// NewServer builds a server over the registry's current benchmarks. Each
// registered benchmark gets its own shard (updater + breaker);
// snapshots installed later for *new* benchmarks are not served.
func NewServer(reg *Registry, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	benches := reg.Benches()
	if len(benches) == 0 {
		return nil, fmt.Errorf("serve: registry holds no snapshots")
	}
	s := &Server{
		cfg:        cfg,
		reg:        reg,
		o:          cfg.Obs,
		m:          newServerMetrics(cfg.Obs),
		shards:     make(map[string]*shard, len(benches)),
		shardOrder: benches,
		quit:       make(chan struct{}),
		drainDone:  make(chan struct{}),
		conns:      make(map[*conn]struct{}),
	}
	for i, b := range benches {
		snap := reg.Get(b)
		sh := &shard{
			bench:      b,
			idx:        i,
			inDim:      snap.Table.InputDim(),
			sampleSeed: parallel.Seed(cfg.SampleSeed, b),
			brk:        newBreaker(b, cfg.Breaker, cfg.Obs),
			fPanic:     cfg.Faults.Scoped(fault.SiteWorkerPanic, b),
			fDrift:     cfg.Faults.Scoped(fault.SiteProbeDrift, b),
			cDecisions: cfg.Obs.Counter("serve.bench.decisions." + b),
			cFallbacks: cfg.Obs.Counter("serve.bench.fallbacks." + b),
		}
		if cfg.Watch.Enabled {
			sh.mon = watch.NewMonitor(b, snap.G, snap.Ref, cfg.Watch, cfg.Obs)
			// Breaker transitions carry the guarantee state for context:
			// an opening breaker reads differently under a violated
			// guarantee than under a holding one.
			sh.brk.guarantee = sh.mon.StateName
		}
		sh.up = newUpdater(s, sh)
		if sh.mon != nil {
			// Recheck escalation: the monitor forces sampling over a
			// deterministic future ID window and drives table fold-ins at
			// release positions. Freeze mode keeps the boost (it only adds
			// measurements) but pins snapshots, so no fold hook.
			esc := watch.Escalation{Boost: sh.armBoost}
			if !cfg.Freeze {
				esc.FoldIn = sh.up.foldIn
			}
			sh.mon.Arm(esc)
		}
		s.shards[b] = sh
		s.updaterWG.Add(1)
		go sh.up.run(&s.updaterWG)
	}
	return s, nil
}

// Registry exposes the server's snapshot registry (the online updater
// installs into it; tests and the HTTP handler read it).
func (s *Server) Registry() *Registry { return s.reg }

// Serve accepts connections on ln until Shutdown (or a listener error).
// It may be called concurrently for several listeners (e.g. a TCP and a
// Unix socket).
func (s *Server) Serve(ln net.Listener) error {
	s.lnMu.Lock()
	select {
	case <-s.quit:
		s.lnMu.Unlock()
		ln.Close()
		return fmt.Errorf("serve: server is shut down")
	default:
	}
	s.lns = append(s.lns, ln)
	s.lnMu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			select {
			case <-s.quit:
				return nil // drain closed the listener
			default:
				return fmt.Errorf("serve: accept: %w", err)
			}
		}
		s.connMu.Lock()
		s.connSeq++
		key := fmt.Sprintf("srv-%d", s.connSeq)
		s.connMu.Unlock()
		c := &conn{c: s.cfg.Faults.WrapConn(nc, key)}
		s.connMu.Lock()
		select {
		case <-s.quit:
			// Shutdown has already set its read deadlines and may be
			// waiting on readerWG: a connection accepted now would escape
			// both, so it is refused.
			s.connMu.Unlock()
			c.close()
			return nil
		default:
		}
		s.conns[c] = struct{}{}
		s.readerWG.Add(1)
		s.connMu.Unlock()
		s.m.connections.Inc()
		go s.reader(c)
	}
}

// batchCap bounds the responses a connection reader owes before it
// writes them: a pipelined window longer than this is answered in
// several writes.
const batchCap = 32

// readBufSize sizes each connection's read buffer so that one read holds
// a whole pipelined batch (32 frames of 64-element inputs are about
// 17 KiB). With bufio's 4 KiB default only about 7 such frames are
// buffered at a time, and the reader, which writes whenever no complete
// frame is buffered, would answer a 32-request batch in five writes.
const readBufSize = 64 << 10

// reader serves one connection: it parses each request, decides it in
// place, and answers a pipelined batch with one write. Responses are
// owed until no complete frame is buffered (the next read could block)
// or batchCap are pending; then the reader makes the batch's decision
// records durable and writes every owed frame at once. Parallelism comes
// from connections, and backpressure from not reading: a reader blocked
// writing to a slow client reads none of its further requests.
func (s *Server) reader(c *conn) {
	defer s.readerWG.Done()
	r := s.newConnReader(c)
	for r.next() {
	}
	r.flush()
	putBuf(r.payload)
	s.dropConn(c)
}

// connReader is one connection's decide loop state. Everything the
// steady-state loop touches lives here, so it allocates nothing: the
// payload buffer is reused for every frame, decide requests decode into
// one request struct (the benchmark name is interned through the shard
// map, and a map lookup keyed by a []byte→string conversion does not
// allocate), and responses are framed into one buffer.
type connReader struct {
	s       *Server
	c       *conn
	br      *bufio.Reader
	payload []byte // pooled; ReadFrameInto grows it through the pool
	req     DecideRequest
	// views holds a private classifier view and error probe per shard
	// (indexed by shard.idx), rebuilt when the shard's snapshot version
	// changes.
	views []shardView
	out   []byte // framed responses owed to the client
	owed  int    // frames in out
	dresp DecideResponse
	eresp ErrorResponse
	// send is c.send, bound once so that forwarding a request allocates
	// no closure; the peer link calls it from its own goroutine when the
	// response arrives.
	send func(Message)
}

// shardView is a connection's decide state for one shard's snapshot.
type shardView struct {
	view    classifier.Classifier
	probe   ErrorProbe
	version uint32
}

func (s *Server) newConnReader(c *conn) *connReader {
	return &connReader{
		s:     s,
		c:     c,
		br:    bufio.NewReaderSize(c.c, readBufSize),
		views: make([]shardView, len(s.shardOrder)),
		send:  c.send,
	}
}

// next reads and answers one frame, then flushes if the batch is due. It
// reports false once the connection is done (or the server drains).
//
//mithra:hotpath
func (r *connReader) next() bool {
	s := r.s
	select {
	case <-s.quit:
		return false
	default:
	}
	var err error
	r.payload, err = ReadFrameInto(r.br, r.payload)
	if err != nil {
		return r.readFailed(err)
	}
	r.handle()
	r.flushIfDue()
	return true
}

// readFailed handles a failed frame read and reports whether the
// connection survives it. An oversized frame leaves its payload unread:
// the reader discards exactly the advertised bytes, answers in-band and
// keeps the connection. Anything else ends it.
func (r *connReader) readFailed(err error) bool {
	s := r.s
	var ftl *FrameTooLargeError
	if errors.As(err, &ftl) {
		s.m.errFrameTooLarge.Inc()
		if _, derr := io.CopyN(io.Discard, r.br, int64(ftl.N)); derr == nil {
			r.reply(&ErrorResponse{Code: CodeFrameTooLarge, Msg: ftl.Error()})
			r.flushIfDue()
			return true
		}
	}
	if !errors.Is(err, io.EOF) {
		select {
		case <-s.quit: // drain deadline fired; not a client fault
		default:
			s.m.errFrame.Inc()
		}
	}
	return false
}

// handle answers the frame in r.payload, appending any response to the
// batch. Decide requests and forwarded ones (a single hop from a peer
// that did not own them) take the fast path; everything else goes
// through the generic decoder.
//
//mithra:hotpath
func (r *connReader) handle() {
	s, payload := r.s, r.payload
	if len(payload) >= 3 && (payload[2] == msgDecideReq || payload[2] == msgForward) {
		req := &r.req
		bench, err := parseRequestInto(payload, req)
		if err != nil {
			r.malformed(err)
			return
		}
		sh := s.shards[string(bench)]
		if sh == nil {
			r.unknownBench(req.ID, bench)
			return
		}
		req.Bench = sh.bench // interned: the shard's canonical name
		// A forwarded request is always served locally — never re-routed —
		// so a ring disagreement cannot loop a frame between nodes.
		if s.cfg.Cluster != nil && !req.Forwarded {
			if peer := s.cfg.Cluster.Route(sh.bench, req.ID, req.In); peer != "" {
				r.forward(peer, req)
				return
			}
		}
		r.decide(sh, req)
		return
	}
	r.handleControl()
}

// malformed answers a frame whose payload did not parse. The framing
// survived, so the connection stays.
func (r *connReader) malformed(err error) {
	r.s.m.errMalformed.Inc()
	r.reply(&ErrorResponse{Code: CodeMalformed, Msg: err.Error()})
}

// unknownBench answers a request for a benchmark this server has no
// snapshot of.
func (r *connReader) unknownBench(id uint32, bench []byte) {
	r.s.m.errUnknownBench.Inc()
	r.reply(&ErrorResponse{ID: id, Code: CodeUnknownBench,
		Msg: fmt.Sprintf("no snapshot for benchmark %q", bench)})
}

// handleControl answers a non-decide frame: pings and the cluster's
// replication messages.
func (r *connReader) handleControl() {
	s := r.s
	msg, err := ParseMessage(r.payload)
	if err != nil {
		r.malformed(err)
		return
	}
	switch m := msg.(type) {
	case Ping:
		r.reply(Pong{})
	case *FoldIn:
		if s.cfg.Cluster == nil {
			r.reply(&ErrorResponse{Code: CodeMalformed, Msg: "fold-in on a non-cluster node"})
			return
		}
		status := s.cfg.Cluster.ApplyFoldIn(m.Bench, m.Version, m.Table)
		r.reply(&FoldInAck{Bench: m.Bench, Version: m.Version, Status: status})
	case *CatchUpReq:
		if s.cfg.Cluster == nil {
			r.reply(&ErrorResponse{Code: CodeMalformed, Msg: "catch-up on a non-cluster node"})
			return
		}
		r.reply(s.catchUp(m))
	default:
		// Decide requests never reach here (the fast path in handle
		// matches every frame ParseMessage would decode as one).
		s.m.errMalformed.Inc()
		r.reply(&ErrorResponse{Code: CodeMalformed, Msg: fmt.Sprintf("unexpected message %T", msg)})
	}
}

// catchUp answers a peer's CatchUpReq with this node's current table of
// the benchmark when it is newer than the peer's version, and otherwise
// with a FoldInAck saying why not.
func (s *Server) catchUp(m *CatchUpReq) Message {
	snap := s.reg.Get(m.Bench)
	if snap == nil {
		return &FoldInAck{Bench: m.Bench, Version: m.After, Status: FoldUnknown}
	}
	if snap.Version <= m.After {
		return &FoldInAck{Bench: m.Bench, Version: snap.Version, Status: FoldStale}
	}
	fold, err := snap.FoldIn()
	if err != nil {
		return &FoldInAck{Bench: m.Bench, Version: snap.Version, Status: FoldFailed}
	}
	return fold
}

// forward ships a mis-routed request to the owning node through the
// cluster hooks. The hook borrows req only for the duration of the call;
// the eventual peer response (already re-keyed to the client's request
// ID) is written on this connection by the peer link. A dead peer is
// answered in-band with CodePeerDown — retryable, because the request
// was decided nowhere.
func (r *connReader) forward(peer string, req *DecideRequest) {
	s := r.s
	if err := s.cfg.Cluster.Forward(peer, req, r.send); err != nil {
		s.m.errPeerDown.Inc()
		r.reply(&ErrorResponse{ID: req.ID, Code: CodePeerDown,
			Msg: fmt.Sprintf("forward to %s: %v", peer, err)})
		return
	}
	s.m.forwards.Inc()
}

// decide answers one request of shard sh. With the breaker open the
// request gets the precise fallback; otherwise it is classified against
// the shard's current snapshot inside decideSafe's panic barrier, and a
// sampled observation goes to the shard's updater right away.
//
//mithra:hotpath
func (r *connReader) decide(sh *shard, req *DecideRequest) {
	s := r.s
	if !sh.brk.admit() {
		r.fallback(sh, req)
		return
	}
	snap := s.reg.Get(sh.bench)
	v := &r.views[sh.idx]
	if v.view == nil || v.version != snap.Version {
		//mithra:coldpath once per connection and snapshot version: a new snapshot gets a new private view
		v.view, v.probe, v.version = snap.view(), snap.NewProbe(), snap.Version
	}
	resp, ob, haveOb := s.decideSafe(sh, snap, v.view, v.probe, req, &r.dresp, &r.eresp)
	if s.cfg.Cluster != nil {
		// Durable decision record, keyed by the client's original request
		// ID (fallbacks are excluded: the client re-asks them and the
		// re-ask records the classifier's answer).
		if dr, isDecision := resp.(*DecideResponse); isDecision && !dr.Fallback {
			rid := req.ID
			if req.Forwarded {
				rid = req.Orig
			}
			s.cfg.Cluster.Record(sh.bench, rid, dr.Precise)
		}
	}
	r.reply(resp)
	if haveOb {
		sh.up.observe(ob)
	}
}

// fallback answers a request while its shard's breaker is open.
// Fail-safe degradation: the precise function is always quality-safe, so
// an open breaker answers DecisionPrecise rather than classifying in an
// unhealthy shard.
func (r *connReader) fallback(sh *shard, req *DecideRequest) {
	r.s.m.decFallback.Inc()
	sh.cDecisions.Inc()
	sh.cFallbacks.Inc()
	r.dresp = DecideResponse{ID: req.ID, Precise: true, Fallback: true, TraceID: req.TraceID}
	r.reply(&r.dresp)
}

// reply frames msg onto the batch the reader owes.
//
//mithra:hotpath
func (r *connReader) reply(msg Message) {
	out, err := AppendFrame(r.out, msg)
	if err != nil { // unreachable for our own responses; keep the codec honest
		r.s.m.errEncode.Inc()
		return
	}
	r.out = out
	r.owed++
}

// flushIfDue writes the owed batch before a read that could block (no
// complete frame buffered) or once batchCap responses are owed.
//
//mithra:hotpath
func (r *connReader) flushIfDue() {
	if r.owed > 0 && (r.owed >= batchCap || !frameBuffered(r.br)) {
		r.flush()
	}
}

// frameBuffered reports whether br holds a whole frame, so that reading
// it cannot block.
func frameBuffered(br *bufio.Reader) bool {
	n := br.Buffered()
	if n < 4 {
		return false
	}
	hdr, _ := br.Peek(4)
	return uint64(n-4) >= uint64(binary.BigEndian.Uint32(hdr))
}

// flush answers the owed batch: the batch's decision records reach the
// OS first, so a SIGKILL after a client saw an answer can never lose the
// matching record (a flush failure is surfaced as a counter: the
// decisions are still correct, only the durability margin degraded);
// then every owed frame goes out in one locked write.
//
//mithra:hotpath
func (r *connReader) flush() {
	if r.owed == 0 {
		return
	}
	s := r.s
	if s.cfg.Cluster != nil {
		if err := s.cfg.Cluster.FlushRecords(); err != nil {
			s.m.errRecordFlush.Inc()
		}
	}
	r.c.sendRaw(r.out)
	s.m.batches.Inc()
	s.m.batchSize.Observe(float64(r.owed))
	r.out, r.owed = r.out[:0], 0
}

// decideSafe is decide behind a panic barrier — fail-safe degradation at
// the single-request granularity. A panicking decision (a poisoned
// snapshot, a bug, or an injected fault.SiteWorkerPanic) never kills the
// connection reader: the request gets the precise fallback (always
// quality-safe), the panic counts against the shard's breaker, and the
// reader moves on to the next request.
func (s *Server) decideSafe(sh *shard, snap *Snapshot, view classifier.Classifier,
	probe ErrorProbe, req *DecideRequest,
	dresp *DecideResponse, eresp *ErrorResponse) (resp Message, ob observation, haveOb bool) {
	defer func() {
		if r := recover(); r != nil {
			s.m.workerPanics.Inc()
			sh.brk.onFailure(fmt.Sprintf("worker panic: %v", r))
			*dresp = DecideResponse{ID: req.ID, Precise: true, Fallback: true, TraceID: req.TraceID}
			resp, ob, haveOb = dresp, observation{}, false
			s.m.decFallback.Inc()
			sh.cDecisions.Inc()
			sh.cFallbacks.Inc()
		}
	}()
	if sh.fPanic.Hit() {
		panic(fmt.Sprintf("%v: worker panic for %s", fault.ErrInjected, sh.bench))
	}
	resp, ob, haveOb = s.decide(sh, snap, view, probe, req, dresp, eresp)
	if _, decided := resp.(*DecideResponse); decided {
		sh.brk.onSuccess()
	}
	return resp, ob, haveOb
}

// decide serves one request against the shard's snapshot and, when the
// sporadic sampler hits, measures the true accelerator error through the
// precise path. The measurement never alters the served decision — it
// feeds the online updater. The response is written into the reader's
// reusable dresp/eresp structs (the hot path allocates nothing).
func (s *Server) decide(sh *shard, snap *Snapshot, view classifier.Classifier,
	probe ErrorProbe, req *DecideRequest,
	dresp *DecideResponse, eresp *ErrorResponse) (Message, observation, bool) {
	if len(req.In) != sh.inDim {
		s.m.errBadDim.Inc()
		*eresp = ErrorResponse{ID: req.ID, Code: CodeBadDim,
			Msg: fmt.Sprintf("input dim %d, want %d", len(req.In), sh.inDim)}
		return eresp, observation{}, false
	}
	precise := view.Classify(req.In)
	if precise {
		s.m.decPrecise.Inc()
	} else {
		s.m.decApprox.Inc()
	}
	sh.cDecisions.Inc()
	// Sampling, drift injection, and the observation stream key on the
	// client's original invocation ID: a forwarded request must sample
	// exactly as it would have on a direct connection, or the home node's
	// observation sequence would depend on which endpoint the client hit.
	rid := req.ID
	if req.Forwarded {
		rid = req.Orig
	}
	sampled := probe != nil && (sampleHit(sh.sampleSeed, rid, s.cfg.SampleRate) || sh.boostHit(rid))
	*dresp = DecideResponse{ID: req.ID, Precise: precise, Sampled: sampled,
		Version: snap.Version, TraceID: req.TraceID}
	if !sampled {
		return dresp, observation{}, false
	}
	s.m.sampled.Inc()
	err := probe(req.In)
	if sh.fDrift.HitAt(uint64(rid)) {
		// Injected input drift: the measured accelerator error is forced
		// above the threshold, as if the input distribution had shifted
		// under the classifier. Keyed by request ID (not draw order), so
		// the set of drifted observations is identical at any client shape.
		err = snap.Threshold + 1
	}
	bad := err > snap.Threshold
	if bad != precise {
		s.m.sampleMiss.Inc()
	}
	// The request returns to the pool as soon as its response is encoded,
	// but the updater consumes observations asynchronously (and the monitor
	// may retain the input until a fold-in): it must be copied out, never
	// aliased.
	in := append([]float64(nil), req.In...)
	return dresp, observation{in: in, id: rid, trace: req.TraceID, bad: bad, precise: precise}, true
}

// armBoost publishes a forced-sampling request-ID window [from, until).
// Called from the monitor's escalation (the updater goroutine); the
// single packed store means readers can never observe a half-armed
// window. The monitor only re-arms after the previous window's IDs have
// all been released (watch.recovery), so window membership stays a pure
// function of the request ID.
func (sh *shard) armBoost(from, until uint32) {
	sh.boostWin.Store(uint64(from)<<32 | uint64(until))
}

// boostHit reports whether invocation id falls in the armed
// forced-sampling window. Two comparisons and one atomic load on the
// decide path; nothing allocates.
//
//mithra:hotpath
func (sh *shard) boostHit(id uint32) bool {
	w := sh.boostWin.Load()
	return w != 0 && id >= uint32(w>>32) && id < uint32(w)
}

// SampleHit reports whether invocation id is error-sampled under a
// shard sampling seed (parallel.Seed(sampleSeed, bench)). Exported for
// the cluster router, which must agree with every shard on which IDs are
// sampled so it can pin them to the benchmark's home node.
func SampleHit(shardSeed uint64, id uint32, rate float64) bool {
	return sampleHit(shardSeed, id, rate)
}

// sampleHit reports whether invocation id is error-sampled: a pure
// function of (shard sampling seed, id, rate), so a replayed trace
// samples the same invocations at any client shape.
func sampleHit(shardSeed uint64, id uint32, rate float64) bool {
	if rate <= 0 {
		return false
	}
	if rate >= 1 {
		return true
	}
	return mathx.NewRNG(shardSeed).Split(uint64(id)).Float64() < rate
}

// Shutdown drains the server: listeners close, connection readers stop
// (each writes the responses it owes), updaters drain, and connections
// close — in that order. If ctx expires first,
// remaining connections are force-closed and ctx's error is returned.
// The obs debug endpoint (mithrad's HTTP fallback) shares this
// context-bounded drain discipline via obs.DebugServer.Shutdown.
func (s *Server) Shutdown(ctx context.Context) error {
	s.quitOnce.Do(func() { close(s.quit) })
	s.lnMu.Lock()
	for _, ln := range s.lns {
		ln.Close()
	}
	s.lnMu.Unlock()
	// Unblock readers parked in Read: an already-expired deadline fails
	// pending and future reads immediately. time.Unix is a constant
	// conversion, not a wall-clock read, so the determinism lint scope
	// stays clean.
	s.connMu.Lock()
	for c := range s.conns {
		c.c.SetReadDeadline(time.Unix(1, 0))
	}
	s.connMu.Unlock()

	s.drainOnce.Do(func() {
		go func() {
			defer close(s.drainDone)
			s.readerWG.Wait()
			for _, b := range s.shardOrder {
				close(s.shards[b].up.ch)
			}
			s.updaterWG.Wait()
			s.closeConns()
		}()
	})
	select {
	case <-s.drainDone:
		return nil
	case <-ctx.Done():
		s.closeConns()
		<-s.drainDone
		return ctx.Err()
	}
}

// closeConns closes every tracked connection (idempotent).
func (s *Server) closeConns() {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	for c := range s.conns {
		c.close()
	}
	s.conns = map[*conn]struct{}{}
}

// dropConn closes and untracks one connection (reader exit).
func (s *Server) dropConn(c *conn) {
	s.connMu.Lock()
	delete(s.conns, c)
	s.connMu.Unlock()
	c.close()
}

// conn wraps one client connection with a write lock, so the reader's
// batches and forwarded responses (written by peer-link goroutines)
// interleave whole frames, never bytes.
type conn struct {
	c      net.Conn
	mu     sync.Mutex
	closed bool
}

// send frames and writes one message through a pooled buffer. Write
// errors are swallowed: the client is gone, and the reader will observe
// the failure on its side.
func (c *conn) send(msg Message) {
	// Size the buffer up front so AppendFrame never reallocates it out of
	// the pool's tracking: response frames are 14 bytes plus the error
	// message, comfortably inside the class for the requested size.
	n := 64
	if e, ok := msg.(*ErrorResponse); ok {
		n += len(e.Msg)
	}
	buf := getBuf(n)
	frame, err := AppendFrame(buf, msg)
	if err != nil {
		putBuf(buf)
		return
	}
	c.sendRaw(frame)
	putBuf(frame)
}

// sendRaw writes pre-framed bytes in one locked write.
func (c *conn) sendRaw(buf []byte) {
	if len(buf) == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.c.Write(buf) //nolint:errcheck // client-side failure; reader cleans up
}

func (c *conn) close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.closed {
		c.closed = true
		c.c.Close()
	}
}
