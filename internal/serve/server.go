// Package serve is mithrad's engine: a long-running decision service
// that answers per-invocation accept/reject queries against immutable
// model snapshots (pre-trained classifier + tuned threshold), batched
// through bounded per-benchmark queues, with the paper's online update
// path — sporadic error sampling feeding table-classifier updates and a
// Clopper-Pearson guarantee re-check that swaps refreshed snapshots in
// atomically.
//
// The package honors the repository determinism contract: a served
// decision is a pure function of (snapshot, input), so replaying a
// captured trace through a frozen-snapshot server yields decisions
// byte-identical to an offline trace.Replay at any worker count, and the
// sporadic sampler derives its choices from the sampling seed and the
// request's invocation ID, never from the wall clock or scheduling
// order. No code in this package reads the wall clock (it is inside the
// nondeterminism lint scope); latency measurement belongs to clients.
package serve

import (
	"bufio"
	"context"
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
	// Workers is the per-benchmark decision worker count (<= 0:
	// GOMAXPROCS, 1: serial). Decisions are identical at every setting.
	Workers int
	// QueueDepth bounds each benchmark shard's request queue; a full
	// queue exerts backpressure on the connection readers (and through
	// TCP, on clients).
	QueueDepth int
	// MaxBatch bounds how many queued requests one worker drains per
	// wakeup. Batching amortizes snapshot lookups and per-connection
	// write flushes.
	MaxBatch int
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
	// commutative, so the hot path may update them from any worker).
	Obs *obs.Obs
	// Breaker configures the per-benchmark circuit breaker (zero value:
	// defaults).
	Breaker BreakerConfig
	// Faults is the active fault-injection plan (nil: no injection).
	// Injected faults exercise the degradation paths: connection faults,
	// worker panics, queue saturation, snapshot-install failures.
	Faults *fault.Set
	// RejectWhenFull sheds load instead of exerting backpressure: a full
	// shard queue answers CodeQueueFull in-band (a retryable error) and
	// counts as a breaker failure — the clock-free latency budget.
	RejectWhenFull bool
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
	// snapshot: the benchmark, the freshly installed snapshot version,
	// and the folded violating inputs (a private copy). The cluster node
	// uses it to append the fold-in to its WAL fold log and stream it to
	// peers. It runs on the shard's updater goroutine; implementations
	// must not block on the network (hand off to a sender instead).
	OnFoldIn func(bench string, version uint32, inputs [][]float64)
}

// withDefaults fills unset knobs.
func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	// Sampling is what feeds the guarantee monitor, so it alone decides
	// whether shards run one; the Enabled fields a caller sets are
	// ignored.
	c.Watch.Enabled = c.SampleRate > 0
	c.Watch.Recheck.Enabled = c.Watch.Enabled
	if c.Watch.Enabled && c.Watch.Recheck.BoostDelay <= 0 {
		c.Watch.Recheck.BoostDelay = boostDelay(c.Watch.Lag, c.QueueDepth, c.SampleRate)
	}
	return c
}

// boostDelay is the default distance, in request IDs, between the
// release that arms a forced-sampling boost and the boost window's first
// ID. The window must open past every ID already decided when the
// monitor arms it, or whether a request is boosted would depend on
// decide timing. The sampled observations decided past the release
// frontier are the Lag still in the reorder buffer, at most queue in the
// updater's channel, and at most one per worker blocked handing its
// observation over (the Lag contract keeps the worker count under Lag):
// fewer than 2×Lag+queue sampled observations, spanning about
// (2×Lag+queue)/rate request IDs. The delay
// never drops below the monitor's own 8×Lag default, which full sampling
// keeps. It is derived from Lag rather than the worker count so the boost
// windows, and with them the journaled notes, are the same at any worker
// count.
func boostDelay(lag, queue int, rate float64) int {
	if lag <= 0 {
		lag = watch.DefaultLag
	}
	d := int(math.Ceil(float64(2*lag+queue) / rate))
	if d < 8*lag {
		d = 8 * lag
	}
	return d
}

// task is one queued decision.
type task struct {
	req *DecideRequest
	c   *conn
}

// shard owns one benchmark's bounded queue, workers, online updater, and
// circuit breaker.
type shard struct {
	bench      string
	inDim      int
	q          chan task
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
	fQueueSat *fault.Injector
	fPanic    *fault.Injector
	fDrift    *fault.Injector
	// Per-benchmark decision counters for the watch status surface,
	// resolved once (commutative: safe from any worker).
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
	errQueueFull     *obs.Counter
	errBadDim        *obs.Counter
	errEncode        *obs.Counter
	backpressure     *obs.Counter
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
		errQueueFull:     o.Counter("serve.errors.queue_full"),
		errBadDim:        o.Counter("serve.errors.bad_dim"),
		errEncode:        o.Counter("serve.errors.encode"),
		backpressure:     o.Counter("serve.backpressure"),
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
	workerWG  sync.WaitGroup
	updaterWG sync.WaitGroup
}

// NewServer builds a server over the registry's current benchmarks. Each
// registered benchmark gets its own shard (queue + workers + updater);
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
	workers := parallel.Workers(cfg.Workers)
	for _, b := range benches {
		snap := reg.Get(b)
		sh := &shard{
			bench:      b,
			inDim:      snap.Table.InputDim(),
			q:          make(chan task, cfg.QueueDepth),
			sampleSeed: parallel.Seed(cfg.SampleSeed, b),
			brk:        newBreaker(b, cfg.Breaker, cfg.Obs),
			fQueueSat:  cfg.Faults.Scoped(fault.SiteQueueSaturate, b),
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
		for w := 0; w < workers; w++ {
			s.workerWG.Add(1)
			go s.worker(sh)
		}
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

// reader parses one connection's request stream and enqueues decisions.
// The steady-state path is allocation-free: one pooled payload buffer is
// reused for every frame on the connection, and decide requests decode
// straight into pooled request structs with the benchmark name interned
// through the shard map (a map lookup keyed by []byte→string conversion
// does not allocate).
func (s *Server) reader(c *conn) {
	defer s.readerWG.Done()
	br := bufio.NewReader(c.c)
	var payload []byte // pooled; ReadFrameInto grows it through the pool
	defer func() { putBuf(payload) }()
	for {
		select {
		case <-s.quit:
			return
		default:
		}
		var err error
		payload, err = ReadFrameInto(br, payload)
		if err != nil {
			// An oversized frame leaves its payload unread: discard exactly
			// the advertised bytes, answer in-band, keep the connection.
			var ftl *FrameTooLargeError
			if errors.As(err, &ftl) {
				s.m.errFrameTooLarge.Inc()
				if _, derr := io.CopyN(io.Discard, br, int64(ftl.N)); derr == nil {
					c.send(&ErrorResponse{Code: CodeFrameTooLarge, Msg: ftl.Error()})
					continue
				}
			}
			if !errors.Is(err, io.EOF) {
				select {
				case <-s.quit: // drain deadline fired; not a client fault
				default:
					s.m.errFrame.Inc()
				}
			}
			s.dropConn(c)
			return
		}
		// Fast path: a decide request or a forwarded one (a single hop from
		// a peer that did not own it) parses into a pooled request without
		// touching the generic decoder. Ownership of the request transfers
		// to enqueue (and onward to a shard worker); every non-queued
		// outcome returns it to the pool here.
		if len(payload) >= 3 && (payload[2] == msgDecideReq || payload[2] == msgForward) {
			req := getReq()
			bench, perr := parseRequestInto(payload, req)
			if perr != nil {
				putReq(req)
				s.m.errMalformed.Inc()
				c.send(&ErrorResponse{Code: CodeMalformed, Msg: perr.Error()})
				continue
			}
			sh := s.shards[string(bench)]
			if sh == nil {
				s.m.errUnknownBench.Inc()
				c.send(&ErrorResponse{ID: req.ID, Code: CodeUnknownBench,
					Msg: fmt.Sprintf("no snapshot for benchmark %q", string(bench))})
				putReq(req)
				continue
			}
			req.Bench = sh.bench // interned: the shard's canonical name
			// A forwarded request is always served locally — never re-routed —
			// so a ring disagreement cannot loop a frame between nodes.
			if s.cfg.Cluster != nil && !req.Forwarded {
				if peer := s.cfg.Cluster.Route(sh.bench, req.ID, req.In); peer != "" {
					s.forward(c, peer, req)
					continue
				}
			}
			s.enqueue(c, sh, req)
			continue
		}
		msg, err := ParseMessage(payload)
		if err != nil {
			// The framing survived, only the payload was malformed: report
			// and keep the connection.
			s.m.errMalformed.Inc()
			c.send(&ErrorResponse{Code: CodeMalformed, Msg: err.Error()})
			continue
		}
		switch m := msg.(type) {
		case Ping:
			c.send(Pong{})
		case *FoldIn:
			if s.cfg.Cluster == nil {
				c.send(&ErrorResponse{Code: CodeMalformed, Msg: "fold-in on a non-cluster node"})
				continue
			}
			status := s.cfg.Cluster.ApplyFoldIn(m.Bench, m.Version, m.Inputs)
			c.send(&FoldInAck{Bench: m.Bench, Version: m.Version, Status: status})
		case *CatchUpReq:
			if s.cfg.Cluster == nil {
				c.send(&ErrorResponse{Code: CodeMalformed, Msg: "catch-up on a non-cluster node"})
				continue
			}
			recs := s.cfg.Cluster.FoldIns(m.Bench, m.After)
			c.send(&CatchUpResp{Bench: m.Bench, Count: uint32(len(recs))})
			for i := range recs {
				c.send(&recs[i])
			}
		default:
			// Decide requests never reach here (the fast path above matches
			// every frame ParseMessage would decode as one).
			s.m.errMalformed.Inc()
			c.send(&ErrorResponse{Code: CodeMalformed, Msg: fmt.Sprintf("unexpected message %T", msg)})
		}
	}
}

// forward ships a mis-routed request to the owning node through the
// cluster hooks. The hook borrows req only for the duration of the call;
// the eventual peer response (already re-keyed to the client's request
// ID) is written back on this connection. A dead peer answers in-band
// with CodePeerDown — retryable, because the request was decided nowhere.
//
//mithra:owns req
func (s *Server) forward(c *conn, peer string, req *DecideRequest) {
	err := s.cfg.Cluster.Forward(peer, req, func(m Message) { c.send(m) })
	if err != nil {
		s.m.errPeerDown.Inc()
		c.send(&ErrorResponse{ID: req.ID, Code: CodePeerDown,
			Msg: fmt.Sprintf("forward to %s: %v", peer, err)})
		putReq(req)
		return
	}
	s.m.forwards.Inc()
	putReq(req)
}

// enqueue routes a request to its benchmark shard. With the breaker open
// the request gets the precise fallback immediately; a full queue blocks
// (backpressure through the reader and TCP) unless RejectWhenFull sheds
// it in-band; a draining server rejects. enqueue owns req: queueing
// transfers it to a worker, every other outcome returns it to the pool.
//
//mithra:owns req
func (s *Server) enqueue(c *conn, sh *shard, req *DecideRequest) {
	if !sh.brk.admit() {
		// Fail-safe degradation: the precise function is always
		// quality-safe, so an open breaker answers DecisionPrecise rather
		// than queueing into an unhealthy shard.
		s.m.decFallback.Inc()
		sh.cDecisions.Inc()
		sh.cFallbacks.Inc()
		c.send(&DecideResponse{ID: req.ID, Precise: true, Fallback: true, TraceID: req.TraceID})
		putReq(req)
		return
	}
	saturated := sh.fQueueSat.Hit()
	t := task{req: req, c: c}
	if !saturated {
		select {
		case sh.q <- t:
			return
		default:
		}
	}
	if s.cfg.RejectWhenFull || saturated {
		// Load shedding doubles as the clock-free latency budget: a shed
		// request is a latency violation, so it feeds the breaker.
		s.m.errQueueFull.Inc()
		sh.brk.onFailure("queue saturated")
		c.send(&ErrorResponse{ID: req.ID, Code: CodeQueueFull, Msg: "shard queue saturated"})
		putReq(req)
		return
	}
	s.m.backpressure.Inc()
	select {
	case sh.q <- t:
	case <-s.quit:
		c.send(&ErrorResponse{ID: req.ID, Code: CodeDraining, Msg: "server draining"})
		putReq(req)
	}
}

// connGroup collects one batch's response frames for a single
// connection, in decision order; the group goes out in one locked writev
// (net.Buffers), so each connection sees whole frames however its
// requests interleaved across the batch.
type connGroup struct {
	c    *conn
	bufs net.Buffers
}

// worker drains one shard's queue in bounded batches. The snapshot is
// loaded once per batch (never mid-request); the worker keeps a private
// classifier view and error probe per snapshot version, and classifies
// each request through the view inside decideSafe's per-request panic
// barrier.
//
// The batch loop is allocation-free at steady state: response structs,
// the batch slice, and the per-response frame buffers all live on the
// worker. Frame buffers recycle through a worker-local freelist rather
// than a sync.Pool — writes complete before the batch ends, so the
// worker never loses ownership, and a freelist (unlike a pool) cannot be
// drained by the GC mid-run, which the allocs/op regression gate relies
// on.
func (s *Server) worker(sh *shard) {
	defer s.workerWG.Done()
	var (
		view        classifier.Classifier
		probe       ErrorProbe
		viewVersion uint32
		batch       = make([]task, 0, s.cfg.MaxBatch)
		out         = make([]connGroup, 0, 4)
		free        [][]byte // worker-local response-frame freelist
		scratch     net.Buffers
		dresp       DecideResponse
		eresp       ErrorResponse
	)
	for {
		t, ok := <-sh.q
		if !ok {
			return
		}
		batch = append(batch[:0], t)
	fill:
		for len(batch) < s.cfg.MaxBatch {
			select {
			case t2, ok2 := <-sh.q:
				if !ok2 {
					break fill // finish this batch; next receive exits
				}
				batch = append(batch, t2)
			default:
				break fill
			}
		}

		snap := s.reg.Get(sh.bench)
		if view == nil || viewVersion != snap.Version {
			view = snap.view()
			probe = snap.NewProbe()
			viewVersion = snap.Version
		}

		for i := range out {
			out[i].c = nil
			out[i].bufs = out[i].bufs[:0]
		}
		out = out[:0]
		for _, t := range batch {
			resp, ob, haveOb := s.decideSafe(sh, snap, view, probe, t.req, &dresp, &eresp)
			if s.cfg.Cluster != nil {
				// Durable decision record, keyed by the client's original
				// request ID (fallbacks are excluded: the client re-asks them
				// and the re-ask records the classifier's answer).
				if dr, isDecision := resp.(*DecideResponse); isDecision && !dr.Fallback {
					rid := t.req.ID
					if t.req.Forwarded {
						rid = t.req.Orig
					}
					s.cfg.Cluster.Record(sh.bench, rid, dr.Precise)
				}
			}
			frame, err := AppendFrame(popBuf(&free), resp)
			if err != nil { // unreachable for our own responses; keep the codec honest
				s.m.errEncode.Inc()
			} else {
				appendConnFrame(&out, t.c, frame)
			}
			if haveOb {
				sh.up.observe(ob)
			}
			putReq(t.req)
		}
		if s.cfg.Cluster != nil {
			// Records reach the OS before any response frame does, so a
			// SIGKILL after a client saw an ack can never lose the matching
			// record; a flush failure is surfaced as a counter (the decisions
			// are still correct, only the durability margin degraded).
			if err := s.cfg.Cluster.FlushRecords(); err != nil {
				s.m.errRecordFlush.Inc()
			}
		}
		for i := range out {
			out[i].c.sendBuffers(out[i].bufs, &scratch)
			for _, b := range out[i].bufs {
				pushBuf(&free, b)
			}
		}
		s.m.batches.Inc()
		s.m.batchSize.Observe(float64(len(batch)))
	}
}

// popBuf takes a response-frame buffer off the worker's freelist.
func popBuf(free *[][]byte) []byte {
	if n := len(*free); n > 0 {
		b := (*free)[n-1]
		(*free)[n-1] = nil
		*free = (*free)[:n-1]
		return b[:0]
	}
	// Sized for a decide-response frame (16 bytes) with room for typical
	// per-request error frames; odd growth just re-enters the freelist.
	return make([]byte, 0, 64)
}

// pushBuf returns a frame buffer to the worker's freelist.
func pushBuf(free *[][]byte, b []byte) { *free = append(*free, b) }

// appendConnFrame files frame under c's group for this batch, reusing
// group slots — and their frame-slice capacity — across batches.
func appendConnFrame(out *[]connGroup, c *conn, frame []byte) {
	for i := range *out {
		if (*out)[i].c == c {
			(*out)[i].bufs = append((*out)[i].bufs, frame)
			return
		}
	}
	if len(*out) < cap(*out) {
		*out = (*out)[:len(*out)+1]
		g := &(*out)[len(*out)-1]
		g.c = c
		g.bufs = append(g.bufs[:0], frame)
		return
	}
	*out = append(*out, connGroup{c: c, bufs: net.Buffers{frame}})
}

// decideSafe is decide behind a panic barrier — fail-safe degradation at
// the single-request granularity. A panicking decision (a poisoned
// snapshot, a bug, or an injected fault.SiteWorkerPanic) never kills the
// worker goroutine: the request gets the precise fallback (always
// quality-safe), the panic counts against the shard's breaker, and the
// batch loop resumes with the next request.
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

// decide serves one request against the batch's snapshot and, when the
// sporadic sampler hits, measures the true accelerator error through the
// precise path. The measurement never alters the served decision — it
// feeds the online updater. The response is written into the worker's
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
		// the set of drifted observations is identical at any worker count.
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
// single packed store means workers can never observe a half-armed
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
// samples the same invocations at any worker count.
func sampleHit(shardSeed uint64, id uint32, rate float64) bool {
	if rate <= 0 {
		return false
	}
	if rate >= 1 {
		return true
	}
	return mathx.NewRNG(shardSeed).Split(uint64(id)).Float64() < rate
}

// Shutdown drains the server: listeners close, connection readers stop,
// queued requests are decided and their responses written, updaters
// drain, and connections close — in that order. If ctx expires first,
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
				close(s.shards[b].q)
			}
			s.workerWG.Wait()
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

// conn wraps one client connection with a write lock, so responses from
// several shard workers (and error replies from the reader) interleave
// whole frames, never bytes.
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

// sendBuffers writes a group of pre-framed responses in one locked
// vectored write. net.Buffers.WriteTo consumes the slice it walks
// (advancing and zeroing entries), and the caller's frame buffers must
// survive to re-enter its freelist — so the group is first copied into
// the caller's scratch slice, and only the copy is consumed. On a TCP
// connection the copy goes out as a single writev; wrapped connections
// (fault injection, pipes) degrade to sequential whole-frame writes
// under the same lock.
func (c *conn) sendBuffers(bufs net.Buffers, scratch *net.Buffers) {
	if len(bufs) == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	full := append((*scratch)[:0], bufs...)
	*scratch = full
	scratch.WriteTo(c.c) //nolint:errcheck // client-side failure; reader cleans up
	// WriteTo advanced *scratch into its backing array; restore the
	// original header so the capacity is reusable next batch.
	*scratch = full[:0]
}

func (c *conn) close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.closed {
		c.closed = true
		c.c.Close()
	}
}
