package serve

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"time"

	"mithra/internal/mathx"
	"mithra/internal/parallel"
)

// Client is a pipelining wire-protocol client (used by `mithra loadgen`,
// the cluster's routed client and the serve tests). It is not
// goroutine-safe: one client per goroutine, many clients per server.
// Every failure it returns is typed (errors.go): connection-level
// failures and in-band retryable codes match errors.Is(err,
// ErrRetryable), so callers can branch on retryability instead of
// strings.
//
// Responses fill their request's slot by ID exactly once: a duplicate
// answer to a filled slot is dropped, and an answer whose ID is not in
// the request set is a protocol error. A Dial'd client makes one attempt
// per batch and sets no deadline. A DialResilient client adds
// per-attempt deadlines, bounded retry with decorrelated-jitter backoff,
// and reconnect; each retry re-sends only the unfilled slots. Retry is
// idempotent by construction: a decision is a pure function of
// (snapshot, input), so re-asking after an ambiguous failure (the server
// may or may not have seen the frame) computes the same answer again.
type Client struct {
	c  net.Conn
	br *bufio.Reader
	// wbuf, rbuf and filled are the reusable encode buffer, frame-read
	// buffer and answered-slot marks behind the zero-allocation
	// DecideBatchInto path. rbuf is drawn from the serve buffer pool by
	// ReadFrameInto and returned on Close.
	wbuf   []byte
	rbuf   []byte
	filled []bool
	// trace, when nonzero, stamps every outgoing decide request with a
	// trace ID (wire v2); the zero default keeps the frames byte-identical
	// to version 1 and the round trip allocation-free.
	trace uint64
	// retry is nil for a Dial'd client; DialResilient arms it.
	retry *redial
	// broken marks a connection that failed mid-exchange: it may still
	// carry answers to an abandoned batch, so a retrying client redials
	// before its next attempt.
	broken bool

	// Retries and Reconnects count recovery actions (load generator
	// reporting); both stay zero unless retries are armed.
	Retries    int
	Reconnects int
	// Fallbacks counts responses served by the fail-safe degradation
	// path (breaker open or a fault mid-decision).
	Fallbacks int
}

// RetryConfig shapes a DialResilient client's recovery behavior.
type RetryConfig struct {
	// Attempts bounds how many times one request may be (re)tried
	// (default 5).
	Attempts int
	// Timeout is the per-attempt deadline covering the write and every
	// read of that attempt (default 5s; <0 disables deadlines — tests).
	Timeout time.Duration
	// BaseDelay and MaxDelay bound the decorrelated-jitter backoff
	// between attempts (defaults 2ms and 250ms).
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Seed keys the backoff jitter RNG: each connection derives its own
	// deterministic jitter stream, so a replayed chaos run schedules the
	// same retry pattern (default 1).
	Seed uint64
}

func (c RetryConfig) withDefaults() RetryConfig {
	if c.Attempts <= 0 {
		c.Attempts = 5
	}
	if c.Timeout == 0 {
		c.Timeout = 5 * time.Second
	}
	if c.BaseDelay <= 0 {
		c.BaseDelay = 2 * time.Millisecond
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = 250 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// redial is a retrying client's recovery state: where to reconnect, how
// often to try, and the seeded backoff jitter stream.
type redial struct {
	network, addr string
	cfg           RetryConfig
	rng           *mathx.RNG
	prevDelay     time.Duration
}

// RoundTripAllocs is the steady-state allocation budget of one
// single-request DecideBatchInto round trip, counted process-wide —
// client encode and parse, the server's reader decide path, and
// both TCP stacks. The allocation-regression test pins it; raising it is
// a perf regression and needs a DESIGN.md §12 note.
const RoundTripAllocs = 0

// Dial connects to a mithrad listener ("tcp", "unix").
func Dial(network, addr string) (*Client, error) {
	c, err := net.Dial(network, addr)
	if err != nil {
		return nil, fmt.Errorf("serve: dial %s %s: %w", network, addr, err)
	}
	return NewClient(c), nil
}

// DialResilient connects with retries armed by cfg. The jitter RNG is
// seeded from cfg.Seed and the dial address: a per-connection
// deterministic stream.
func DialResilient(network, addr string, cfg RetryConfig) (*Client, error) {
	cl, err := Dial(network, addr)
	if err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	cl.retry = &redial{network: network, addr: addr, cfg: cfg,
		rng: mathx.NewRNG(parallel.Seed(cfg.Seed, network+"!"+addr))}
	return cl, nil
}

// NewClient wraps an established connection.
func NewClient(c net.Conn) *Client {
	return &Client{c: c, br: bufio.NewReader(c)}
}

// Conn exposes the underlying connection (deadline control).
func (c *Client) Conn() net.Conn { return c.c }

// SetTrace arms (nonzero) or disarms (zero) trace propagation: every
// subsequent decide request carries the ID, and the server echoes it on
// the matching response.
func (c *Client) SetTrace(id uint64) { c.trace = id }

// Close tears the connection down and releases the pooled read buffer.
func (c *Client) Close() error {
	putBuf(c.rbuf)
	c.rbuf = nil
	return c.c.Close()
}

// clientNow is the serving client's single audited wall-clock read — it
// exists only to arm per-attempt I/O deadlines. Latency belongs to the
// client side of the protocol by design (DESIGN.md §8: the server may
// not read the clock), and a deadline never feeds a decision: decisions
// are pure functions of (snapshot, input) regardless of when they were
// asked.
func clientNow() time.Time {
	//lint:ignore nondeterminism client I/O deadlines are wall-clock by nature and never influence decision values
	return time.Now()
}

// reconnect replaces the connection with a fresh one to the same
// address, keeping the read buffer.
func (c *Client) reconnect() error {
	c.c.Close()
	c.Reconnects++
	nc, err := net.Dial(c.retry.network, c.retry.addr)
	if err != nil {
		return fmt.Errorf("serve: dial %s %s: %w", c.retry.network, c.retry.addr, err)
	}
	c.c = nc
	c.br.Reset(nc)
	c.broken = false
	return nil
}

// backoff sleeps a decorrelated-jitter delay: uniformly drawn between
// BaseDelay and three times the previous delay, capped at MaxDelay. The
// draw comes from the per-connection seeded stream, so retry schedules
// replay deterministically.
func (r *redial) backoff() {
	lo := r.cfg.BaseDelay
	hi := min(max(3*r.prevDelay, lo), r.cfg.MaxDelay)
	d := lo
	if hi > lo {
		d = lo + time.Duration(r.rng.Float64()*float64(hi-lo))
	}
	r.prevDelay = d
	time.Sleep(d)
}

// writeFrames writes pre-framed bytes in one call, distinguishing a torn
// frame from a clean failure: a partial write on a closing connection
// returns ErrPartialWrite (retryable — the server saw at most a frame
// prefix, which its codec rejects, so re-sending the whole batch on a
// fresh connection can never double-apply anything), never a silent
// short write.
func (c *Client) writeFrames(buf []byte) error {
	n, err := c.c.Write(buf)
	if err == nil && n < len(buf) {
		err = fmt.Errorf("short write")
	}
	if err != nil {
		if n > 0 && n < len(buf) {
			return fmt.Errorf("serve: wrote %d of %d request bytes: %w: %v", n, len(buf), ErrPartialWrite, err)
		}
		return fmt.Errorf("serve: write request: %w: %v", ErrRetryable, err)
	}
	return nil
}

// Ping round-trips a liveness probe.
func (c *Client) Ping() error {
	frame, err := AppendFrame(nil, Ping{})
	if err != nil {
		return err
	}
	if err := c.writeFrames(frame); err != nil {
		return err
	}
	msg, err := ReadMessage(c.br)
	if err != nil {
		return err
	}
	if _, ok := msg.(Pong); !ok {
		return protoErrf("ping answered with %T", msg)
	}
	return nil
}

// Decide asks for one decision (a single round trip, plus retries when
// armed).
func (c *Client) Decide(bench string, id uint32, in []float64) (*DecideResponse, error) {
	resps, err := c.DecideBatch(bench, id, [][]float64{in})
	if err != nil {
		return nil, err
	}
	return &resps[0], nil
}

// DecideBatch pipelines one request per input (IDs baseID, baseID+1, ...)
// and reassembles the responses into input order, whatever order the
// server answered in. All frames of an attempt are
// encoded up front and written in one call. A per-request server error
// (unknown benchmark, bad input width, draining, shed load) aborts the
// attempt and returns as a typed wire error — after retries, when armed
// and the error is retryable.
func (c *Client) DecideBatch(bench string, baseID uint32, inputs [][]float64) ([]DecideResponse, error) {
	return c.DecideBatchInto(bench, baseID, inputs, make([]DecideResponse, len(inputs)))
}

// DecideBatchInto is DecideBatch writing into caller-provided storage
// (out must hold len(inputs) entries; the filled prefix is returned).
// Steady state it allocates nothing: requests encode into the client's
// reusable write buffer, response frames land in its pooled read buffer,
// and decisions parse in place — this is the loadgen and bench-harness
// hot path, and the allocation-regression tests pin it at zero allocs
// per call.
func (c *Client) DecideBatchInto(bench string, baseID uint32, inputs [][]float64, out []DecideResponse) ([]DecideResponse, error) {
	if len(out) < len(inputs) {
		return nil, fmt.Errorf("serve: response storage holds %d, need %d", len(out), len(inputs))
	}
	out = out[:len(inputs)]
	if err := c.pipeline(bench, baseID, nil, inputs, out); err != nil {
		return nil, err
	}
	return out, nil
}

// DecideIDs pipelines decisions for explicitly-keyed requests: ids[i]
// identifies inputs[i], and the decision lands in out[i]. The cluster
// router uses this for per-node sub-batches, whose IDs are ascending but
// not contiguous (the batch was split by ring owner) — ids MUST be in
// strictly ascending order, which the router's in-order split guarantees.
// Responses, duplicates and retries follow DecideBatchInto.
func (c *Client) DecideIDs(bench string, ids []uint32, inputs [][]float64, out []DecideResponse) error {
	if len(ids) != len(inputs) || len(out) < len(inputs) {
		return fmt.Errorf("serve: DecideIDs wants len(ids)==len(inputs)<=len(out), have %d/%d/%d",
			len(ids), len(inputs), len(out))
	}
	return c.pipeline(bench, 0, ids, inputs, out)
}

// pipeline is the one request/response loop behind DecideBatchInto and
// DecideIDs: request IDs and response slots follow batchID and
// batchSlot. A Dial'd client makes one attempt and returns its error
// as is; a retrying client re-sends the unfilled slots on a fresh
// connection after each retryable failure, and the batch either
// completes fully or returns the last error.
func (c *Client) pipeline(bench string, baseID uint32, ids []uint32, inputs [][]float64, out []DecideResponse) error {
	n := len(inputs)
	if cap(c.filled) < n {
		c.filled = make([]bool, n)
	}
	filled := c.filled[:n]
	clear(filled)
	missing, attempts := n, 1
	if c.retry != nil {
		attempts = c.retry.cfg.Attempts
	}
	var err error
	for attempt := 0; attempt < attempts && missing > 0; attempt++ {
		if attempt > 0 {
			c.Retries++
			c.retry.backoff()
		}
		if c.broken {
			if err = c.reconnect(); err != nil {
				continue
			}
		}
		if missing, err = c.attempt(bench, baseID, ids, inputs, out, filled, missing); err == nil {
			continue // missing == 0 exits the loop
		}
		if c.retry == nil {
			return err
		}
		c.broken = true
		if !errors.Is(err, ErrRetryable) {
			return err
		}
	}
	if missing > 0 {
		return fmt.Errorf("serve: %d of %d requests unanswered after %d attempts: %w", missing, n, attempts, err)
	}
	return nil
}

// attempt sends the unfilled requests and reads until every one is
// answered or the exchange fails, returning how many stay unanswered.
func (c *Client) attempt(bench string, baseID uint32, ids []uint32, inputs [][]float64,
	out []DecideResponse, filled []bool, missing int) (int, error) {
	if c.retry != nil && c.retry.cfg.Timeout > 0 {
		c.c.SetDeadline(clientNow().Add(c.retry.cfg.Timeout)) //nolint:errcheck
	}
	req := DecideRequest{Bench: bench, TraceID: c.trace}
	frames := c.wbuf[:0]
	for i, in := range inputs {
		if filled[i] {
			continue
		}
		req.ID = batchID(baseID, ids, i)
		req.In = in
		var err error
		if frames, err = AppendDecideRequest(frames, &req); err != nil {
			return missing, err
		}
	}
	c.wbuf = frames
	if err := c.writeFrames(frames); err != nil {
		return missing, err
	}
	var resp DecideResponse
	for missing > 0 {
		payload, err := ReadFrameInto(c.br, c.rbuf)
		c.rbuf = payload
		if err != nil {
			return missing, fmt.Errorf("serve: read response: %w: %v", ErrRetryable, err)
		}
		if ParseDecideResponseInto(payload, &resp) != nil {
			return missing, responseError(payload)
		}
		i := batchSlot(baseID, ids, len(inputs), resp.ID)
		if i < 0 {
			return missing, protoErrf("response id %d not in request set", resp.ID)
		}
		if filled[i] {
			continue // a duplicate answer: the slot keeps its first
		}
		if resp.Fallback {
			c.Fallbacks++
		}
		out[i] = resp
		filled[i] = true
		missing--
	}
	return 0, nil
}

// responseError decodes a response frame that is not a decision into
// the error the batch returns: the typed wire error of an in-band error
// frame, a retryable read error for an undecodable frame, and a
// protocol error for any other message.
func responseError(payload []byte) error {
	msg, err := ParseMessage(payload)
	if err != nil {
		return fmt.Errorf("serve: read response: %w: %v", ErrRetryable, err)
	}
	if e, ok := msg.(*ErrorResponse); ok {
		return wireError(e)
	}
	return protoErrf("unexpected response %T", msg)
}

// batchID is the request ID of input i: baseID+i when ids is nil, ids[i]
// otherwise.
func batchID(baseID uint32, ids []uint32, i int) uint32 {
	if ids == nil {
		return baseID + uint32(i)
	}
	return ids[i]
}

// batchSlot maps a response ID back to its input slot among n requests:
// id-baseID when ids is nil, idSlot(ids, id) otherwise; -1 when the ID
// is not one of the batch's.
func batchSlot(baseID uint32, ids []uint32, n int, id uint32) int {
	if ids != nil {
		return idSlot(ids, id)
	}
	if d := id - baseID; d < uint32(n) {
		return int(d)
	}
	return -1
}

// idSlot binary-searches ascending ids for id, returning its index or -1.
func idSlot(ids []uint32, id uint32) int {
	lo, hi := 0, len(ids)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ids[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(ids) && ids[lo] == id {
		return lo
	}
	return -1
}
