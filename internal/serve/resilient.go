package serve

import (
	"errors"
	"fmt"
	"time"

	"mithra/internal/mathx"
	"mithra/internal/parallel"
)

// RetryConfig shapes the resilient client's recovery behavior.
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
	return c
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

// ResilientClient wraps the wire client with per-request timeouts,
// bounded retry with decorrelated-jitter backoff, and idempotent
// reconnect. Idempotency is structural, not best-effort: every response
// fills its slot by request ID exactly once, and a decision is a pure
// function of (snapshot, input), so a retry after an ambiguous failure
// (the server may or may not have seen the frame) can never double-apply
// anything — at worst the same answer is computed twice and the second
// copy is ignored.
//
// Like Client it is not goroutine-safe: one resilient client per
// goroutine.
type ResilientClient struct {
	network, addr string
	cfg           RetryConfig
	cl            *Client
	rng           *mathx.RNG
	prevDelay     time.Duration

	// Retries and Reconnects count recovery actions (load generator
	// reporting).
	Retries    int
	Reconnects int
	// Fallbacks counts responses served by the fail-safe degradation
	// path (breaker open or worker fault).
	Fallbacks int
}

// DialResilient connects with retry behavior cfg. The jitter RNG is
// seeded from cfg.Seed and the dial address: a per-connection
// deterministic stream.
func DialResilient(network, addr string, cfg RetryConfig) (*ResilientClient, error) {
	cfg = cfg.withDefaults()
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	rc := &ResilientClient{
		network: network,
		addr:    addr,
		cfg:     cfg,
		rng:     mathx.NewRNG(parallel.Seed(seed, network+"!"+addr)),
	}
	if err := rc.reconnect(); err != nil {
		return nil, err
	}
	return rc, nil
}

// Close tears down the current connection.
func (r *ResilientClient) Close() error {
	if r.cl == nil {
		return nil
	}
	return r.cl.Close()
}

func (r *ResilientClient) reconnect() error {
	if r.cl != nil {
		r.cl.Close()
		r.Reconnects++
	}
	cl, err := Dial(r.network, r.addr)
	if err != nil {
		return err
	}
	r.cl = cl
	return nil
}

// backoff sleeps a decorrelated-jitter delay: uniformly drawn between
// BaseDelay and three times the previous delay, capped at MaxDelay. The
// draw comes from the per-connection seeded stream, so retry schedules
// replay deterministically.
func (r *ResilientClient) backoff() {
	lo := r.cfg.BaseDelay
	hi := 3 * r.prevDelay
	if hi < lo {
		hi = lo
	}
	if hi > r.cfg.MaxDelay {
		hi = r.cfg.MaxDelay
	}
	d := lo
	if hi > lo {
		d = lo + time.Duration(r.rng.Float64()*float64(hi-lo))
	}
	r.prevDelay = d
	time.Sleep(d)
}

// arm sets the per-attempt I/O deadline.
func (r *ResilientClient) arm() {
	if r.cfg.Timeout > 0 {
		r.cl.Conn().SetDeadline(clientNow().Add(r.cfg.Timeout)) //nolint:errcheck
	}
}

// Decide asks for one decision, retrying across faults.
func (r *ResilientClient) Decide(bench string, id uint32, in []float64) (*DecideResponse, error) {
	resps, err := r.DecideBatch(bench, id, [][]float64{in})
	if err != nil {
		return nil, err
	}
	return &resps[0], nil
}

// DecideBatch pipelines the batch and fills responses by request ID,
// retrying only the unanswered slots after a retryable failure. The
// batch either completes fully or returns the last error.
func (r *ResilientClient) DecideBatch(bench string, baseID uint32, inputs [][]float64) ([]DecideResponse, error) {
	return r.decide(bench, baseID, nil, inputs)
}

// DecideIDs is DecideBatch for explicitly-keyed requests: ids[i]
// (strictly ascending, not necessarily contiguous — the cluster router's
// per-node sub-batches) identifies inputs[i]. Retry semantics match
// DecideBatch: unanswered slots re-send, duplicate answers are ignored.
func (r *ResilientClient) DecideIDs(bench string, ids []uint32, inputs [][]float64) ([]DecideResponse, error) {
	if len(ids) != len(inputs) {
		return nil, fmt.Errorf("serve: DecideIDs wants len(ids)==len(inputs), have %d/%d", len(ids), len(inputs))
	}
	return r.decide(bench, 0, ids, inputs)
}

// decide is the one retry loop behind DecideBatch and DecideIDs; request
// IDs and response slots follow batchID and batchSlot.
func (r *ResilientClient) decide(bench string, baseID uint32, ids []uint32, inputs [][]float64) ([]DecideResponse, error) {
	out := make([]DecideResponse, len(inputs))
	filled := make([]bool, len(inputs))
	missing := len(inputs)
	var lastErr error
	for attempt := 0; attempt < r.cfg.Attempts && missing > 0; attempt++ {
		if attempt > 0 {
			r.Retries++
			r.backoff()
			if err := r.reconnect(); err != nil {
				lastErr = err
				continue
			}
		}
		var err error
		missing, err = r.attempt(bench, baseID, ids, inputs, out, filled, missing)
		if err == nil {
			continue // missing==0 exits the loop
		}
		lastErr = err
		if !errors.Is(err, ErrRetryable) {
			return nil, err
		}
	}
	if missing > 0 {
		return nil, fmt.Errorf("serve: %d of %d requests unanswered after %d attempts: %w",
			missing, len(inputs), r.cfg.Attempts, lastErr)
	}
	return out, nil
}

// attempt sends the unfilled requests and reads until every one is
// answered or the connection fails. Responses fill their slot by ID;
// duplicates (re-answers from an earlier attempt racing a reconnect) and
// stale IDs are ignored, which is what makes retry idempotent.
func (r *ResilientClient) attempt(bench string, baseID uint32, ids []uint32, inputs [][]float64,
	out []DecideResponse, filled []bool, missing int) (int, error) {
	r.arm()
	req := DecideRequest{Bench: bench}
	var frames []byte
	for i, in := range inputs {
		if filled[i] {
			continue
		}
		req.ID = batchID(baseID, ids, i)
		req.In = in
		var err error
		if frames, err = AppendFrame(frames, &req); err != nil {
			return missing, err
		}
	}
	if err := r.cl.writeFrames(frames); err != nil {
		return missing, err
	}
	for missing > 0 {
		msg, err := ReadMessage(r.cl.br)
		if err != nil {
			return missing, fmt.Errorf("serve: read response: %w: %v", ErrRetryable, err)
		}
		switch m := msg.(type) {
		case *DecideResponse:
			i := batchSlot(baseID, ids, len(inputs), m.ID)
			if i < 0 || filled[i] {
				continue // duplicate or stale: idempotent fill ignores it
			}
			if m.Fallback {
				r.Fallbacks++
			}
			out[i] = *m
			filled[i] = true
			missing--
		case *ErrorResponse:
			err := wireError(m)
			if !errors.Is(err, ErrRetryable) {
				return missing, err
			}
			// A retryable in-band error (shed load, draining) leaves its
			// request unanswered. Stop this attempt — the shed request will
			// never be answered, so a full drain could block until the
			// deadline — and let the next attempt re-send every unfilled
			// slot.
			return missing, fmt.Errorf("serve: request shed: %w", err)
		default:
			return missing, protoErrf("unexpected response %T", msg)
		}
	}
	return 0, nil
}
