package serve

import (
	"bufio"
	"fmt"
	"net"
)

// Client is a pipelining wire-protocol client (used by `mithra loadgen`
// and the serve tests). It is not goroutine-safe: one client per
// goroutine, many clients per server. Every failure it returns is typed
// (errors.go): connection-level failures and in-band retryable codes
// match errors.Is(err, ErrRetryable), so callers — notably the
// ResilientClient — can branch on retryability instead of strings.
type Client struct {
	c  net.Conn
	br *bufio.Reader
	// wbuf and rbuf are the reusable encode and frame-read buffers behind
	// the zero-allocation DecideBatchInto path. rbuf is drawn from the
	// serve buffer pool by ReadFrameInto and returned on Close.
	wbuf []byte
	rbuf []byte
	// trace, when nonzero, stamps every outgoing decide request with a
	// trace ID (wire v2); the zero default keeps the frames byte-identical
	// to version 1 and the round trip allocation-free.
	trace uint64
}

// RoundTripAllocs is the steady-state allocation budget of one
// single-request DecideBatchInto round trip, counted process-wide —
// client encode and parse, the server's reader/worker decide path, and
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

// Decide asks for one decision (a single round trip).
func (c *Client) Decide(bench string, id uint32, in []float64) (*DecideResponse, error) {
	resps, err := c.DecideBatch(bench, id, [][]float64{in})
	if err != nil {
		return nil, err
	}
	return &resps[0], nil
}

// DecideBatch pipelines one request per input (IDs baseID, baseID+1, ...)
// and reassembles the responses into input order, whatever order the
// server's shard workers answered in. All frames are encoded up front
// and written in one call, so a failure is always a whole-batch failure
// with a typed cause. A per-request server error (unknown benchmark, bad
// input width, draining, shed load) aborts the batch and returns as a
// typed wire error.
func (c *Client) DecideBatch(bench string, baseID uint32, inputs [][]float64) ([]DecideResponse, error) {
	return c.DecideBatchInto(bench, baseID, inputs, make([]DecideResponse, len(inputs)))
}

// DecideBatchInto is DecideBatch writing into caller-provided storage
// (out must hold len(inputs) entries; the filled prefix is returned).
// Steady state it allocates nothing: requests encode into the client's
// reusable write buffer, response frames land in its pooled read buffer,
// and decisions parse in place — this is the loadgen and bench-harness
// hot path, and the allocation-regression tests pin it at zero allocs
// per call. Error handling stays on the generic decoder: any in-band
// error aborts the batch with a typed wire error.
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
// Like DecideBatchInto, responses may arrive in any order within the
// pipeline window and every failure is marked retryable where re-sending
// is safe.
func (c *Client) DecideIDs(bench string, ids []uint32, inputs [][]float64, out []DecideResponse) error {
	if len(ids) != len(inputs) || len(out) < len(inputs) {
		return fmt.Errorf("serve: DecideIDs wants len(ids)==len(inputs)<=len(out), have %d/%d/%d",
			len(ids), len(inputs), len(out))
	}
	return c.pipeline(bench, 0, ids, inputs, out)
}

// pipeline is the one request/response loop behind DecideBatchInto and
// DecideIDs: it encodes one request per input (IDs from batchID), writes
// them in one call, and files each response at its batchSlot, whatever
// order the server's shard workers answered in.
func (c *Client) pipeline(bench string, baseID uint32, ids []uint32, inputs [][]float64, out []DecideResponse) error {
	req := DecideRequest{Bench: bench, TraceID: c.trace}
	frames := c.wbuf[:0]
	for i, in := range inputs {
		req.ID = batchID(baseID, ids, i)
		req.In = in
		var err error
		if frames, err = AppendDecideRequest(frames, &req); err != nil {
			return err
		}
	}
	c.wbuf = frames
	if err := c.writeFrames(frames); err != nil {
		return err
	}
	var resp DecideResponse
	for range inputs {
		payload, err := ReadFrameInto(c.br, c.rbuf)
		c.rbuf = payload
		if err != nil {
			return fmt.Errorf("serve: read response: %w: %v", ErrRetryable, err)
		}
		if perr := ParseDecideResponseInto(payload, &resp); perr != nil {
			// Not a decide response: decode generically for a typed error.
			msg, merr := ParseMessage(payload)
			if merr != nil {
				return fmt.Errorf("serve: read response: %w: %v", ErrRetryable, merr)
			}
			if e, ok := msg.(*ErrorResponse); ok {
				return wireError(e)
			}
			return protoErrf("unexpected response %T", msg)
		}
		i := batchSlot(baseID, ids, len(inputs), resp.ID)
		if i < 0 {
			return protoErrf("response id %d not in request set", resp.ID)
		}
		out[i] = resp
	}
	return nil
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
