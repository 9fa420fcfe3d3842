package serve

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"mithra/internal/classifier"
)

// The wire protocol is a length-prefixed binary framing designed for the
// decision hot path: one frame per message, fixed-size headers, float64
// input vectors as raw IEEE-754 bits. Every frame is
//
//	uint32 (big-endian)  payload length
//	payload              magic 'M', version, message type, body
//
// The codec never panics on malformed input: every parse failure is
// reported as an error wrapping ErrProtocol, so a hostile or buggy client
// can at worst earn itself an error response and a closed connection.
//
// Version 2 extends the two decide messages with an optional 8-byte
// trace ID appended after the version-1 body (all other offsets are
// unchanged). Encoders emit version 1 whenever the trace ID is zero, so
// untraced traffic is bit-identical to the legacy protocol; parsers
// accept both versions.
const (
	wireMagic = 'M'
	// wireV1 is the legacy frame version (no trace ID).
	wireV1 = 1
	// wireV2 appends a trace ID to decide requests and responses.
	wireV2 = 2

	// MaxFrame bounds a frame's payload; anything larger is rejected
	// before allocation (a four-byte prefix could otherwise demand 4 GiB).
	MaxFrame = 1 << 20
	// MaxInputDim bounds the decision input vector width: no table
	// classifier is wider.
	MaxInputDim = classifier.MaxInputDim
	// maxBenchName bounds the benchmark-name field.
	maxBenchName = 255
)

// Message types.
const (
	msgDecideReq  = 1
	msgDecideResp = 2
	msgPing       = 3
	msgPong       = 4
	msgError      = 5
	// Cluster messages (DESIGN.md §15). msgForward wraps a mis-routed
	// decide request hopping between nodes; msgFoldIn pushes a
	// benchmark's encoded table at one version to a replica, answered by
	// msgFoldInAck; msgCatchUp asks a peer for its table if newer than a
	// version, answered by one msgFoldIn or a msgFoldInAck.
	msgForward   = 6
	msgFoldIn    = 7
	msgFoldInAck = 8
	msgCatchUp   = 9
)

// Error codes carried by msgError frames.
const (
	// CodeMalformed: the request frame did not parse.
	CodeMalformed = 1
	// CodeUnknownBench: the server holds no snapshot for the benchmark.
	CodeUnknownBench = 2
	// CodeBadDim: the input width does not match the snapshot's kernel.
	CodeBadDim = 3
	// Codes 4 and 5 (draining, queue full) are retired: a draining
	// reader stops reading and backpressure comes from not reading, so
	// the server never sends them. Do not reuse them; an old peer would
	// read them with their former meaning.
	// CodeFrameTooLarge: the request frame exceeded MaxFrame; it was
	// discarded in-band and the connection survives.
	CodeFrameTooLarge = 6
	// CodePeerDown: the node that owns this request could not be reached
	// to forward it; the request was not decided and is safe to retry.
	CodePeerDown = 7
)

// ErrProtocol is the sentinel every malformed-frame error wraps.
var ErrProtocol = errors.New("serve: protocol error")

// protoErrf builds an ErrProtocol-wrapping error.
func protoErrf(format string, a ...any) error {
	return fmt.Errorf("%w: %s", ErrProtocol, fmt.Sprintf(format, a...))
}

// DecideRequest asks for one accept/reject decision.
type DecideRequest struct {
	// ID is echoed in the response, so clients may pipeline requests and
	// reassemble decisions in invocation order.
	ID uint32
	// Bench selects the snapshot shard.
	Bench string
	// In is the accelerator input vector.
	In []float64
	// TraceID, when nonzero, propagates a client-assigned trace identity
	// to the server and back (wire version 2). Zero means untraced: the
	// encoded frame is bit-identical to wire version 1.
	TraceID uint64
	// Orig and Forwarded carry the cluster forwarding envelope
	// (msgForward frames only). A node that receives a frame it does not
	// own re-sends it to the owner with a fresh peer-connection ID; ID
	// then identifies the hop (echoed in the peer's response) while Orig
	// preserves the client's original request ID, which is the identity
	// decision records key on. Forwarded marks the request as already
	// hopped: the owner serves it locally no matter what its own router
	// says, so a ring disagreement can never loop a frame.
	Orig      uint32
	Forwarded bool
}

// DecideResponse carries one decision.
type DecideResponse struct {
	ID uint32
	// Precise is true when the invocation must fall back to the precise
	// function (the classifier filtered it out).
	Precise bool
	// Sampled is true when the server routed this invocation through the
	// sporadic error-sampling path (the decision itself is unaffected).
	Sampled bool
	// Fallback is true when the decision is the fail-safe degradation
	// path (a panic recovered mid-decision), not the classifier's
	// answer. A fallback decision is always Precise —
	// running the precise function is the quality-safe direction — so a
	// client that wants the classifier's answer may re-ask (same ID).
	Fallback bool
	// Version is the snapshot version that made the decision.
	Version uint32
	// TraceID echoes the request's trace identity (zero when the request
	// was untraced; the response is then encoded as wire version 1).
	TraceID uint64
}

// ErrorResponse reports a per-request failure.
type ErrorResponse struct {
	ID   uint32
	Code uint8
	Msg  string
}

// Ping and Pong are connection liveness probes.
type (
	Ping struct{}
	Pong struct{}
)

// Message is one decoded protocol message: *DecideRequest (Forwarded set
// for msgForward frames), *DecideResponse, *ErrorResponse, *FoldIn,
// *FoldInAck, *CatchUpReq, Ping, or Pong.
type Message any

// AppendFrame appends a complete frame (length prefix + payload) for msg
// to dst and returns the extended slice.
//
//mithra:hotpath
func AppendFrame(dst []byte, msg Message) ([]byte, error) {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0) // length backpatched below
	switch m := msg.(type) {
	case *DecideRequest:
		if m.Forwarded {
			return appendRequestBody(dst, start, msgForward, m.ID, m.Orig, m)
		}
		return appendRequestBody(dst, start, msgDecideReq, m.ID, 0, m)
	case *FoldIn:
		if len(m.Bench) > maxBenchName {
			return nil, protoErrf("bench name %d bytes exceeds %d", len(m.Bench), maxBenchName) //mithra:coldpath error formatting on an oversized bench name
		}
		dst = append(dst, wireMagic, wireV1, msgFoldIn, byte(len(m.Bench)))
		dst = append(dst, m.Bench...)
		dst = binary.BigEndian.AppendUint32(dst, m.Version)
		dst = append(dst, m.Table...)
	case *FoldInAck:
		if len(m.Bench) > maxBenchName {
			return nil, protoErrf("bench name %d bytes exceeds %d", len(m.Bench), maxBenchName) //mithra:coldpath error formatting on an oversized bench name
		}
		dst = append(dst, wireMagic, wireV1, msgFoldInAck, byte(len(m.Bench)))
		dst = append(dst, m.Bench...)
		dst = binary.BigEndian.AppendUint32(dst, m.Version)
		dst = append(dst, m.Status)
	case *CatchUpReq:
		if len(m.Bench) > maxBenchName {
			return nil, protoErrf("bench name %d bytes exceeds %d", len(m.Bench), maxBenchName) //mithra:coldpath error formatting on an oversized bench name
		}
		dst = append(dst, wireMagic, wireV1, msgCatchUp, byte(len(m.Bench)))
		dst = append(dst, m.Bench...)
		dst = binary.BigEndian.AppendUint32(dst, m.After)
	case *DecideResponse:
		dst = append(dst, wireMagic, decideVersion(m.TraceID), msgDecideResp)
		dst = binary.BigEndian.AppendUint32(dst, m.ID)
		var flags byte
		if m.Precise {
			flags |= 1
		}
		if m.Sampled {
			flags |= 2
		}
		if m.Fallback {
			flags |= 4
		}
		dst = append(dst, flags)
		dst = binary.BigEndian.AppendUint32(dst, m.Version)
		if m.TraceID != 0 {
			dst = binary.BigEndian.AppendUint64(dst, m.TraceID)
		}
	case *ErrorResponse:
		if len(m.Msg) > math.MaxUint16 {
			return nil, protoErrf("error message %d bytes too long", len(m.Msg)) //mithra:coldpath error formatting on a rejected frame
		}
		dst = append(dst, wireMagic, wireV1, msgError)
		dst = binary.BigEndian.AppendUint32(dst, m.ID)
		dst = append(dst, m.Code)
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(m.Msg)))
		dst = append(dst, m.Msg...)
	case Ping:
		dst = append(dst, wireMagic, wireV1, msgPing)
	case Pong:
		dst = append(dst, wireMagic, wireV1, msgPong)
	default:
		return nil, protoErrf("unencodable message type %T", msg) //mithra:coldpath error formatting on a rejected message
	}
	return finishFrame(dst, start)
}

// finishFrame backpatches the length prefix at start once the payload
// behind it is complete, rejecting payloads over MaxFrame.
//
//mithra:hotpath
func finishFrame(dst []byte, start int) ([]byte, error) {
	payload := len(dst) - start - 4
	if payload > MaxFrame {
		return nil, protoErrf("frame payload %d exceeds %d", payload, MaxFrame) //mithra:coldpath error formatting on an oversized frame
	}
	binary.BigEndian.PutUint32(dst[start:start+4], uint32(payload))
	return dst, nil
}

// AppendDecideRequest appends a complete decide-request frame to dst. It
// encodes exactly what AppendFrame(dst, m) would for a request that is
// not Forwarded, but with a concrete parameter type: the request never
// crosses an interface boundary, so a stack-allocated request stays on
// the stack — this is the client's steady-state encode path.
//
//mithra:hotpath
func AppendDecideRequest(dst []byte, m *DecideRequest) ([]byte, error) {
	start := len(dst)
	return appendRequestBody(append(dst, 0, 0, 0, 0), start, msgDecideReq, m.ID, 0, m)
}

// decideVersion selects the frame version for a decide message: version
// 1 (bit-identical to the legacy wire) unless a trace ID rides along.
//
//mithra:hotpath
func decideVersion(traceID uint64) byte {
	if traceID != 0 {
		return wireV2
	}
	return wireV1
}

// appendRequestBody is the one encoder of a decide-shaped frame: a
// msgDecideReq, or a msgForward (a decide request plus the Orig field).
// dst already carries the length prefix at start; the body is
//
//	magic, version, typ, id uint32, [orig uint32 — msgForward only],
//	bench-name length byte, bench name, dim uint16, dim float64 bits,
//	[trace ID uint64 — version 2 only]
//
//mithra:hotpath
func appendRequestBody(dst []byte, start int, typ byte, id, orig uint32, m *DecideRequest) ([]byte, error) {
	if len(m.Bench) > maxBenchName {
		return nil, protoErrf("bench name %d bytes exceeds %d", len(m.Bench), maxBenchName) //mithra:coldpath error formatting on a rejected request
	}
	if len(m.In) > MaxInputDim {
		return nil, protoErrf("input dim %d exceeds %d", len(m.In), MaxInputDim) //mithra:coldpath error formatting on a rejected request
	}
	dst = append(dst, wireMagic, decideVersion(m.TraceID), typ)
	dst = binary.BigEndian.AppendUint32(dst, id)
	if typ == msgForward {
		dst = binary.BigEndian.AppendUint32(dst, orig)
	}
	dst = append(dst, byte(len(m.Bench)))
	dst = append(dst, m.Bench...)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(m.In)))
	for _, v := range m.In {
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(v))
	}
	if m.TraceID != 0 {
		dst = binary.BigEndian.AppendUint64(dst, m.TraceID)
	}
	return finishFrame(dst, start)
}

// FrameTooLargeError reports an oversized frame before its payload is
// read. It wraps both ErrFrameTooLarge and ErrProtocol; N is the
// advertised payload size, so a server can discard exactly that many
// bytes, answer in-band, and keep the connection.
type FrameTooLargeError struct{ N uint32 }

func (e *FrameTooLargeError) Error() string {
	return fmt.Sprintf("serve: frame payload %d exceeds %d", e.N, MaxFrame)
}

func (e *FrameTooLargeError) Is(target error) bool {
	return target == ErrFrameTooLarge || target == ErrProtocol
}

// ReadFrame reads one frame's payload from r. It returns io.EOF verbatim
// on a clean end-of-stream (no bytes read), a *FrameTooLargeError (with
// the payload still unread) on oversized frames, and an
// ErrProtocol-wrapping error on truncated frames.
func ReadFrame(r *bufio.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, io.EOF
		}
		return nil, protoErrf("short frame header: %v", err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, &FrameTooLargeError{N: n}
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, protoErrf("truncated frame (want %d bytes): %v", n, err)
	}
	return payload, nil
}

// ReadFrameInto reads one frame's payload into buf's capacity, growing
// it when the frame exceeds cap(buf); the possibly-grown buffer is
// returned so the caller keeps the capacity across frames. Pass nil to
// start. The error contract matches ReadFrame; on error the returned
// slice is empty and keeps the capacity (a truncated frame larger than
// cap(buf) has already grown it).
//
//mithra:hotpath
func ReadFrameInto(r *bufio.Reader, buf []byte) ([]byte, error) {
	// Peek/Discard instead of ReadFull into a local array: the local
	// would escape through io.Reader's interface boundary and cost one
	// heap allocation per frame on an otherwise allocation-free path.
	hdr, err := r.Peek(4)
	if len(hdr) < 4 {
		if errors.Is(err, io.EOF) && len(hdr) == 0 {
			return buf[:0], io.EOF
		}
		return buf[:0], protoErrf("short frame header: %v", err) //mithra:coldpath error formatting on a broken stream
	}
	n := binary.BigEndian.Uint32(hdr)
	r.Discard(4) //nolint:errcheck // cannot fail: 4 bytes are buffered
	if n > MaxFrame {
		return buf[:0], &FrameTooLargeError{N: n} //mithra:coldpath error construction on an oversized frame
	}
	if uint64(cap(buf)) < uint64(n) {
		buf = make([]byte, n) //mithra:coldpath grow-only: a larger frame than any before on this buffer
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return buf[:0], protoErrf("truncated frame (want %d bytes): %v", n, err) //mithra:coldpath error formatting on a truncated frame
	}
	return buf, nil
}

// ParseDecideRequestInto decodes a msgDecideReq frame payload into req
// without allocating: the input vector reuses req.In's capacity and the
// benchmark name is returned as a sub-slice of payload for the caller to
// intern (it is valid only until the payload buffer is reused — req.Bench
// is NOT set here). Non-decide-request payloads, including valid frames
// of other types, return an ErrProtocol-wrapping error.
//
//mithra:hotpath
func ParseDecideRequestInto(payload []byte, req *DecideRequest) (bench []byte, err error) {
	if len(payload) < 3 || payload[2] != msgDecideReq {
		return nil, protoErrf("not a decide request frame")
	}
	return parseRequestInto(payload, req)
}

// parseRequestInto is the one decoder of a decide-shaped frame (the
// layout appendRequestBody writes): a msgDecideReq, or a msgForward, for
// which req.Forwarded is set and req.Orig carries the original client
// request ID. It allocates only to grow req.In; the benchmark name is
// returned as a sub-slice of payload and req.Bench is NOT set.
//
//mithra:hotpath
func parseRequestInto(payload []byte, req *DecideRequest) (bench []byte, err error) {
	if len(payload) < 3 || payload[0] != wireMagic ||
		(payload[1] != wireV1 && payload[1] != wireV2) ||
		(payload[2] != msgDecideReq && payload[2] != msgForward) {
		return nil, protoErrf("not a decide request or forward frame")
	}
	trail := 0
	if payload[1] == wireV2 {
		trail = 8
	}
	fwd := payload[2] == msgForward
	hdr := 4 // ID
	if fwd {
		hdr = 8 // ID, Orig
	}
	body := payload[3:]
	if len(body) < hdr+1 {
		return nil, protoErrf("decide request body %d bytes, want >= %d", len(body), hdr+1) //mithra:coldpath error formatting on a malformed frame
	}
	req.ID = binary.BigEndian.Uint32(body[:4])
	req.Forwarded = fwd
	req.Orig = 0
	if fwd {
		req.Orig = binary.BigEndian.Uint32(body[4:8])
	}
	nameLen := int(body[hdr])
	body = body[hdr+1:]
	if len(body) < nameLen+2 {
		return nil, protoErrf("decide request truncated inside bench name")
	}
	bench = body[:nameLen]
	body = body[nameLen:]
	dim := int(binary.BigEndian.Uint16(body[:2]))
	body = body[2:]
	if dim > MaxInputDim {
		return nil, protoErrf("input dim %d exceeds %d", dim, MaxInputDim) //mithra:coldpath error formatting on a malformed frame
	}
	if len(body) != 8*dim+trail {
		return nil, protoErrf("decide request input is %d bytes, want %d", len(body), 8*dim+trail) //mithra:coldpath error formatting on a malformed frame
	}
	in := req.In
	if cap(in) < dim {
		in = make([]float64, dim) //mithra:coldpath one-time input-vector growth; capacity is kept by the reused request
	}
	in = in[:dim]
	raw := body[:8*dim]
	for i := range in {
		in[i] = math.Float64frombits(binary.BigEndian.Uint64(raw))
		raw = raw[8:]
	}
	req.In = in
	req.TraceID = 0
	if trail != 0 {
		req.TraceID = binary.BigEndian.Uint64(body[8*dim:])
	}
	return bench, nil
}

// ParseDecideResponseInto decodes a msgDecideResp frame payload into
// resp without allocating. Error frames and other message types return
// an ErrProtocol-wrapping error (use ParseMessage to decode those).
//
//mithra:hotpath
func ParseDecideResponseInto(payload []byte, resp *DecideResponse) error {
	if len(payload) < 3 || payload[0] != wireMagic || payload[2] != msgDecideResp ||
		(payload[1] != wireV1 && payload[1] != wireV2) {
		return protoErrf("not a decide response frame")
	}
	trail := 0
	if payload[1] == wireV2 {
		trail = 8
	}
	body := payload[3:]
	if len(body) != 9+trail {
		return protoErrf("decide response body %d bytes, want %d", len(body), 9+trail) //mithra:coldpath error formatting on a malformed frame
	}
	resp.ID = binary.BigEndian.Uint32(body[:4])
	resp.Precise = body[4]&1 != 0
	resp.Sampled = body[4]&2 != 0
	resp.Fallback = body[4]&4 != 0
	resp.Version = binary.BigEndian.Uint32(body[5:9])
	resp.TraceID = 0
	if trail != 0 {
		resp.TraceID = binary.BigEndian.Uint64(body[9:])
	}
	return nil
}

// ParseMessage decodes one frame payload. It never panics: malformed
// payloads return an ErrProtocol-wrapping error.
func ParseMessage(payload []byte) (Message, error) {
	if len(payload) < 3 {
		return nil, protoErrf("payload %d bytes, want >= 3", len(payload))
	}
	if payload[0] != wireMagic {
		return nil, protoErrf("bad magic 0x%02x", payload[0])
	}
	if payload[1] != wireV1 && payload[1] != wireV2 {
		return nil, protoErrf("unsupported protocol version %d", payload[1])
	}
	trail := 0
	if payload[1] == wireV2 {
		trail = 8
	}
	body := payload[3:]
	switch payload[2] {
	case msgDecideReq, msgForward:
		req := &DecideRequest{}
		bench, err := parseRequestInto(payload, req)
		if err != nil {
			return nil, err
		}
		req.Bench = string(bench)
		return req, nil
	case msgDecideResp:
		resp := &DecideResponse{}
		if err := ParseDecideResponseInto(payload, resp); err != nil {
			return nil, err
		}
		return resp, nil
	case msgError:
		if len(body) < 7 {
			return nil, protoErrf("error body %d bytes, want >= 7", len(body))
		}
		msgLen := int(binary.BigEndian.Uint16(body[5:7]))
		if len(body) != 7+msgLen {
			return nil, protoErrf("error body %d bytes, want %d", len(body), 7+msgLen)
		}
		return &ErrorResponse{
			ID:   binary.BigEndian.Uint32(body[:4]),
			Code: body[4],
			Msg:  string(body[7:]),
		}, nil
	case msgPing:
		if len(body) != 0 {
			return nil, protoErrf("ping carries %d stray bytes", len(body))
		}
		return Ping{}, nil
	case msgPong:
		if len(body) != 0 {
			return nil, protoErrf("pong carries %d stray bytes", len(body))
		}
		return Pong{}, nil
	case msgFoldIn:
		bench, rest, err := parseClusterPrefix(body, trail, "fold-in")
		if err != nil {
			return nil, err
		}
		if len(rest) < 4 {
			return nil, protoErrf("fold-in body %d trailing bytes, want >= 4", len(rest))
		}
		return &FoldIn{Bench: bench, Version: binary.BigEndian.Uint32(rest[:4]),
			Table: append([]byte(nil), rest[4:]...)}, nil
	case msgFoldInAck:
		bench, rest, err := parseClusterPrefix(body, trail, "fold-in ack")
		if err != nil {
			return nil, err
		}
		if len(rest) != 5 {
			return nil, protoErrf("fold-in ack body %d trailing bytes, want 5", len(rest))
		}
		return &FoldInAck{Bench: bench, Version: binary.BigEndian.Uint32(rest[:4]), Status: rest[4]}, nil
	case msgCatchUp:
		bench, rest, err := parseClusterPrefix(body, trail, "catch-up request")
		if err != nil {
			return nil, err
		}
		if len(rest) != 4 {
			return nil, protoErrf("catch-up request body %d trailing bytes, want 4", len(rest))
		}
		return &CatchUpReq{Bench: bench, After: binary.BigEndian.Uint32(rest[:4])}, nil
	}
	return nil, protoErrf("unknown message type %d", payload[2])
}

// WriteMessage frames msg and writes it to w in one call.
func WriteMessage(w io.Writer, msg Message) error {
	frame, err := AppendFrame(nil, msg)
	if err != nil {
		return err
	}
	_, err = w.Write(frame)
	return err
}

// ReadMessage reads and parses one message from r.
func ReadMessage(r *bufio.Reader) (Message, error) {
	payload, err := ReadFrame(r)
	if err != nil {
		return nil, err
	}
	return ParseMessage(payload)
}
