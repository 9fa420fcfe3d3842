package serve

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"
)

// frameFor builds a valid frame around a raw payload (for seeds).
func frameFor(payload []byte) []byte {
	out := []byte{byte(len(payload) >> 24), byte(len(payload) >> 16),
		byte(len(payload) >> 8), byte(len(payload))}
	return append(out, payload...)
}

// FuzzParseMessage feeds arbitrary frame payloads to the codec: it must
// never panic — every malformed payload returns an ErrProtocol-wrapping
// error — and every payload that does parse must re-encode and re-parse
// to the same message (the codec is its own inverse on its image).
func FuzzParseMessage(f *testing.F) {
	valid, _ := AppendFrame(nil, &DecideRequest{ID: 7, Bench: "sobel", In: []float64{1, 2, 3}})
	f.Add(valid[4:])
	traced, _ := AppendFrame(nil, &DecideRequest{ID: 7, Bench: "sobel", In: []float64{1, 2, 3}, TraceID: 0xDEADBEEF})
	f.Add(traced[4:])
	resp, _ := AppendFrame(nil, &DecideResponse{ID: 9, Precise: true, Sampled: true, Version: 3})
	f.Add(resp[4:])
	tresp, _ := AppendFrame(nil, &DecideResponse{ID: 9, Precise: true, Version: 3, TraceID: 1})
	f.Add(tresp[4:])
	errf, _ := AppendFrame(nil, &ErrorResponse{ID: 1, Code: CodeMalformed, Msg: "x"})
	f.Add(errf[4:])
	fwd, _ := AppendFrame(nil, &DecideRequest{ID: 11, Orig: 7, Forwarded: true, Bench: "sobel", In: []float64{1, 2, 3}})
	f.Add(fwd[4:])
	tfwd, _ := AppendFrame(nil, &DecideRequest{ID: 11, Orig: 7, Forwarded: true, Bench: "sobel", In: []float64{1}, TraceID: 5})
	f.Add(tfwd[4:])
	fold, err := syntheticSnapshot(f, "sobel", nil).FoldIn()
	if err != nil {
		f.Fatal(err)
	}
	fold.Version = 2
	table, _ := AppendFrame(nil, fold)
	f.Add(table[4:])
	empty, _ := AppendFrame(nil, &FoldIn{Bench: "sobel", Version: 2})
	f.Add(empty[4:])
	ack, _ := AppendFrame(nil, &FoldInAck{Bench: "sobel", Version: 2, Status: FoldApplied})
	f.Add(ack[4:])
	cu, _ := AppendFrame(nil, &CatchUpReq{Bench: "sobel", After: 1})
	f.Add(cu[4:])
	f.Add([]byte{})
	f.Add([]byte{'M', 1, 99})
	f.Add([]byte{'M', 2, 1})
	f.Add([]byte{'X', 1, 1})
	f.Add([]byte{'M', 1, 1, 0, 0, 0, 1, 255})
	f.Fuzz(func(t *testing.T, payload []byte) {
		msg, err := ParseMessage(payload)
		if err != nil {
			if !errors.Is(err, ErrProtocol) {
				t.Fatalf("parse error does not wrap ErrProtocol: %v", err)
			}
			return
		}
		frame, err := AppendFrame(nil, msg)
		if err != nil {
			t.Fatalf("parsed message does not re-encode: %v", err)
		}
		back, err := ParseMessage(frame[4:])
		if err != nil {
			t.Fatalf("re-encoded message does not parse: %v", err)
		}
		if !messagesEqual(msg, back) {
			t.Fatalf("round trip mismatch: %#v != %#v", msg, back)
		}
	})
}

// messagesEqual compares parsed messages with NaN-tolerant float
// comparison (the wire carries raw IEEE-754 bits, so NaN payloads must
// survive bit-exactly, but reflect.DeepEqual calls NaN != NaN).
func messagesEqual(a, b Message) bool {
	ra, ok := a.(*DecideRequest)
	if !ok {
		return reflect.DeepEqual(a, b)
	}
	rb, ok := b.(*DecideRequest)
	if !ok || ra.ID != rb.ID || ra.Bench != rb.Bench || ra.TraceID != rb.TraceID ||
		ra.Orig != rb.Orig || ra.Forwarded != rb.Forwarded {
		return false
	}
	return floatsEqual(ra.In, rb.In)
}

// floatsEqual compares float slices by raw IEEE-754 bits.
func floatsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// FuzzReadFrame feeds arbitrary byte streams to the frame reader: it
// must never panic, and every failure is either a clean io.EOF or an
// ErrProtocol-wrapping error.
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0, 0, 0, 5, 'M', 1})                // truncated payload
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})            // 4 GiB length prefix
	f.Add(frameFor([]byte{'M', 1, 3}))               // valid ping
	f.Add(append(frameFor([]byte{'M', 1, 4}), 1, 2)) // pong + trailing junk
	f.Fuzz(func(t *testing.T, stream []byte) {
		r := bufio.NewReader(bytes.NewReader(stream))
		for {
			payload, err := ReadFrame(r)
			if err != nil {
				if errors.Is(err, io.EOF) || errors.Is(err, ErrProtocol) {
					return
				}
				t.Fatalf("unexpected error class: %v", err)
			}
			if len(payload) > MaxFrame {
				t.Fatalf("oversize payload slipped through: %d", len(payload))
			}
		}
	})
}

// FuzzDecideRequestRoundTrip drives the request encoder with arbitrary
// content: whatever the client can frame, the parser must reproduce
// bit-exactly.
func FuzzDecideRequestRoundTrip(f *testing.F) {
	f.Add(uint32(0), "", uint64(0), []byte{})
	f.Add(uint32(1), "sobel", uint64(0), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint32(1<<31), "fft", uint64(0xABCDEF0123456789), bytes.Repeat([]byte{0xFF}, 16))
	f.Fuzz(func(t *testing.T, id uint32, bench string, trace uint64, raw []byte) {
		in := make([]float64, len(raw)/8)
		for i := range in {
			var bits uint64
			for b := 0; b < 8; b++ {
				bits = bits<<8 | uint64(raw[8*i+b])
			}
			in[i] = math.Float64frombits(bits)
		}
		frame, err := AppendFrame(nil, &DecideRequest{ID: id, Bench: bench, In: in, TraceID: trace})
		if err != nil {
			if !errors.Is(err, ErrProtocol) {
				t.Fatalf("encode error does not wrap ErrProtocol: %v", err)
			}
			return // oversized name/dim rejected at encode time
		}
		payload, err := ReadFrame(bufio.NewReader(bytes.NewReader(frame)))
		if err != nil {
			t.Fatalf("own frame does not read back: %v", err)
		}
		msg, err := ParseMessage(payload)
		if err != nil {
			t.Fatalf("own frame does not parse: %v", err)
		}
		back, ok := msg.(*DecideRequest)
		if !ok {
			t.Fatalf("parsed to %T", msg)
		}
		if back.ID != id || back.Bench != bench || back.TraceID != trace || len(back.In) != len(in) {
			t.Fatalf("header mismatch: %v %q trace=%x %d", back.ID, back.Bench, back.TraceID, len(back.In))
		}
		for i := range in {
			if math.Float64bits(back.In[i]) != math.Float64bits(in[i]) {
				t.Fatalf("input %d: %x != %x", i, math.Float64bits(back.In[i]), math.Float64bits(in[i]))
			}
		}
	})
}
