package serve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

// payloadOf returns n distinguishable payload bytes.
func payloadOf(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*7 + n)
	}
	return p
}

// sameArray reports whether a and b share their first backing byte.
func sameArray(a, b []byte) bool {
	return cap(a) > 0 && cap(b) > 0 && &a[:1][0] == &b[:1][0]
}

// TestReadFrameIntoReusesCapacity pins ReadFrameInto's buffer contract:
// a frame that fits is read into the caller's buffer, a larger one grows
// it, the grown capacity is kept for later frames, and every error
// returns buf[:0] with the capacity intact.
func TestReadFrameIntoReusesCapacity(t *testing.T) {
	type read struct {
		want  []byte           // payload on success
		err   func(error) bool // nil: the read succeeds
		reuse bool             // the result shares the passed buffer's array
	}
	isEOF := func(err error) bool { return err == io.EOF }
	isProto := func(err error) bool {
		var tooLarge *FrameTooLargeError
		return errors.Is(err, ErrProtocol) && !errors.As(err, &tooLarge)
	}
	isTooLarge := func(err error) bool {
		var tooLarge *FrameTooLargeError
		return errors.As(err, &tooLarge) && tooLarge.N == MaxFrame+1
	}
	unread := []byte{'M', 1, 3}
	cases := []struct {
		name      string
		cap       int
		stream    []byte
		reads     []read
		rest      []byte // bytes left unread after the reads
		zeroAlloc bool   // replaying the stream into the final buffer allocates nothing
	}{
		{
			name:      "fitting frame",
			cap:       64,
			stream:    frameFor(payloadOf(10)),
			reads:     []read{{want: payloadOf(10), reuse: true}},
			zeroAlloc: true,
		},
		{
			name:   "larger frame grows, smaller keeps the grown capacity",
			cap:    8,
			stream: append(frameFor(payloadOf(100)), frameFor(payloadOf(5))...),
			reads: []read{
				{want: payloadOf(100)},
				{want: payloadOf(5), reuse: true},
			},
			zeroAlloc: true,
		},
		{
			name:  "clean EOF",
			cap:   64,
			reads: []read{{err: isEOF, reuse: true}},
		},
		{
			name:   "truncated frame",
			cap:    64,
			stream: frameFor(payloadOf(40))[:4+10],
			reads:  []read{{err: isProto, reuse: true}},
		},
		{
			name:   "oversized frame",
			cap:    64,
			stream: append(binary.BigEndian.AppendUint32(nil, MaxFrame+1), unread...),
			reads:  []read{{err: isTooLarge, reuse: true}},
			rest:   unread,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := bytes.NewReader(tc.stream)
			br := bufio.NewReader(src)
			buf := make([]byte, 0, tc.cap)
			for i, rd := range tc.reads {
				got, err := ReadFrameInto(br, buf)
				switch {
				case rd.err == nil && err != nil:
					t.Fatalf("read %d: %v", i, err)
				case rd.err != nil && !rd.err(err):
					t.Fatalf("read %d: unexpected error %v", i, err)
				case rd.err != nil && (len(got) != 0 || cap(got) != cap(buf)):
					t.Fatalf("read %d: error returned len=%d cap=%d, want len=0 cap=%d", i, len(got), cap(got), cap(buf))
				case rd.err == nil && !bytes.Equal(got, rd.want):
					t.Fatalf("read %d: payload %v, want %v", i, got, rd.want)
				case sameArray(got, buf) != rd.reuse:
					t.Fatalf("read %d: reused the buffer = %v, want %v", i, !rd.reuse, rd.reuse)
				}
				buf = got
			}
			rest, err := io.ReadAll(br)
			if err != nil || !bytes.Equal(rest, tc.rest) {
				t.Fatalf("left unread %v (err %v), want %v", rest, err, tc.rest)
			}
			if !tc.zeroAlloc || raceEnabled {
				return
			}
			if avg := testing.AllocsPerRun(100, func() {
				src.Reset(tc.stream)
				br.Reset(src)
				for range tc.reads {
					if buf, err = ReadFrameInto(br, buf); err != nil {
						t.Fatal(err)
					}
				}
			}); avg != 0 {
				t.Fatalf("replaying into the grown buffer allocates %v per run, want 0", avg)
			}
		})
	}
}
