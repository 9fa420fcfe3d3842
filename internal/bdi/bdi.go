// Package bdi implements Base-Delta-Immediate compression (Pekhimenko et
// al., PACT 2012 — reference [29] of the paper). MITHRA compresses the
// pre-trained contents of its table-based classifier with BDI before
// encoding them in the program binary, and decompresses them at load time;
// the paper reports 16x size reductions for the sparse tables of
// blackscholes/fft/inversek2j/jmeint and little gain for the dense tables
// of jpeg/sobel (Table II).
//
// The implementation is a real codec: Compress produces a byte stream and
// Decompress restores the original data exactly. Data is processed in
// 64-byte lines (the paper arranges the classifier tables in 64 B rows to
// reuse the cache-line mechanism). Each line independently picks the
// cheapest of: zero line, repeated 8-byte value, six base+delta geometries,
// or raw passthrough. BDI compression and decompression require only
// vector add/subtract/compare — the property that makes it viable in the
// table load path.
package bdi

import (
	"encoding/binary"
	"fmt"
)

// LineSize is the compression granularity in bytes.
const LineSize = 64

// Encoding identifies how one line is stored.
type Encoding uint8

// Line encodings, in the order compression attempts them.
const (
	EncZeros Encoding = iota // all-zero line
	EncRep8                  // one repeated 8-byte value
	EncB8D1                  // 8-byte base, 1-byte deltas
	EncB8D2                  // 8-byte base, 2-byte deltas
	EncB8D4                  // 8-byte base, 4-byte deltas
	EncB4D1                  // 4-byte base, 1-byte deltas
	EncB4D2                  // 4-byte base, 2-byte deltas
	EncB2D1                  // 2-byte base, 1-byte deltas
	EncRaw                   // uncompressed passthrough
)

func (e Encoding) String() string {
	names := [...]string{"zeros", "rep8", "b8d1", "b8d2", "b8d4", "b4d1", "b4d2", "b2d1", "raw"}
	if int(e) < len(names) {
		return names[e]
	}
	return fmt.Sprintf("Encoding(%d)", uint8(e))
}

// payloadSize returns the encoded payload bytes for each encoding (the
// 1-byte tag is extra).
func (e Encoding) payloadSize() int {
	switch e {
	case EncZeros:
		return 0
	case EncRep8:
		return 8
	case EncB8D1:
		return 8 + 8
	case EncB8D2:
		return 8 + 16
	case EncB8D4:
		return 8 + 32
	case EncB4D1:
		return 4 + 16
	case EncB4D2:
		return 4 + 32
	case EncB2D1:
		return 2 + 32
	default:
		return LineSize
	}
}

// DecompressCycles models the latency of expanding one line of the given
// encoding: zero/repeat lines are a fill, base+delta lines need a vector
// add (the paper's "few arithmetic operations").
func (e Encoding) DecompressCycles() int {
	switch e {
	case EncZeros, EncRep8:
		return 1
	case EncRaw:
		return 1
	default:
		return 2
	}
}

type geometry struct {
	enc       Encoding
	base, del int
}

var geometries = []geometry{
	{EncB8D1, 8, 1},
	{EncB4D1, 4, 1},
	{EncB2D1, 2, 1},
	{EncB8D2, 8, 2},
	{EncB4D2, 4, 2},
	{EncB8D4, 8, 4},
}

// Compress encodes data (padded with zeros to a whole number of lines)
// and returns the compressed stream. The layout is a sequence of
// [tag byte][payload] records plus an 8-byte header holding the original
// length.
func Compress(data []byte) []byte {
	out := make([]byte, 8, 8+len(data)/2)
	binary.LittleEndian.PutUint64(out, uint64(len(data)))
	var line [LineSize]byte
	for off := 0; off < len(data); off += LineSize {
		n := copy(line[:], data[off:])
		for i := n; i < LineSize; i++ {
			line[i] = 0
		}
		out = appendLine(out, line[:])
	}
	return out
}

func appendLine(out []byte, line []byte) []byte {
	if isZero(line) {
		return append(out, byte(EncZeros))
	}
	if v, ok := repeated8(line); ok {
		out = append(out, byte(EncRep8))
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], v)
		return append(out, buf[:]...)
	}
	// Try geometries cheapest-first.
	best := geometry{enc: EncRaw}
	bestSize := LineSize + 1
	for _, g := range geometries {
		if size := g.enc.payloadSize() + 1; size < bestSize && fitsGeometry(line, g) {
			best = g
			bestSize = size
		}
	}
	if best.enc == EncRaw {
		out = append(out, byte(EncRaw))
		return append(out, line...)
	}
	return appendBaseDelta(out, line, best)
}

func isZero(line []byte) bool {
	for _, b := range line {
		if b != 0 {
			return false
		}
	}
	return true
}

func repeated8(line []byte) (uint64, bool) {
	v := binary.LittleEndian.Uint64(line)
	for off := 8; off < LineSize; off += 8 {
		if binary.LittleEndian.Uint64(line[off:]) != v {
			return 0, false
		}
	}
	return v, true
}

func readValue(line []byte, off, size int) uint64 {
	switch size {
	case 2:
		return uint64(binary.LittleEndian.Uint16(line[off:]))
	case 4:
		return uint64(binary.LittleEndian.Uint32(line[off:]))
	default:
		return binary.LittleEndian.Uint64(line[off:])
	}
}

func fitsGeometry(line []byte, g geometry) bool {
	base := readValue(line, 0, g.base)
	limit := int64(1) << uint(8*g.del-1)
	for off := 0; off < LineSize; off += g.base {
		d := int64(readValue(line, off, g.base) - base)
		// The subtraction wraps modulo 2^(8*base); interpret deltas within
		// the base width.
		if g.base < 8 {
			// Sign-extend within base width.
			shift := uint(64 - 8*g.base)
			d = int64(uint64(d)<<shift) >> shift
		}
		if d < -limit || d >= limit {
			return false
		}
	}
	return true
}

func appendBaseDelta(out []byte, line []byte, g geometry) []byte {
	out = append(out, byte(g.enc))
	var buf [8]byte
	base := readValue(line, 0, g.base)
	binary.LittleEndian.PutUint64(buf[:], base)
	out = append(out, buf[:g.base]...)
	for off := 0; off < LineSize; off += g.base {
		d := readValue(line, off, g.base) - base
		binary.LittleEndian.PutUint64(buf[:], d)
		out = append(out, buf[:g.del]...)
	}
	return out
}

// DecodedLen returns the decompressed size a Compress stream declares in
// its header, without decoding or allocating it. Every line costs at
// least its one-byte tag, so a stream cannot declare more than LineSize
// bytes per byte that follows the header.
func DecodedLen(comp []byte) (int, error) {
	if len(comp) < 8 {
		return 0, fmt.Errorf("bdi: stream too short (%d bytes)", len(comp))
	}
	total := binary.LittleEndian.Uint64(comp)
	if total > uint64(len(comp)-8)*LineSize {
		return 0, fmt.Errorf("bdi: %d-byte stream cannot hold %d bytes", len(comp), total)
	}
	return int(total), nil
}

// Decompress restores the original data from a Compress stream.
func Decompress(comp []byte) ([]byte, error) {
	total, err := DecodedLen(comp)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, total)
	pos := 8
	for len(out) < total {
		if pos >= len(comp) {
			return nil, fmt.Errorf("bdi: truncated stream at line %d", len(out)/LineSize)
		}
		enc := Encoding(comp[pos])
		pos++
		var line [LineSize]byte
		pos, err = decodeLine(comp, pos, enc, &line)
		if err != nil {
			return nil, err
		}
		out = append(out, line[:]...)
	}
	return out[:total], nil
}

func decodeLine(comp []byte, pos int, enc Encoding, line *[LineSize]byte) (int, error) {
	need := enc.payloadSize()
	if pos+need > len(comp) {
		return pos, fmt.Errorf("bdi: truncated %v payload", enc)
	}
	switch enc {
	case EncZeros:
		// line is already zeroed.
	case EncRep8:
		v := comp[pos : pos+8]
		for off := 0; off < LineSize; off += 8 {
			copy(line[off:], v)
		}
	case EncRaw:
		copy(line[:], comp[pos:pos+LineSize])
	case EncB8D1, EncB8D2, EncB8D4, EncB4D1, EncB4D2, EncB2D1:
		g, ok := geometryFor(enc)
		if !ok {
			return pos, fmt.Errorf("bdi: unknown encoding %d", enc)
		}
		var buf [8]byte
		copy(buf[:], comp[pos:pos+g.base])
		base := binary.LittleEndian.Uint64(buf[:])
		dpos := pos + g.base
		for off := 0; off < LineSize; off += g.base {
			var dbuf [8]byte
			copy(dbuf[:], comp[dpos:dpos+g.del])
			d := binary.LittleEndian.Uint64(dbuf[:])
			// Sign-extend the delta.
			shift := uint(64 - 8*g.del)
			sd := int64(d<<shift) >> shift
			v := base + uint64(sd)
			binary.LittleEndian.PutUint64(dbuf[:], v)
			copy(line[off:off+g.base], dbuf[:g.base])
			dpos += g.del
		}
	default:
		return pos, fmt.Errorf("bdi: unknown encoding %d", enc)
	}
	return pos + need, nil
}

func geometryFor(enc Encoding) (geometry, bool) {
	for _, g := range geometries {
		if g.enc == enc {
			return g, true
		}
	}
	return geometry{}, false
}

// CompressedSize returns len(Compress(data)) without materializing the
// full stream (it still scans the data).
func CompressedSize(data []byte) int {
	return len(Compress(data))
}

// Ratio returns the compression ratio original/compressed; values above 1
// mean the data shrank.
func Ratio(data []byte) float64 {
	if len(data) == 0 {
		return 1
	}
	return float64(len(data)) / float64(CompressedSize(data))
}

// Stats summarizes a compressed stream's encoding mix and the modeled
// decompression cost.
type Stats struct {
	Lines            int
	PerEncoding      map[Encoding]int
	CompressedBytes  int
	OriginalBytes    int
	DecompressCycles int
}

// Analyze compresses data and reports per-encoding statistics.
func Analyze(data []byte) Stats {
	comp := Compress(data)
	st := Stats{
		PerEncoding:     map[Encoding]int{},
		CompressedBytes: len(comp),
		OriginalBytes:   len(data),
	}
	pos := 8
	for pos < len(comp) {
		enc := Encoding(comp[pos])
		st.PerEncoding[enc]++
		st.Lines++
		st.DecompressCycles += enc.DecompressCycles()
		pos += 1 + enc.payloadSize()
	}
	return st
}
