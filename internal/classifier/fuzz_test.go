package classifier

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"math"
	"testing"

	"mithra/internal/bdi"
	"mithra/internal/mathx"
	"mithra/internal/misr"
)

// encodeGobTable encodes a hand-built wire form, for streams that
// Table.Encode cannot produce.
func encodeGobTable(tb testing.TB, g gobTable) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(g); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// oneTable is the wire form of a one-table classifier over a one-wide
// input, with all-zero contents.
func oneTable(cfg TableConfig, proj []int) gobTable {
	return gobTable{
		Cfg:      cfg,
		QuantMin: []float64{0}, QuantMax: []float64{1}, QuantBits: 6,
		MISRConfig: []misr.Config{misr.Pool()[0]},
		Proj:       [][]int{proj},
		Compressed: bdi.Compress(make([]byte, cfg.TableBytes)),
	}
}

// unboundedQuantizerStream is a one-table stream whose quantizer range
// is [NaN, +Inf]: every input would map to word 0, so one entry would
// decide everything.
func unboundedQuantizerStream(tb testing.TB) []byte {
	g := oneTable(TableConfig{NumTables: 1, TableBytes: 64}, []int{0})
	g.QuantMin, g.QuantMax = []float64{math.NaN()}, []float64{math.Inf(1)}
	return encodeGobTable(tb, g)
}

// hugeContentsStream is a well-formed one-table stream whose BDI header
// claims 4 GiB of table contents and carries nothing after it.
func hugeContentsStream(tb testing.TB) []byte {
	g := oneTable(TableConfig{NumTables: 1, TableBytes: 64}, []int{0})
	g.Compressed = binary.LittleEndian.AppendUint64(nil, 1<<32)
	return encodeGobTable(tb, g)
}

// FuzzDecodeTable feeds arbitrary streams to DecodeTable, which decodes
// tables pushed by cluster peers: it must never panic, and any table it
// accepts must classify dim-wide inputs — before and after an update —
// exactly as the per-table Hash reference does.
func FuzzDecodeTable(f *testing.F) {
	rng := mathx.NewRNG(31)
	tab, err := TrainTable(TableConfig{NumTables: 4, TableBytes: 64, Combine: CombineMajority, QuantBits: 6, Project: true},
		syntheticSamples(rng, 300, 6, 0.1))
	if err != nil {
		f.Fatal(err)
	}
	enc, err := tab.Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc)
	// 2^17 entries: passes the power-of-two check but needs a 17-bit
	// MISR index.
	f.Add(encodeGobTable(f, oneTable(TableConfig{NumTables: 1, TableBytes: 16384}, []int{0})))
	// A projection index past the one-wide input.
	f.Add(encodeGobTable(f, oneTable(TableConfig{NumTables: 1, TableBytes: 64}, []int{5})))
	// A repeated projection element and an empty projection: the lookup
	// rows must XOR both positions' images, and an empty table hashes to
	// its seed.
	f.Add(encodeGobTable(f, oneTable(TableConfig{NumTables: 1, TableBytes: 64}, []int{0, 0})))
	f.Add(encodeGobTable(f, oneTable(TableConfig{NumTables: 1, TableBytes: 64}, []int{})))
	f.Add(hugeContentsStream(f))
	f.Add(unboundedQuantizerStream(f))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeTable(data)
		if err != nil {
			return
		}
		dim := got.InputDim()
		ins := [][]float64{make([]float64, dim), make([]float64, dim), make([]float64, dim)}
		for d := 0; d < dim; d++ {
			ins[1][d] = float64(d%7) / 6
			ins[2][d] = math.NaN()
		}
		checkMatchesRef(t, "decoded", got, ins)
		got.Update(ins[1], true)
		checkMatchesRef(t, "decoded after update", got, ins)
	})
}

// FuzzSignMatchesReference holds the lookup-table kernel to the per-table
// Hash reference on arbitrary values and ranges: a table of 1–16 pool
// configurations at QuantBits 1–16 over boundaryQuant's features, with
// the first feature's range replaced by [lo, lo+width] when that is a
// valid quantizer range, indexes {x, x, x} exactly as the reference does.
func FuzzSignMatchesReference(f *testing.F) {
	f.Add(uint8(4), uint8(8), -1.0, 3.0, 0.5)
	f.Add(uint8(6), uint8(16), -1.0, 3.0, 1.0/3)
	f.Add(uint8(16), uint8(16), 0.1, 0.6, math.Nextafter(0.1+0.6/65535, 1))
	f.Add(uint8(1), uint8(1), 0.0, 1.0, math.Copysign(0, -1))
	f.Add(uint8(9), uint8(12), -4e-310, 8e-310, 0x1p-1074)
	f.Add(uint8(12), uint8(3), -1.0, 3.0, math.Inf(1))
	f.Add(uint8(3), uint8(5), -1.0, 3.0, math.NaN())
	f.Fuzz(func(t *testing.T, bits, tables uint8, lo, width, x float64) {
		q := boundaryQuant(1 + int(bits)%16)
		q.Min[0], q.Max[0] = lo, lo+width
		if q.Validate() != nil {
			q = boundaryQuant(q.Bits)
		}
		tab := boundaryTable(t, q, 1+int(tables)%16)
		checkMatchesRef(t, "fuzzed", tab, [][]float64{{x, x, x}})
	})
}
