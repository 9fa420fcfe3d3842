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
