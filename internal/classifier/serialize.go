package classifier

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"slices"

	"mithra/internal/bdi"
	"mithra/internal/misr"
	"mithra/internal/nn"
)

// The paper's compiler encodes MITHRA's configuration — the trained
// classifier state — into the program binary, and the loader restores it
// when the program is mapped (§III: "this training information is
// incorporated in the accelerator configuration and is loaded in the
// classifiers when the program is loaded to the memory for execution").
// This file implements that serialization: the table design stores its
// MISR configurations, projections, quantizer, and BDI-compressed
// bitsets; the neural design stores its network and scalers.

// init numbers the wire types in core.Deployment.Export's order; see
// nn's init.
func init() {
	enc := gob.NewEncoder(io.Discard)
	if err := enc.Encode(gobTable{}); err != nil {
		panic(err)
	}
	if err := enc.Encode(gobNeural{}); err != nil {
		panic(err)
	}
}

// gobTable is the wire form of a Table.
type gobTable struct {
	Cfg        TableConfig
	QuantMin   []float64
	QuantMax   []float64
	QuantBits  int
	MISRConfig []misr.Config
	Proj       [][]int
	// Compressed holds the BDI-compressed concatenated bitsets.
	Compressed []byte
}

// Encode serializes the table classifier, compressing the table contents
// with BDI exactly as the paper's binary encoding does.
func (t *Table) Encode() ([]byte, error) {
	g := gobTable{
		Cfg:       t.cfg,
		QuantMin:  t.quant.Min,
		QuantMax:  t.quant.Max,
		QuantBits: t.quant.Bits,
		Proj:      t.proj,
	}
	for _, h := range t.hashers {
		g.MISRConfig = append(g.MISRConfig, h.Config())
	}
	g.Compressed = bdi.Compress(t.RawBytes())
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(g); err != nil {
		return nil, fmt.Errorf("classifier: encode table: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeTable reverses Table.Encode, decompressing the table contents.
func DecodeTable(data []byte) (*Table, error) {
	var g gobTable
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&g); err != nil {
		return nil, fmt.Errorf("classifier: decode table: %w", err)
	}
	if err := g.Cfg.Validate(); err != nil {
		return nil, err
	}
	if len(g.MISRConfig) != g.Cfg.NumTables || len(g.Proj) != g.Cfg.NumTables {
		return nil, fmt.Errorf("classifier: table stream has %d MISR configs and %d projections for %d tables",
			len(g.MISRConfig), len(g.Proj), g.Cfg.NumTables)
	}
	// Check every size before anything is allocated from it, so a short
	// stream from a peer can claim neither gigabytes of table contents nor
	// a lookup table wider than MaxInputDim inputs.
	dim := len(g.QuantMin)
	if dim == 0 || len(g.QuantMax) != dim {
		return nil, fmt.Errorf("classifier: malformed quantizer in table stream")
	}
	if dim > MaxInputDim {
		return nil, fmt.Errorf("classifier: table stream quantizer has %d inputs, more than %d", dim, MaxInputDim)
	}
	n, err := bdi.DecodedLen(g.Compressed)
	if err != nil {
		return nil, fmt.Errorf("classifier: table contents: %w", err)
	}
	if want := g.Cfg.NumTables * g.Cfg.TableBytes; n != want {
		return nil, fmt.Errorf("classifier: table contents are %d bytes, want %d", n, want)
	}
	raw, err := bdi.Decompress(g.Compressed)
	if err != nil {
		return nil, fmt.Errorf("classifier: decompress table contents: %w", err)
	}
	if g.QuantBits < 1 || g.QuantBits > 16 {
		return nil, fmt.Errorf("classifier: quantizer bits %d out of range", g.QuantBits)
	}
	// Replicas decode tables pushed by peers, so nothing below may panic
	// later: every hasher is a pool MISR (which also bounds Steps), and
	// every projection gathers at most dim words from inside the input.
	pool := misr.Pool()
	for i, mc := range g.MISRConfig {
		if !slices.Contains(pool, mc) {
			return nil, fmt.Errorf("classifier: table %d MISR config %+v is not a pool entry", i, mc)
		}
		if len(g.Proj[i]) > dim {
			return nil, fmt.Errorf("classifier: table %d projects %d of %d inputs", i, len(g.Proj[i]), dim)
		}
		for _, p := range g.Proj[i] {
			if p < 0 || p >= dim {
				return nil, fmt.Errorf("classifier: table %d projects input %d of %d", i, p, dim)
			}
		}
	}
	t := &Table{
		cfg:     g.Cfg,
		quant:   &misr.Quantizer{Min: g.QuantMin, Max: g.QuantMax, Bits: g.QuantBits},
		hashers: make([]*misr.Hasher, g.Cfg.NumTables),
		proj:    g.Proj,
		bitsets: make([][]uint64, g.Cfg.NumTables),
	}
	width := g.Cfg.indexWidth()
	wordsPerTable := (g.Cfg.TableBytes*8 + 63) / 64
	for i := 0; i < g.Cfg.NumTables; i++ {
		t.hashers[i] = misr.NewHasher(g.MISRConfig[i], width)
		bs := make([]uint64, wordsPerTable)
		off := i * g.Cfg.TableBytes
		for w := range bs {
			var v uint64
			for b := 0; b < 8; b++ {
				v |= uint64(raw[off+w*8+b]) << (8 * b)
			}
			bs[w] = v
		}
		t.bitsets[i] = bs
	}
	if t.lut, err = newLUT(t.quant, t.hashers, t.proj); err != nil {
		return nil, err
	}
	return t, nil
}

// gobNeural is the wire form of a Neural classifier.
type gobNeural struct {
	Sizes    []int
	W        [][][]float64
	B        [][]float64
	ScaleMin []float64
	ScaleMax []float64
	Bias     float64
	Cycles   int
	EnergyPJ float64
}

// Encode serializes the neural classifier.
func (n *Neural) Encode() ([]byte, error) {
	g := gobNeural{
		Sizes:    n.net.Sizes,
		W:        n.net.W,
		B:        n.net.B,
		ScaleMin: n.inScale.Min,
		ScaleMax: n.inScale.Max,
		Bias:     n.bias,
		Cycles:   n.overhead.Cycles,
		EnergyPJ: n.overhead.EnergyPJ,
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(g); err != nil {
		return nil, fmt.Errorf("classifier: encode neural: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeNeural reverses Neural.Encode.
func DecodeNeural(data []byte) (*Neural, error) {
	var g gobNeural
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&g); err != nil {
		return nil, fmt.Errorf("classifier: decode neural: %w", err)
	}
	if len(g.Sizes) < 2 { // before Classification, which needs a layer count
		return nil, fmt.Errorf("classifier: malformed neural stream: %d layers", len(g.Sizes))
	}
	net := &nn.Network{
		Sizes: g.Sizes,
		Acts:  nn.Classification(len(g.Sizes) - 1),
		W:     g.W,
		B:     g.B,
	}
	if err := net.Validate(); err != nil {
		return nil, fmt.Errorf("classifier: malformed neural stream: %w", err)
	}
	// Classify compares the accelerate and precise output neurons.
	if out := g.Sizes[len(g.Sizes)-1]; out != 2 {
		return nil, fmt.Errorf("classifier: neural stream has %d output neurons, want 2", out)
	}
	if len(g.ScaleMin) != g.Sizes[0] || len(g.ScaleMax) != g.Sizes[0] {
		return nil, fmt.Errorf("classifier: neural scaler widths %d/%d, network input %d",
			len(g.ScaleMin), len(g.ScaleMax), g.Sizes[0])
	}
	return &Neural{
		net:      net,
		inScale:  &nn.Scaler{Min: g.ScaleMin, Max: g.ScaleMax},
		scratch:  net.NewScratch(),
		buf:      make([]float64, g.Sizes[0]),
		overhead: Overhead{Cycles: g.Cycles, EnergyPJ: g.EnergyPJ},
		bias:     g.Bias,
	}, nil
}
