package classifier

import (
	"fmt"
	"math/bits"

	"mithra/internal/bdi"
	"mithra/internal/misr"
)

// Combine selects how the per-table bits merge into one decision.
type Combine int

const (
	// CombineAny falls back to the precise function when any table flags
	// the input — the paper's OR gate ("MITHRA directs the core to run
	// the original function even if a single table determines that the
	// precise code should be executed"). Combined with per-table element
	// projections (the pool's bit-selection reconfigurability), the OR
	// lets differently-projected tables catch unseen bad inputs that
	// share structure with trained ones, at the cost of aliasing-induced
	// false positives — the conservative, quality-first bias the paper
	// describes. Default.
	CombineAny Combine = iota
	// CombineAll falls back only when every table agrees (ablation: it
	// minimizes false positives but misses unseen bad inputs).
	CombineAll
	// CombineMajority falls back when more than half the tables flag the
	// input (ablation).
	CombineMajority
)

func (c Combine) String() string {
	switch c {
	case CombineAll:
		return "all"
	case CombineAny:
		return "any"
	case CombineMajority:
		return "majority"
	}
	return fmt.Sprintf("Combine(%d)", int(c))
}

// Hardware cost constants for the table design (45 nm): the MISRs hash
// while the core is already enqueuing elements into the accelerator FIFO,
// so the decision latency after the last element is small and flat.
const (
	tableDecisionCycles = 4
	misrPerElementPJ    = 0.4
	tableReadPJ         = 3.0
)

// TableConfig sizes the table-based classifier.
type TableConfig struct {
	// NumTables is the ensemble width (paper default: 8).
	NumTables int
	// TableBytes is the per-table size in bytes; each byte holds 8
	// single-bit entries (paper default: 512 = 0.5 KB -> 4096 entries).
	TableBytes int
	// Combine selects the ensemble combination rule.
	Combine Combine
	// QuantBits is the fixed-point width per input element fed to the
	// MISRs. Coarser quantization makes recurring input patterns hash
	// identically across datasets, which is what lets the table
	// generalize; 6 bits matches the table sizes the hardware indexes.
	QuantBits int
	// Project enables per-table input-element selection (the paper's
	// MISR "bit selection" reconfigurability): each table hashes a
	// different subset of the elements, so the OR of the ensemble
	// recognizes unseen inputs that share sub-patterns with trained bad
	// inputs. Automatically disabled for kernels with <= 4 inputs.
	Project bool
}

// DefaultTableConfig returns the paper's Pareto-optimal geometry — eight
// tables of 0.5 KB each — with majority combination. The paper's prose
// describes an OR gate, but its reported operating point (22% false
// positives, 5% false negatives, table invocation ~18 points below the
// oracle at 5% loss) is reproduced by majority voting, while a literal OR
// of eight tables is far more conservative at this table size; the
// abl-combine experiment quantifies all three rules.
func DefaultTableConfig() TableConfig {
	return TableConfig{NumTables: 8, TableBytes: 512, Combine: CombineMajority, QuantBits: 6, Project: true}
}

// indexWidth returns log2 of the entry count.
func (c TableConfig) indexWidth() int {
	entries := c.TableBytes * 8
	w := bits.Len(uint(entries)) - 1
	if 1<<uint(w) != entries {
		panic(fmt.Sprintf("classifier: table entries %d not a power of two", entries))
	}
	return w
}

// Validate reports configuration errors.
func (c TableConfig) Validate() error {
	if c.NumTables < 1 || c.NumTables > len(misr.Pool()) {
		return fmt.Errorf("classifier: NumTables %d outside [1,%d]", c.NumTables, len(misr.Pool()))
	}
	if c.TableBytes < 2 {
		return fmt.Errorf("classifier: TableBytes %d too small", c.TableBytes)
	}
	entries := c.TableBytes * 8
	if entries&(entries-1) != 0 {
		return fmt.Errorf("classifier: table entry count %d must be a power of two", entries)
	}
	if entries > 1<<16 {
		return fmt.Errorf("classifier: table entry count %d needs a MISR index wider than 16 bits", entries)
	}
	return nil
}

// Table is the table-based classifier: an ensemble of single-bit tables,
// each indexed by its own MISR configuration (feedback taps + element
// selection) chosen greedily from the fixed pool.
type Table struct {
	cfg     TableConfig
	quant   *misr.Quantizer
	hashers []*misr.Hasher
	// proj[t] lists the input-element indices table t hashes.
	proj [][]int
	// bitsets[t] holds TableBytes*8 single-bit entries for table t.
	bitsets [][]uint64
	// lut computes every table's index at once; shared by clones.
	lut *lut
}

// projection returns the element subset pool configuration c hashes, for
// a kernel with dim inputs. Kernels with few inputs use every element;
// wide kernels give each configuration its own ~2/3 subset so the
// ensemble's OR generalizes across sub-patterns.
func projection(cfg TableConfig, c, dim int) []int {
	if !cfg.Project || dim <= 4 {
		idx := make([]int, dim)
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	var idx []int
	for i := 0; i < dim; i++ {
		if (i*31+c*17)%3 != 0 {
			idx = append(idx, i)
		}
	}
	if len(idx) < 2 {
		idx = []int{0, dim - 1}
	}
	return idx
}

// TrainTable pre-trains a table-based classifier from labeled samples
// (paper §IV-C1): the quantizer is calibrated on the sample inputs, MISR
// configurations are assigned greedily to minimize false decisions, and
// every bad sample sets its entry in every table. It is PrepareTable
// followed by TablePrep.Train.
func TrainTable(cfg TableConfig, samples []Sample) (*Table, error) {
	inputs := make([][]float64, len(samples))
	for i, s := range samples {
		inputs[i] = s.In
	}
	p, err := PrepareTable(cfg, inputs)
	if err != nil {
		return nil, err
	}
	return p.Train(cfg, samples)
}

// TablePrep is the label-free half of table training: the quantizer fit
// to the training inputs, every pool configuration's hasher and element
// projection, and every input's entry under every configuration. It
// depends only on the inputs and the geometry (QuantBits, TableBytes,
// Project), so candidates that differ in labels, Combine or NumTables
// share one. It is read-only after PrepareTable: concurrent Train calls
// are safe, and the tables they return share its quantizer and hashers.
type TablePrep struct {
	geom    TableConfig
	quant   *misr.Quantizer
	hashers []*misr.Hasher
	projs   [][]int
	// idx[c][s] is input s's entry in pool configuration c's table.
	idx [][]uint32
}

// PrepareTable fits the quantizer to inputs and indexes every input under
// every pool configuration (each with its own element projection), through
// one pool-wide lookup table.
func PrepareTable(cfg TableConfig, inputs [][]float64) (*TablePrep, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(inputs) == 0 {
		return nil, fmt.Errorf("classifier: no training samples")
	}
	if cfg.QuantBits == 0 {
		cfg.QuantBits = 6
	}
	if dim := len(inputs[0]); dim > MaxInputDim {
		return nil, fmt.Errorf("classifier: input dim %d exceeds %d", dim, MaxInputDim)
	}
	quant := misr.FitQuantizerBits(inputs, cfg.QuantBits)
	width := cfg.indexWidth()
	dim := quant.Dim()

	pool := misr.Pool()
	p := &TablePrep{
		geom:    cfg,
		quant:   quant,
		hashers: make([]*misr.Hasher, len(pool)),
		projs:   make([][]int, len(pool)),
		idx:     make([][]uint32, len(pool)),
	}
	for i, pc := range pool {
		p.hashers[i] = misr.NewHasher(pc, width)
		p.projs[i] = projection(cfg, i, dim)
		p.idx[i] = make([]uint32, len(inputs))
	}
	poolLUT, err := newLUT(quant, p.hashers, p.projs)
	if err != nil {
		return nil, err
	}
	for si, in := range inputs {
		sig := poolLUT.sign(in)
		for c := range pool {
			p.idx[c][si] = sig.index(c)
		}
	}
	return p, nil
}

// Train labels the prepared inputs with samples[i].Bad — samples must be
// the inputs PrepareTable saw, in order — and assigns cfg.NumTables
// configurations greedily under cfg.Combine. cfg's geometry must match
// the one the preparation was built for.
func (p *TablePrep) Train(cfg TableConfig, samples []Sample) (*Table, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.QuantBits == 0 {
		cfg.QuantBits = 6
	}
	if cfg.QuantBits != p.geom.QuantBits || cfg.TableBytes != p.geom.TableBytes || cfg.Project != p.geom.Project {
		return nil, fmt.Errorf("classifier: table geometry %+v differs from the prepared %+v", cfg, p.geom)
	}
	n := len(p.idx[0])
	if len(samples) != n {
		return nil, fmt.Errorf("classifier: %d samples for %d prepared inputs", len(samples), n)
	}

	// Per-config bad-entry bitsets (what the table would contain), and per
	// config the samples whose entry is set: hits[c] bit s is table c's
	// flag for sample s.
	words := (n + 63) / 64
	bad := make([]uint64, words)
	var badIdx []int
	for si, s := range samples {
		if s.Bad {
			bad[si/64] |= 1 << (si % 64)
			badIdx = append(badIdx, si)
		}
	}
	wordsPerTable := (cfg.TableBytes*8 + 63) / 64
	cfgBits := make([][]uint64, len(p.idx))
	hits := make([][]uint64, len(p.idx))
	for c, idx := range p.idx {
		bs := make([]uint64, wordsPerTable)
		for _, si := range badIdx {
			setBit(bs, idx[si])
		}
		h := make([]uint64, words)
		for w := range h {
			var word uint64
			for j, e := range idx[w*64 : min(n, w*64+64)] {
				word |= (bs[e/64] >> (e % 64) & 1) << j
			}
			h[w] = word
		}
		cfgBits[c], hits[c] = bs, h
	}

	chosen := assignGreedy(cfg.Combine, cfg.NumTables, hits, bad, n)
	t := &Table{
		cfg:     cfg,
		quant:   p.quant,
		hashers: make([]*misr.Hasher, cfg.NumTables),
		proj:    make([][]int, cfg.NumTables),
		bitsets: make([][]uint64, cfg.NumTables),
	}
	for i, c := range chosen {
		t.hashers[i] = p.hashers[c]
		t.proj[i] = p.projs[c]
		t.bitsets[i] = cfgBits[c]
	}
	var err error
	if t.lut, err = newLUT(p.quant, t.hashers, t.proj); err != nil {
		return nil, err
	}
	return t, nil
}

// assignGreedy picks tables configurations one at a time, each the one
// whose addition minimizes the ensemble's false decisions on the n
// training samples (paper: "the compiler assigns the first table the MISR
// configuration that incurs least aliasing; the second table ... the
// combination provides least false decisions; ..."). False positives (good
// samples flagged) and false negatives (bad samples missed — impossible
// under this training, but counted for robustness) weigh equally; ties go
// to the lowest configuration index.
//
// Everything runs on sample bitsets, 64 samples per word. atLeast[j]
// holds the samples at least j chosen tables flag. Every Combine rule is
// monotone in the flag count, so a trial ensemble of k tables sends a
// sample precise exactly when at least m of them flag it, m the rule's
// smallest firing count (combineFlags). With U = atLeast[m] (precise
// whether or not the candidate flags it) and T = atLeast[m-1] (precise if
// it does), candidate c, flagging hits[c], sends U | (T & hits[c])
// precise, and its false decisions are that set's symmetric difference
// with bad.
func assignGreedy(comb Combine, tables int, hits [][]uint64, bad []uint64, n int) []int {
	words := len(bad)
	// atLeast[0] is every sample; atLeast[j] for j above the chosen count
	// stays empty.
	atLeast := make([][]uint64, tables+2)
	for j := range atLeast {
		atLeast[j] = make([]uint64, words)
	}
	for s := 0; s < n; s++ {
		atLeast[0][s/64] |= 1 << (s % 64)
	}
	used := make([]bool, len(hits))
	chosen := make([]int, 0, tables)
	for len(chosen) < tables {
		k := len(chosen) + 1
		m := 0
		for m <= k && !combineFlags(comb, m, k) {
			m++
		}
		u, t := atLeast[m], atLeast[max(m-1, 0)]
		best, bestFalse := -1, 0
		for c, h := range hits {
			if used[c] {
				continue
			}
			f := 0
			for w, b := range bad {
				f += bits.OnesCount64((u[w] | t[w]&h[w]) ^ b)
			}
			if best == -1 || f < bestFalse {
				best, bestFalse = c, f
			}
		}
		chosen = append(chosen, best)
		used[best] = true
		// A sample the new table flags moves up one level.
		h := hits[best]
		for j := k; j >= 1; j-- {
			for w := range h {
				atLeast[j][w] |= atLeast[j-1][w] & h[w]
			}
		}
	}
	return chosen
}

func combineFlags(comb Combine, flags, tables int) bool {
	switch comb {
	case CombineAny:
		return flags > 0
	case CombineMajority:
		return flags*2 > tables
	default: // CombineAll
		return flags == tables
	}
}

func setBit(bs []uint64, idx uint32) {
	bs[idx/64] |= 1 << (idx % 64)
}

func getBit(bs []uint64, idx uint32) bool {
	return bs[idx/64]&(1<<(idx%64)) != 0
}

// Name implements Classifier.
func (*Table) Name() string { return "table" }

// Classify implements Classifier: index the input under every table at
// once through the lookup table — the software form of the paper's MISRs
// hashing in parallel — and combine the single-bit reads. A decision
// allocates nothing.
//
//mithra:hotpath
func (t *Table) Classify(in []float64) bool {
	sig := t.lut.sign(in)
	flags := 0
	for i, bs := range t.bitsets {
		if getBit(bs, sig.index(i)) {
			flags++
		}
	}
	return combineFlags(t.cfg.Combine, flags, len(t.bitsets))
}

// ClassifyBatch sets dst[i] = Classify(ins[i]) for every input and
// returns the filled prefix; dst must be at least len(ins) long.
func (t *Table) ClassifyBatch(ins [][]float64, dst []bool) []bool {
	dst = dst[:len(ins)]
	for i, in := range ins {
		dst[i] = t.Classify(in)
	}
	return dst
}

// Update applies the online training rule (paper §IV-C1, "Online training
// for the table-based design"): after sporadically sampling the real
// accelerator error at runtime, a bad input sets its entry in every table
// — identical to the pre-training rule. Entries are never cleared; the
// pre-training strategy is conservative and monotone.
func (t *Table) Update(in []float64, bad bool) {
	if !bad {
		return
	}
	sig := t.lut.sign(in)
	for i, bs := range t.bitsets {
		setBit(bs, sig.index(i))
	}
}

// Overhead implements Classifier. Hashing overlaps with FIFO enqueue, so
// the added latency is flat; energy scales with the input width (MISR
// switching) and the ensemble width (table reads).
func (t *Table) Overhead() Overhead {
	return Overhead{
		Cycles: tableDecisionCycles,
		EnergyPJ: float64(len(t.hashers)) *
			(tableReadPJ + misrPerElementPJ*float64(t.quant.Dim())),
	}
}

// RawBytes serializes the table contents (uncompressed) — the input to
// BDI compression and the x-axis of the paper's Figure 11.
func (t *Table) RawBytes() []byte {
	out := make([]byte, 0, t.cfg.NumTables*t.cfg.TableBytes)
	for _, bs := range t.bitsets {
		for _, w := range bs {
			for b := 0; b < 8; b++ {
				out = append(out, byte(w>>(8*b)))
			}
		}
	}
	return out
}

// SizeBytes implements Classifier: the BDI-compressed footprint encoded
// into the binary (Table II).
func (t *Table) SizeBytes() int {
	return bdi.CompressedSize(t.RawBytes())
}

// UncompressedBytes returns the raw table storage.
func (t *Table) UncompressedBytes() int {
	return t.cfg.NumTables * t.cfg.TableBytes
}

// Density returns the fraction of set bits across the ensemble — sparse
// tables compress well (Table II's 16x cases), dense ones do not.
func (t *Table) Density() float64 {
	set, total := 0, 0
	for _, bs := range t.bitsets {
		for _, w := range bs {
			set += bits.OnesCount64(w)
		}
		total += len(bs) * 64
	}
	if total == 0 {
		return 0
	}
	return float64(set) / float64(total)
}

// Config returns the classifier's configuration.
func (t *Table) Config() TableConfig { return t.cfg }

// InputDim returns the input vector width the table was fit for —
// Classify and Update expect inputs of exactly this length.
func (t *Table) InputDim() int { return t.quant.Dim() }

// Clone returns a copy whose online updates do not affect the original
// (used to evaluate online training without mutating the deployed
// classifier). Only the bitsets are copied; the read-only quantizer,
// hashers, projections and lookup table are shared.
func (t *Table) Clone() *Table {
	c := &Table{
		cfg:     t.cfg,
		quant:   t.quant,
		hashers: t.hashers,
		proj:    t.proj,
		bitsets: make([][]uint64, len(t.bitsets)),
		lut:     t.lut,
	}
	for i, bs := range t.bitsets {
		c.bitsets[i] = append([]uint64(nil), bs...)
	}
	return c
}

// ConcurrentView implements ConcurrentViewer: a clone decides
// identically to the original while owning the only mutable state, the
// bitsets, so one worker can classify with it while others use their own
// views.
func (t *Table) ConcurrentView() Classifier { return t.Clone() }

var (
	_ Classifier       = (*Table)(nil)
	_ ConcurrentViewer = (*Table)(nil)
)
