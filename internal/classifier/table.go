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
// every bad sample sets its entry in every table.
func TrainTable(cfg TableConfig, samples []Sample) (*Table, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("classifier: no training samples")
	}
	if cfg.QuantBits == 0 {
		cfg.QuantBits = 6
	}
	if dim := len(samples[0].In); dim > MaxInputDim {
		return nil, fmt.Errorf("classifier: input dim %d exceeds %d", dim, MaxInputDim)
	}
	inputs := make([][]float64, len(samples))
	for i, s := range samples {
		inputs[i] = s.In
	}
	quant := misr.FitQuantizerBits(inputs, cfg.QuantBits)
	width := cfg.indexWidth()
	dim := quant.Dim()

	// Pre-hash every sample under every pool configuration (each with its
	// own element projection), through one pool-wide lookup table.
	pool := misr.Pool()
	hashers := make([]*misr.Hasher, len(pool))
	projs := make([][]int, len(pool))
	for i, pc := range pool {
		hashers[i] = misr.NewHasher(pc, width)
		projs[i] = projection(cfg, i, dim)
	}
	poolLUT := newLUT(quant, hashers, projs)
	sampleIdx := make([][]uint32, len(pool))
	for c := range pool {
		sampleIdx[c] = make([]uint32, len(samples))
	}
	for si, s := range samples {
		sig := poolLUT.sign(s.In)
		for c := range pool {
			sampleIdx[c][si] = sig.index(c)
		}
	}

	// Per-config bad-entry bitsets (what the table would contain).
	entries := cfg.TableBytes * 8
	wordsPerTable := (entries + 63) / 64
	cfgBits := make([][]uint64, len(pool))
	for c := range pool {
		cfgBits[c] = make([]uint64, wordsPerTable)
		for si, s := range samples {
			if s.Bad {
				setBit(cfgBits[c], sampleIdx[c][si])
			}
		}
	}

	// Greedy assignment: pick the configuration that minimizes the
	// ensemble's false decisions after adding it (paper: "the compiler
	// assigns the first table the MISR configuration that incurs least
	// aliasing; the second table ... the combination provides least false
	// decisions; ...").
	chosen := make([]int, 0, cfg.NumTables)
	used := make([]bool, len(pool))
	for len(chosen) < cfg.NumTables {
		bestC, bestFalse := -1, -1
		for c := range pool {
			if used[c] {
				continue
			}
			trial := append(append([]int(nil), chosen...), c)
			f := countFalseDecisions(cfg.Combine, trial, cfgBits, sampleIdx, samples)
			if bestC == -1 || f < bestFalse {
				bestC, bestFalse = c, f
			}
		}
		chosen = append(chosen, bestC)
		used[bestC] = true
	}

	t := &Table{
		cfg:     cfg,
		quant:   quant,
		hashers: make([]*misr.Hasher, cfg.NumTables),
		proj:    make([][]int, cfg.NumTables),
		bitsets: make([][]uint64, cfg.NumTables),
	}
	for i, c := range chosen {
		t.hashers[i] = hashers[c]
		t.proj[i] = projs[c]
		t.bitsets[i] = cfgBits[c]
	}
	t.lut = newLUT(quant, t.hashers, t.proj)
	return t, nil
}

// countFalseDecisions evaluates an ensemble candidate on the training set.
// False positives (good samples flagged) and false negatives (bad samples
// missed — impossible under this training, but counted for robustness)
// are weighted equally, matching the paper's "least false decisions".
func countFalseDecisions(comb Combine, cfgs []int, cfgBits [][]uint64, sampleIdx [][]uint32, samples []Sample) int {
	falseCount := 0
	for si, s := range samples {
		flags := 0
		for _, c := range cfgs {
			if getBit(cfgBits[c], sampleIdx[c][si]) {
				flags++
			}
		}
		precise := combineFlags(comb, flags, len(cfgs))
		if precise != s.Bad {
			falseCount++
		}
	}
	return falseCount
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
