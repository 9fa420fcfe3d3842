package serve

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
)

// The fold log is the WAL's third record family (DESIGN.md §15): the
// replication history of online fold-ins, one append per installed
// version, shared by home nodes (which originate fold-ins) and replicas
// (which apply them). It serves two masters:
//
//   - catch-up: any node can replay its fold log to answer a peer's
//     CatchUpReq for versions the peer missed while down;
//   - restart: a rebooting node replays its own log to learn which
//     versions it had applied, then asks a peer only for the gap.
//
// Durability discipline: one O_APPEND file, checksummed records,
// valid-prefix recovery that reports (never propagates) a torn tail.

// walFoldMagic opens every fold record ("MFLD").
const walFoldMagic = 0x4d464c44

// foldLogName is the single fold log inside a WAL directory.
const foldLogName = "fold.flog"

// AppendFoldIn appends one fold-in record — bench moved to version by
// folding inputs — to the fold log. Record layout:
//
//	magic(4) benchLen(1) bench version(4) count(2)
//	count × (dim(2) floats)  crc(4, Castagnoli over all prior bytes)
func (w *WAL) AppendFoldIn(bench string, version uint32, inputs [][]float64) error {
	if len(bench) > maxBenchName {
		return fmt.Errorf("serve: wal fold: bench name %d bytes exceeds %d", len(bench), maxBenchName)
	}
	if len(inputs) > maxFoldInInputs {
		return fmt.Errorf("serve: wal fold: %d inputs exceeds %d", len(inputs), maxFoldInInputs)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.fold == nil {
		f, err := os.OpenFile(filepath.Join(w.dir, foldLogName),
			os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("serve: wal fold: %w", err)
		}
		w.fold = f
	}
	size := 4 + 1 + len(bench) + 4 + 2 + 4
	for _, in := range inputs {
		size += 2 + 8*len(in)
	}
	buf := make([]byte, 0, size)
	buf = binary.BigEndian.AppendUint32(buf, walFoldMagic)
	buf = append(buf, byte(len(bench)))
	buf = append(buf, bench...)
	buf = binary.BigEndian.AppendUint32(buf, version)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(inputs)))
	for _, in := range inputs {
		if len(in) > MaxInputDim {
			return fmt.Errorf("serve: wal fold: input dim %d exceeds %d", len(in), MaxInputDim)
		}
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(in)))
		for _, v := range in {
			buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(v))
		}
	}
	buf = binary.BigEndian.AppendUint32(buf, crc32.Checksum(buf, walCRC))
	if _, err := w.fold.Write(buf); err != nil {
		return fmt.Errorf("serve: wal fold append: %w", err)
	}
	return nil
}

// ReadFoldIns replays the fold log: per-benchmark fold-ins in append
// order (ascending versions, since appends follow installs). A torn or
// corrupt tail truncates the replay at the last valid record and is
// reported in skipped; a missing log is simply empty. Call before the
// first AppendFoldIn — typically at boot, alongside Recover.
func (w *WAL) ReadFoldIns() (folds map[string][]FoldIn, skipped string) {
	raw, err := os.ReadFile(filepath.Join(w.dir, foldLogName))
	if err != nil {
		if os.IsNotExist(err) {
			return map[string][]FoldIn{}, ""
		}
		return map[string][]FoldIn{}, err.Error()
	}
	folds = map[string][]FoldIn{}
	for off := 0; off < len(raw); {
		rec, n, bad := parseFoldRecord(raw[off:])
		if bad != "" {
			return folds, fmt.Sprintf("%s at byte %d", bad, off)
		}
		folds[rec.Bench] = append(folds[rec.Bench], rec)
		off += n
	}
	return folds, ""
}

// parseFoldRecord decodes one fold record from the head of rest,
// returning its total length. bad is non-empty on a torn or corrupt
// record (and the record is unusable).
func parseFoldRecord(rest []byte) (rec FoldIn, n int, bad string) {
	const minRec = 4 + 1 + 4 + 2 + 4
	if len(rest) < minRec {
		return rec, 0, "torn record"
	}
	if binary.BigEndian.Uint32(rest[:4]) != walFoldMagic {
		return rec, 0, "bad magic"
	}
	nameLen := int(rest[4])
	n = 5 + nameLen
	if len(rest) < n+4+2 {
		return rec, 0, "torn record"
	}
	rec.Bench = string(rest[5:n])
	rec.Version = binary.BigEndian.Uint32(rest[n : n+4])
	count := int(binary.BigEndian.Uint16(rest[n+4 : n+6]))
	if count > maxFoldInInputs {
		return rec, 0, "oversized input count"
	}
	n += 6
	rec.Inputs = make([][]float64, 0, count)
	for i := 0; i < count; i++ {
		if len(rest) < n+2 {
			return rec, 0, "torn record"
		}
		dim := int(binary.BigEndian.Uint16(rest[n : n+2]))
		n += 2
		if dim > MaxInputDim || len(rest) < n+8*dim {
			return rec, 0, "torn record"
		}
		in := make([]float64, dim)
		for j := range in {
			in[j] = math.Float64frombits(binary.BigEndian.Uint64(rest[n+8*j : n+8*j+8]))
		}
		rec.Inputs = append(rec.Inputs, in)
		n += 8 * dim
	}
	if len(rest) < n+4 {
		return rec, 0, "torn record"
	}
	if crc32.Checksum(rest[:n], walCRC) != binary.BigEndian.Uint32(rest[n:n+4]) {
		return rec, 0, "checksum mismatch"
	}
	return rec, n + 4, ""
}
