package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// The WAL makes mithrad's serving state crash-safe: every installed
// snapshot (the boot-time loads and every fold-in swap) persists to disk
// before it publishes, so a killed daemon restarts into the exact
// pre-crash snapshot version.
//
// Snapshot installs are write-ahead with atomic rename: the record is
// written to a temp file, fsynced, and renamed to snap-<seq>.wal. A
// crash mid-install leaves either the old state or the new state, never
// a torn record — a rename is atomic and a temp file that never got
// renamed is simply ignored at recovery. The guarantee monitor's
// sampling window is deliberately not persisted (DESIGN.md §11): a
// restart only re-gathers evidence, it never reverts a repair.
//
// Every record is guarded by CRC32-C; recovery skips anything that does
// not checksum, so disk corruption degrades to "older snapshot" rather
// than "wrong snapshot".
const walSnapMagic = 0x4d57414c // "MWAL"

// ErrWALCorrupt wraps per-record corruption findings (reported via
// Recovered.Skipped, never as a hard error — recovery is best-valid).
var ErrWALCorrupt = errors.New("serve: wal record corrupt")

var walCRC = crc32.MakeTable(crc32.Castagnoli)

// WAL is a directory-backed write-ahead log. One WAL belongs to one
// daemon; concurrent use from several processes is not supported.
type WAL struct {
	dir string

	mu   sync.Mutex
	seq  uint64
	fold *os.File // open fold log (wal_fold.go); lazily created
}

// OpenWAL opens (creating if needed) the WAL directory.
func OpenWAL(dir string) (*WAL, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: open wal: %w", err)
	}
	w := &WAL{dir: dir}
	names, err := filepath.Glob(filepath.Join(dir, "snap-*.wal"))
	if err != nil {
		return nil, fmt.Errorf("serve: scan wal: %w", err)
	}
	for _, name := range names {
		if seq, ok := walSeqOf(name); ok && seq > w.seq {
			w.seq = seq
		}
	}
	return w, nil
}

// Dir returns the WAL directory.
func (w *WAL) Dir() string { return w.dir }

func walSeqOf(path string) (uint64, bool) {
	base := filepath.Base(path)
	base = strings.TrimPrefix(base, "snap-")
	base = strings.TrimSuffix(base, ".wal")
	seq, err := strconv.ParseUint(base, 16, 64)
	return seq, err == nil
}

// StoreSnapshot durably records one installed snapshot: temp write,
// fsync, atomic rename. The blob is the snapshot's self-contained
// serialized program (Snapshot.Export), so recovery needs nothing else.
func (w *WAL) StoreSnapshot(bench string, version uint32, blob []byte) error {
	if len(bench) == 0 || len(bench) > maxBenchName {
		return fmt.Errorf("serve: wal snapshot bench name %d bytes", len(bench))
	}
	w.mu.Lock()
	w.seq++
	seq := w.seq
	w.mu.Unlock()

	// Record: magic, seq, bench, version, blob, then CRC32-C over all of
	// the preceding bytes.
	buf := make([]byte, 0, len(blob)+len(bench)+32)
	buf = binary.BigEndian.AppendUint32(buf, walSnapMagic)
	buf = binary.BigEndian.AppendUint64(buf, seq)
	buf = append(buf, byte(len(bench)))
	buf = append(buf, bench...)
	buf = binary.BigEndian.AppendUint32(buf, version)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(blob)))
	buf = append(buf, blob...)
	buf = binary.BigEndian.AppendUint32(buf, crc32.Checksum(buf, walCRC))

	tmp, err := os.CreateTemp(w.dir, "tmp-snap-*")
	if err != nil {
		return fmt.Errorf("serve: wal temp: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(buf); err == nil {
		err = tmp.Sync()
	} else {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("serve: wal write: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("serve: wal close: %w", err)
	}
	final := filepath.Join(w.dir, fmt.Sprintf("snap-%016x.wal", seq))
	if err := os.Rename(tmpName, final); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("serve: wal install: %w", err)
	}
	syncDir(w.dir)
	return nil
}

// syncDir fsyncs a directory so a rename survives power loss.
// Best-effort: some filesystems refuse directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync() //nolint:errcheck // best-effort durability
		d.Close()
	}
}

// WALSnapshot is one recovered snapshot record.
type WALSnapshot struct {
	Bench   string
	Version uint32
	Blob    []byte
	seq     uint64
}

// Recovered is the crash-recovery result: the newest valid snapshot per
// benchmark and what was skipped as corrupt.
type Recovered struct {
	Snapshots map[string]WALSnapshot
	// Skipped lists corrupt or torn records dropped during recovery
	// (file and reason), for the journal and the operator log.
	Skipped []string
}

// Recover scans the WAL and reconstructs the pre-crash state. Corrupt
// records are skipped, never fatal: the WAL degrades toward older valid
// state, and serving older state is quality-safe (the guarantee was
// certified for it too).
func (w *WAL) Recover() (*Recovered, error) {
	rec := &Recovered{Snapshots: map[string]WALSnapshot{}}
	names, err := filepath.Glob(filepath.Join(w.dir, "snap-*.wal"))
	if err != nil {
		return nil, fmt.Errorf("serve: wal recover: %w", err)
	}
	sort.Strings(names)
	for _, name := range names {
		snap, err := readSnapRecord(name)
		if err != nil {
			rec.Skipped = append(rec.Skipped, fmt.Sprintf("%s: %v", filepath.Base(name), err))
			continue
		}
		cur, ok := rec.Snapshots[snap.Bench]
		if !ok || snap.seq > cur.seq {
			rec.Snapshots[snap.Bench] = snap
		}
	}
	return rec, nil
}

func readSnapRecord(path string) (WALSnapshot, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return WALSnapshot{}, err
	}
	// magic(4) seq(8) benchLen(1) bench version(4) blobLen(4) blob crc(4)
	if len(raw) < 4+8+1+4+4+4 {
		return WALSnapshot{}, fmt.Errorf("%w: truncated (%d bytes)", ErrWALCorrupt, len(raw))
	}
	body, crc := raw[:len(raw)-4], binary.BigEndian.Uint32(raw[len(raw)-4:])
	if crc32.Checksum(body, walCRC) != crc {
		return WALSnapshot{}, fmt.Errorf("%w: checksum mismatch", ErrWALCorrupt)
	}
	if binary.BigEndian.Uint32(body[:4]) != walSnapMagic {
		return WALSnapshot{}, fmt.Errorf("%w: bad magic", ErrWALCorrupt)
	}
	seq := binary.BigEndian.Uint64(body[4:12])
	benchLen := int(body[12])
	rest := body[13:]
	if len(rest) < benchLen+8 {
		return WALSnapshot{}, fmt.Errorf("%w: truncated bench name", ErrWALCorrupt)
	}
	bench := string(rest[:benchLen])
	rest = rest[benchLen:]
	version := binary.BigEndian.Uint32(rest[:4])
	blobLen := int(binary.BigEndian.Uint32(rest[4:8]))
	rest = rest[8:]
	if len(rest) != blobLen {
		return WALSnapshot{}, fmt.Errorf("%w: blob is %d bytes, want %d", ErrWALCorrupt, len(rest), blobLen)
	}
	return WALSnapshot{Bench: bench, Version: version, Blob: append([]byte(nil), rest...), seq: seq}, nil
}

// Close releases the open fold log. The snapshot records are already
// durable; Close is not a commit point.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.fold == nil {
		return nil
	}
	err := w.fold.Close()
	w.fold = nil
	return err
}
