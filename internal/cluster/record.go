package cluster

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"sort"
	"sync"

	"mithra/internal/serve"
)

// The decision log (.dlog) is each node's durable half of the cluster
// digest (DESIGN.md §15). Every non-fallback decision a node makes is
// buffered as (bench, original request ID, precise) and flushed — an
// O_APPEND write of one checksummed block — before the batch's response
// frames go out, so a SIGKILL can never take down a decision a client
// already saw acknowledged. Decisions are pure functions of (snapshot,
// input), so duplicated records from client retries or re-asks always
// agree; MergeDecisionLogs deduplicates them and rebuilds the cluster's
// DecisionSet, whose digest must equal the single-node replay's.

// dlogMagic opens every decision-log block ("MDLG").
const dlogMagic = 0x4d444c47

// recordEntry is one buffered decision.
type recordEntry struct {
	bench   string
	id      uint32
	precise bool
}

// Recorder buffers decision records and flushes them as checksummed
// blocks. Safe for concurrent use by all connection readers.
type Recorder struct {
	mu      sync.Mutex
	f       *os.File
	entries []recordEntry
	buf     []byte
}

// OpenRecorder opens (appending) the decision log at path.
func OpenRecorder(path string) (*Recorder, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("cluster: open decision log: %w", err)
	}
	return &Recorder{f: f}, nil
}

// Record buffers one decision. The bench string must be an interned
// (shard-owned) name; the recorder aliases it.
func (r *Recorder) Record(bench string, id uint32, precise bool) {
	r.mu.Lock()
	r.entries = append(r.entries, recordEntry{bench: bench, id: id, precise: precise})
	r.mu.Unlock()
}

// Flush writes every buffered record as one block:
//
//	magic(4) count(4) count × (benchLen(1) bench id(4) flag(1)) crc(4)
//
// The write is a single O_APPEND syscall, so blocks from concurrent
// flushes never interleave, and the data reaches the OS page cache —
// which survives a SIGKILL of this process — before Flush returns.
func (r *Recorder) Flush() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.entries) == 0 {
		return nil
	}
	buf := r.buf[:0]
	buf = binary.BigEndian.AppendUint32(buf, dlogMagic)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(r.entries)))
	for _, e := range r.entries {
		buf = append(buf, byte(len(e.bench)))
		buf = append(buf, e.bench...)
		buf = binary.BigEndian.AppendUint32(buf, e.id)
		if e.precise {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	buf = binary.BigEndian.AppendUint32(buf, crc32.Checksum(buf, dlogCRC))
	r.buf = buf
	r.entries = r.entries[:0]
	if _, err := r.f.Write(buf); err != nil {
		return fmt.Errorf("cluster: decision log append: %w", err)
	}
	return nil
}

// Close flushes and closes the log.
func (r *Recorder) Close() error {
	if err := r.Flush(); err != nil {
		r.f.Close()
		return err
	}
	return r.f.Close()
}

// dlogCRC matches the WAL's checksum flavor (Castagnoli).
var dlogCRC = crc32.MakeTable(crc32.Castagnoli)

// MergeDecisionLogs reads every decision log and rebuilds the cluster's
// per-benchmark DecisionSets, ordered by request ID. Duplicate records
// must agree (decisions are pure; a disagreement means corrupted state
// and is an error). The ID space must be contiguous from 0 — a gap means
// some acknowledged decision's record is missing, which the
// flush-before-respond discipline rules out — so a gap is an error too.
// A torn final block (a node killed mid-flush) is skipped, per log, and
// reported in skipped; the decisions in it were never acknowledged.
func MergeDecisionLogs(paths []string) (sets map[string]*serve.DecisionSet, skipped []string, err error) {
	merged := map[string]map[uint32]bool{}
	for _, path := range paths {
		raw, rerr := os.ReadFile(path)
		if rerr != nil {
			return nil, nil, fmt.Errorf("cluster: %w", rerr)
		}
		// Valid-prefix parse, like the WAL readers: the log is replayed up
		// to the first damaged block, which is reported, never propagated.
		// If damage hides an acknowledged decision, the contiguity check
		// below turns it into a hard error.
		for off := 0; off < len(raw); {
			n, berr := mergeBlock(raw[off:])
			if berr != "" {
				skipped = append(skipped, fmt.Sprintf("%s: %s at byte %d", path, berr, off))
				break
			}
			if cerr := applyBlock(raw[off:off+n], merged); cerr != nil {
				return nil, nil, fmt.Errorf("cluster: %s: %w", path, cerr)
			}
			off += n
		}
	}
	benches := make([]string, 0, len(merged))
	for bench := range merged {
		benches = append(benches, bench)
	}
	sort.Strings(benches)
	sets = make(map[string]*serve.DecisionSet, len(merged))
	for _, bench := range benches {
		dec := merged[bench]
		ids := make([]uint32, 0, len(dec))
		for id := range dec {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		ds := serve.NewDecisionSet(bench)
		for i, id := range ids {
			if id != uint32(i) {
				return nil, nil, fmt.Errorf("cluster: bench %s: decision records gap at id %d (next present: %d)", bench, i, id)
			}
			ds.Append(dec[id])
		}
		sets[bench] = ds
	}
	return sets, skipped, nil
}

// mergeBlock validates the block at the head of rest and returns its
// length; bad is non-empty for a torn or corrupt block.
func mergeBlock(rest []byte) (n int, bad string) {
	if len(rest) < 12 {
		return len(rest), "torn block"
	}
	if binary.BigEndian.Uint32(rest[:4]) != dlogMagic {
		return 0, "bad magic"
	}
	count := int(binary.BigEndian.Uint32(rest[4:8]))
	n = 8
	for i := 0; i < count; i++ {
		if len(rest) < n+1 {
			return len(rest), "torn block"
		}
		benchLen := int(rest[n])
		n += 1 + benchLen + 5
		if len(rest) < n {
			return len(rest), "torn block"
		}
	}
	if len(rest) < n+4 {
		return len(rest), "torn block"
	}
	if crc32.Checksum(rest[:n], dlogCRC) != binary.BigEndian.Uint32(rest[n:n+4]) {
		return len(rest), "checksum mismatch"
	}
	return n + 4, ""
}

// applyBlock folds a validated block's records into merged, rejecting
// conflicting duplicates.
func applyBlock(block []byte, merged map[string]map[uint32]bool) error {
	count := int(binary.BigEndian.Uint32(block[4:8]))
	off := 8
	for i := 0; i < count; i++ {
		benchLen := int(block[off])
		bench := string(block[off+1 : off+1+benchLen])
		id := binary.BigEndian.Uint32(block[off+1+benchLen : off+5+benchLen])
		precise := block[off+5+benchLen] != 0
		off += 6 + benchLen
		m := merged[bench]
		if m == nil {
			m = map[uint32]bool{}
			merged[bench] = m
		}
		if prev, dup := m[id]; dup && prev != precise {
			return fmt.Errorf("conflicting records for bench %s id %d", bench, id)
		}
		m[id] = precise
	}
	return nil
}
