package serve

import (
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestWALSnapshotRoundTripAndSequencing(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.StoreSnapshot("fft", 1, []byte("blob-v1")); err != nil {
		t.Fatal(err)
	}
	if err := w.StoreSnapshot("fft", 2, []byte("blob-v2")); err != nil {
		t.Fatal(err)
	}
	if err := w.StoreSnapshot("sobel", 1, []byte("sobel-v1")); err != nil {
		t.Fatal(err)
	}
	rec, err := w.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Skipped) != 0 {
		t.Fatalf("clean WAL skipped records: %v", rec.Skipped)
	}
	if got := rec.Snapshots["fft"]; got.Version != 2 || string(got.Blob) != "blob-v2" {
		t.Fatalf("fft recovery = v%d %q, want v2 blob-v2", got.Version, got.Blob)
	}
	if got := rec.Snapshots["sobel"]; got.Version != 1 || string(got.Blob) != "sobel-v1" {
		t.Fatalf("sobel recovery = v%d %q", got.Version, got.Blob)
	}
	w.Close()

	// A reopened WAL continues the sequence: the newest record still wins.
	w2, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if err := w2.StoreSnapshot("fft", 3, []byte("blob-v3")); err != nil {
		t.Fatal(err)
	}
	rec, err = w2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.Snapshots["fft"]; got.Version != 3 || string(got.Blob) != "blob-v3" {
		t.Fatalf("post-reopen fft recovery = v%d %q, want v3 blob-v3", got.Version, got.Blob)
	}
}

func TestWALCorruptSnapshotDegradesToOlderVersion(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.StoreSnapshot("fft", 1, []byte("good")); err != nil {
		t.Fatal(err)
	}
	if err := w.StoreSnapshot("fft", 2, []byte("corrupted-later")); err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte in the newest record: its checksum must fail
	// and recovery must fall back to version 1.
	names, _ := filepath.Glob(filepath.Join(dir, "snap-*.wal"))
	if len(names) != 2 {
		t.Fatalf("expected 2 records, found %v", names)
	}
	newest := names[len(names)-1]
	raw, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(newest, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	rec, err := w.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Skipped) != 1 {
		t.Fatalf("skipped = %v, want exactly the corrupt record", rec.Skipped)
	}
	if got := rec.Snapshots["fft"]; got.Version != 1 || string(got.Blob) != "good" {
		t.Fatalf("recovery = v%d %q, want the older valid v1", got.Version, got.Blob)
	}
}

// TestWALRecoverIgnoresLegacyWindowLog is the upgrade-safety check: a
// WAL directory written by an older mithrad also holds a per-bench
// sampling-window log (win-<hex bench>.wlog, "MWIN" records) beside the
// snapshot records. Window state is no longer persisted, so recovery
// must restore the snapshot and leave the legacy log alone, without an
// error or a skipped-record report.
func TestWALRecoverIgnoresLegacyWindowLog(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.StoreSnapshot("fft", 4, []byte("blob-v4")); err != nil {
		t.Fatal(err)
	}
	w.Close()

	// One legacy window record, byte for byte as the old window log wrote
	// it: magic(4) flags(1) dim(2) float64s crc32c(4).
	rec := binary.BigEndian.AppendUint32(nil, 0x4d57494e)
	rec = append(rec, 1) // bad, not precise
	rec = binary.BigEndian.AppendUint16(rec, 2)
	for _, v := range []float64{0.25, 0.75} {
		rec = binary.BigEndian.AppendUint64(rec, math.Float64bits(v))
	}
	rec = binary.BigEndian.AppendUint32(rec, crc32.Checksum(rec, walCRC))
	legacy := filepath.Join(dir, "win-"+hex.EncodeToString([]byte("fft"))+".wlog")
	if err := os.WriteFile(legacy, rec, 0o644); err != nil {
		t.Fatal(err)
	}

	w2, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	got, err := w2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Skipped) != 0 {
		t.Fatalf("legacy window log reported as skipped: %v", got.Skipped)
	}
	if snap := got.Snapshots["fft"]; snap.Version != 4 || string(snap.Blob) != "blob-v4" {
		t.Fatalf("recovery = v%d %q, want v4 blob-v4", snap.Version, snap.Blob)
	}
	// New installs keep sequencing past the recovered record.
	if err := w2.StoreSnapshot("fft", 5, []byte("blob-v5")); err != nil {
		t.Fatal(err)
	}
	if got, err = w2.Recover(); err != nil || got.Snapshots["fft"].Version != 5 {
		t.Fatalf("post-upgrade install not recovered: %+v, %v", got.Snapshots["fft"], err)
	}
}
