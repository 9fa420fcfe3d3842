package serve

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// TestRegistryConcurrentInstallMonotone hammers Install and Get from
// many goroutines and checks the registry's two invariants: published
// versions are strictly monotone per benchmark (no reader ever observes
// a version go backwards), and a pinned snapshot — a pointer a reader
// held across swaps, as a frozen replay or an in-flight batch does —
// is never mutated by later installs.
func TestRegistryConcurrentInstallMonotone(t *testing.T) {
	snap := syntheticSnapshot(t, "alpha", nil)
	reg := NewRegistry(snap)
	pinned := reg.Get("alpha")
	pinnedTable := pinned.Table

	const (
		writers          = 4
		installsPerGorou = 64
		readers          = 4
	)
	var (
		writerWG, readerWG sync.WaitGroup
		stop               atomic.Bool
		readerErr          atomic.Value
	)
	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			last := uint32(0)
			for !stop.Load() {
				cur := reg.Get("alpha")
				if cur == nil {
					readerErr.Store(errors.New("Get returned nil mid-swap"))
					return
				}
				if cur.Version < last {
					readerErr.Store(errors.New("observed version went backwards"))
					return
				}
				last = cur.Version
			}
		}()
	}
	var werr atomic.Value
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func() {
			defer writerWG.Done()
			for i := 0; i < installsPerGorou; i++ {
				cur := reg.Get("alpha")
				if _, err := reg.Install(cur.withTable(cur.Table.Clone())); err != nil {
					werr.Store(err)
					return
				}
			}
		}()
	}
	// Writers finish first; then release the readers.
	writerWG.Wait()
	stop.Store(true)
	readerWG.Wait()

	if err, _ := readerErr.Load().(error); err != nil {
		t.Fatal(err)
	}
	if err, _ := werr.Load().(error); err != nil {
		t.Fatal(err)
	}
	if got, want := reg.Get("alpha").Version, uint32(1+writers*installsPerGorou); got != want {
		t.Fatalf("final version = %d, want %d (one bump per install)", got, want)
	}
	if got, want := reg.Swaps(), int64(writers*installsPerGorou); got != want {
		t.Fatalf("Swaps() = %d, want %d", got, want)
	}
	// The pinned snapshot survived every swap untouched.
	if pinned.Version != 1 || pinned.Table != pinnedTable {
		t.Fatalf("pinned snapshot mutated: version %d", pinned.Version)
	}
}

// TestRegistryPersistFailureLeavesStateUnchanged checks the write-ahead
// contract: when the persist hook refuses a snapshot, Install returns
// the error and readers keep seeing the previous snapshot.
func TestRegistryPersistFailureLeavesStateUnchanged(t *testing.T) {
	snap := syntheticSnapshot(t, "alpha", nil)
	reg := NewRegistry(snap)
	before := reg.Get("alpha")

	boom := errors.New("disk on fire")
	calls := 0
	reg.SetPersist(func(s *Snapshot) error {
		calls++
		// The hook sees the version the snapshot would publish at.
		if s.Version != before.Version+1 {
			t.Errorf("persist hook saw version %d, want %d", s.Version, before.Version+1)
		}
		return boom
	})
	upd := before.withTable(before.Table.Clone())
	if _, err := reg.Install(upd); !errors.Is(err, boom) {
		t.Fatalf("Install error = %v, want the persist failure", err)
	}
	if calls != 1 {
		t.Fatalf("persist hook called %d times, want 1", calls)
	}
	if reg.Get("alpha") != before {
		t.Fatal("failed install was published anyway")
	}
	if reg.Swaps() != 0 {
		t.Fatalf("failed install counted as a swap: %d", reg.Swaps())
	}

	// Clearing the hook restores normal installs.
	reg.SetPersist(nil)
	if _, err := reg.Install(upd); err != nil {
		t.Fatal(err)
	}
	if got := reg.Get("alpha").Version; got != before.Version+1 {
		t.Fatalf("version after recovery install = %d", got)
	}
}

// TestRegistryFirstInstallKeepsPresetVersion is the recovery contract:
// WAL recovery reinstates a snapshot at its pre-crash version by
// presetting Version before the first install. Replication relies on
// the same rule for later installs.
func TestRegistryFirstInstallKeepsPresetVersion(t *testing.T) {
	snap := syntheticSnapshot(t, "alpha", nil)
	snap.Version = 7
	reg := NewRegistry()
	if _, err := reg.Install(snap); err != nil {
		t.Fatal(err)
	}
	if got := reg.Get("alpha").Version; got != 7 {
		t.Fatalf("recovered install version = %d, want the preset 7", got)
	}
	// The next swap continues from there.
	upd := snap.withTable(snap.Table.Clone())
	if _, err := reg.Install(upd); err != nil {
		t.Fatal(err)
	}
	if got := reg.Get("alpha").Version; got != 8 {
		t.Fatalf("post-recovery swap version = %d, want 8", got)
	}
	// A replica jumps to a peer's newer version: a preset above the
	// predecessor's is kept, and one at or below it is not.
	for _, c := range []struct{ preset, want uint32 }{{11, 11}, {5, 12}, {12, 13}} {
		upd := snap.withTable(snap.Table.Clone())
		upd.Version = c.preset
		if _, err := reg.Install(upd); err != nil {
			t.Fatal(err)
		}
		if got := reg.Get("alpha").Version; got != c.want {
			t.Fatalf("install with preset %d: version %d, want %d", c.preset, got, c.want)
		}
	}
}
