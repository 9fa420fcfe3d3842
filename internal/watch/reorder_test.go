package watch

// Reorder-buffer edge cases: duplicate request IDs, lag-window overflow
// (displacement past Lag), and the shutdown flush of an out-of-order
// backlog. These pin the buffer's behavior at the boundary of the
// determinism contract — inside the contract journals are byte-identical
// (TestReorderDeterminism); at and past the edge the monitor must stay
// correct (count everything, bounded memory, no crash) even where
// byte-identity is no longer promised.

import (
	"bytes"
	"testing"
)

// releaseMonitor builds a monitor whose release order is observable: all
// observations are fed Bad, the window is larger than the stream so the
// state machine never evaluates, and the exemplar ring records the last
// eight released (failing) IDs in release order.
func releaseMonitor(t *testing.T, lag int) *Monitor {
	t.Helper()
	var buf bytes.Buffer
	cfg := Config{Window: 64, Lag: lag}
	return NewMonitor("fft", testGuarantee(), nil, cfg, notesObs(t, &buf))
}

// TestReorderDuplicateIDs: a duplicated request ID (a retransmitted or
// replayed observation) is not deduplicated — both copies are released
// and counted, and the release stream stays non-decreasing.
func TestReorderDuplicateIDs(t *testing.T) {
	m := releaseMonitor(t, 8)
	for _, id := range []uint32{0, 2, 1, 2, 2, 3} {
		m.Observe(Obs{ID: id, Bad: true})
	}
	m.Flush()
	if m.Seen() != 6 {
		t.Fatalf("seen %d, want all 6 including duplicates", m.Seen())
	}
	if got := m.exemplarList(); got != "0,1,2,2,2,3" {
		t.Fatalf("release order %q, want non-decreasing with duplicates kept", got)
	}
	if m.successes != 0 || m.filled != 6 {
		t.Fatalf("window accounting (successes=%d filled=%d) missed duplicates", m.successes, m.filled)
	}
}

// TestReorderLagOverflow: an observation displaced further than Lag
// arrives after its slot has already been released. The buffer must not
// stall or drop it — it is released late (out of order, the documented
// breach of the determinism contract) and everything is still counted,
// with the pending set never exceeding Lag after delivery.
func TestReorderLagOverflow(t *testing.T) {
	const lag = 4
	m := releaseMonitor(t, lag)
	// IDs 1..20 in order; ID 0 is withheld past its Lag window.
	for id := uint32(1); id <= 20; id++ {
		m.Observe(Obs{ID: id, Bad: true})
		if m.pending.len() > lag {
			t.Fatalf("pending %d exceeds Lag %d after delivery", m.pending.len(), lag)
		}
	}
	// 1..16 have been released (4 remain buffered). The straggler now
	// arrives 20 IDs late: released immediately, after its successors.
	m.Observe(Obs{ID: 0, Bad: true})
	m.Flush()
	if m.Seen() != 21 {
		t.Fatalf("seen %d, want 21 — the straggler must not be dropped", m.Seen())
	}
	// The ring holds the last eight releases.
	want := "14,15,16,0,17,18,19,20"
	if got := m.exemplarList(); got != want {
		t.Fatalf("release order %q, want %q (straggler released late, not lost)", got, want)
	}
}

// TestReorderFlushDrainsBacklogInOrder: a backlog smaller than Lag is
// held entirely until shutdown; Flush must release it in ID order, so a
// run whose stream ends mid-buffer journals exactly what an eagerly
// releasing run (Lag=1) journals. This is the shutdown half of the
// determinism contract: Server.Shutdown drains workers, then the updater
// flushes the monitor.
func TestReorderFlushDrainsBacklogInOrder(t *testing.T) {
	run := func(lag int, reversed bool) []byte {
		var buf bytes.Buffer
		o := notesObs(t, &buf)
		cfg := Config{Window: 8, Lag: lag}
		m := NewMonitor("fft", testGuarantee(), nil, cfg, o)
		// Healthy warmup, a violation burst, then recovery — the stream
		// must journal transitions or the byte comparison is vacuous.
		obs := make([]Obs, 48)
		for i := range obs {
			obs[i] = Obs{ID: uint32(i), Bad: i >= 16 && i < 32}
		}
		if reversed {
			for i, j := 0, len(obs)-1; i < j; i, j = i+1, j-1 {
				obs[i], obs[j] = obs[j], obs[i]
			}
		}
		for _, ob := range obs {
			m.Observe(ob)
		}
		if reversed && m.Seen() != 0 {
			t.Fatalf("released %d observations before Flush with Lag %d > backlog", m.Seen(), lag)
		}
		m.Flush()
		if m.Seen() != 48 {
			t.Fatalf("flush released %d, want the whole backlog", m.Seen())
		}
		if m.pending.len() != 0 {
			t.Fatalf("%d observations still pending after Flush", m.pending.len())
		}
		if err := o.Close(nil); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	eager := run(1, false)
	if len(transitionsOf(t, eager)) == 0 {
		t.Fatal("sequence produced no transitions; comparison is vacuous")
	}
	// A fully reversed 48-deep backlog under Lag=64: nothing releases
	// until the shutdown flush, which must restore ID order exactly.
	flushed := run(64, true)
	if !bytes.Equal(eager, flushed) {
		t.Fatalf("shutdown flush journal differs from eager release:\nA: %s\nB: %s", eager, flushed)
	}
}
