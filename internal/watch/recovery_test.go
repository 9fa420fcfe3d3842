package watch

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// TestRepeatedFoldInsAreRepairEveryApart: while a violation persists,
// consecutive fold-ins of an episode are exactly RepairEvery releases
// apart, counted from the entry fold-in. The fold hook refuses every
// install, so the always-bad stream never recovers and the monitor keeps
// retrying.
func TestRepeatedFoldInsAreRepairEveryApart(t *testing.T) {
	const window = 16
	m := NewMonitor("fft", testGuarantee(), nil, Config{Window: window, Lag: 1}, nil)
	var folds []int
	m.Arm(Escalation{FoldIn: func([][]float64) (Reclassify, bool) {
		folds = append(folds, m.Seen())
		return nil, false
	}})
	for i := uint32(0); i < 4*window; i++ {
		m.Observe(Obs{ID: i, Bad: true, In: []float64{0.5}})
	}
	m.Flush()
	want := []int{window, 2 * window, 3 * window, 4 * window}
	if fmt.Sprint(folds) != fmt.Sprint(want) {
		t.Fatalf("fold-ins at seen %v, want %v (the violation at %d, then every %d releases)", folds, want, window, window)
	}
	if m.State() != Violated {
		t.Fatalf("state %v, want violated: every fold-in was refused", m.State())
	}
}

// TestEnabledFieldsAreIgnored pins the monitor's one mode: whatever
// Config.Enabled and Recheck.Enabled say, a drifted stream with both
// hooks armed journals the same bytes and ends in the same place.
func TestEnabledFieldsAreIgnored(t *testing.T) {
	const window = 16
	run := func(enabled, recheck bool) ([]byte, int, State) {
		var buf bytes.Buffer
		o := notesObs(t, &buf)
		m := NewMonitor("fft", testGuarantee(), nil, Config{
			Enabled: enabled, Window: window, Lag: 4,
			Recheck: Recheck{Enabled: recheck},
		}, o)
		// The repaired table routes every folded input precise.
		folded := map[float64]bool{}
		m.Arm(Escalation{
			FoldIn: func(ins [][]float64) (Reclassify, bool) {
				for _, in := range ins {
					folded[in[0]] = true
				}
				return func(in []float64) bool { return folded[in[0]] }, true
			},
			Boost: func(from, until uint32) {},
		})
		// Healthy inputs below 0.5, then a drift onto a few bad inputs
		// above it from ID 200 on.
		for i := uint32(0); i < 600; i++ {
			x := float64(i%10) / 20
			if i >= 200 {
				x = 0.6 + float64(i%3)/10
			}
			m.Observe(Obs{ID: i, Bad: x > 0.5, In: []float64{x}})
		}
		m.Flush()
		if err := o.Close(nil); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), m.Seen(), m.State()
	}
	want, wantSeen, wantState := run(true, true)
	for _, name := range []string{"guarantee", "boost", "foldin", "cp_window", "recovery"} {
		if !strings.Contains(string(want), `"name":"`+name+`"`) {
			t.Fatalf("reference run journaled no %s note; the comparison is vacuous:\n%s", name, want)
		}
	}
	for _, enabled := range []bool{false, true} {
		for _, recheck := range []bool{false, true} {
			got, seen, state := run(enabled, recheck)
			if !bytes.Equal(got, want) || seen != wantSeen || state != wantState {
				t.Errorf("Enabled=%v Recheck.Enabled=%v: seen %d state %v, want %d %v; journal equal: %v",
					enabled, recheck, seen, state, wantSeen, wantState, bytes.Equal(got, want))
			}
		}
	}
}
