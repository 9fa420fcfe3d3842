package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// TestGaugeSnapMarshal pins the canonical gauge JSON: shortest
// round-trippable float rendering, identical to the text and Prometheus
// expositions, and non-finite values encode as quoted strings instead of
// failing the whole snapshot marshal (encoding/json rejects NaN/±Inf).
func TestGaugeSnapMarshal(t *testing.T) {
	cases := []struct {
		v    float64
		want string
	}{
		{0, `{"name":"g","value":0}`},
		{0.02, `{"name":"g","value":0.02}`},
		{5e-324, `{"name":"g","value":5e-324}`}, // smallest denormal
		{math.Copysign(0, -1), `{"name":"g","value":-0}`},
		{math.NaN(), `{"name":"g","value":"NaN"}`},
		{math.Inf(1), `{"name":"g","value":"+Inf"}`},
		{math.Inf(-1), `{"name":"g","value":"-Inf"}`},
	}
	for _, c := range cases {
		got, err := json.Marshal(GaugeSnap{Name: "g", Value: c.v})
		if err != nil {
			t.Fatalf("marshal %v: %v", c.v, err)
		}
		if string(got) != c.want {
			t.Fatalf("marshal %v = %s, want %s", c.v, got, c.want)
		}
	}
}

// TestSnapshotMarshalSurvivesNaN: a registry holding a NaN gauge must
// still serialize (the journal's final metrics block would otherwise be
// dropped wholesale by one poisoned gauge).
func TestSnapshotMarshalSurvivesNaN(t *testing.T) {
	reg := NewRegistry()
	reg.Gauge("bad").Set(math.NaN())
	reg.Gauge("fine").Set(1.5)
	b, err := json.Marshal(reg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"NaN"`) || !strings.Contains(string(b), `1.5`) {
		t.Fatalf("snapshot JSON: %s", b)
	}
}

// TestRenderNotes pins the filtered note rendering `mithra journal show
// -notes` exposes (the cross-worker guarantee gate diffs this output).
func TestRenderNotes(t *testing.T) {
	journal := strings.Join([]string{
		`{"t":"run_start","cmd":"x"}`,
		`{"t":"note","name":"guarantee","attrs":{"bench":"fft","from":"holding","to":"violated","margin":"-0.03"}}`,
		`{"t":"note","name":"install_failed","attrs":{"bench":"fft","error":"disk full"}}`,
		`{"t":"note","name":"guarantee","attrs":{"bench":"fft","from":"violated","to":"recovering"}}`,
	}, "\n")
	entries, err := ReadJournal(strings.NewReader(journal))
	if err != nil {
		t.Fatal(err)
	}

	var filtered bytes.Buffer
	RenderNotes(&filtered, entries, "guarantee")
	want := "note guarantee {bench=fft from=holding margin=-0.03 to=violated}\n" +
		"note guarantee {bench=fft from=violated to=recovering}\n"
	if filtered.String() != want {
		t.Fatalf("filtered notes:\n--- got ---\n%s--- want ---\n%s", filtered.String(), want)
	}

	var all bytes.Buffer
	RenderNotes(&all, entries, "")
	if lines := strings.Count(all.String(), "note "); lines != 3 {
		t.Fatalf("unfiltered rendering has %d notes, want 3:\n%s", lines, all.String())
	}
}
