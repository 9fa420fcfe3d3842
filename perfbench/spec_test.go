package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the names come from.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestNamesMatchBenchmarkJSON keeps the metric and workload names this
// program reports in step with the ones BENCHMARK.json declares.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, w := range bf.Workloads {
		declared = append(declared, w.Name)
	}
	assertSame(t, "workloads", declared, workloadNames)
	for _, set := range []struct {
		what     string
		specs    []metricSpec
		declared []struct{ Name, Unit, Better string }
	}{{"end_to_end", endToEnd, bf.EndToEnd}, {"per_layer", perLayer, bf.PerLayer}} {
		var names, units, dNames, dUnits []string
		for _, s := range set.specs {
			names, units = append(names, s.name), append(units, s.unit)
		}
		for _, d := range set.declared {
			dNames, dUnits = append(dNames, d.Name), append(dUnits, d.Unit)
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s %s: better = %q", set.what, d.Name, d.Better)
			}
		}
		assertSame(t, set.what+" names", dNames, names)
		assertSame(t, set.what+" units", dUnits, units)
	}
	seen := map[string]bool{}
	for _, list := range [][]string{workloadNames, specNames(endToEnd), specNames(perLayer)} {
		for _, n := range list {
			if !nameRE.MatchString(n) {
				t.Errorf("name %q does not match %s", n, nameRE)
			}
			if seen[n] {
				t.Errorf("name %q used twice", n)
			}
			seen[n] = true
		}
	}
}

func specNames(specs []metricSpec) []string {
	var out []string
	for _, s := range specs {
		out = append(out, s.name)
	}
	return out
}

func assertSame(t *testing.T, what string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: BENCHMARK.json has %v, the program %v", what, got, want)
		return
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s[%d]: BENCHMARK.json has %q, the program %q", what, i, got[i], want[i])
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false}, // the median leaves 9.5 beyond it
		{20, 50, true},
		{100, 90, true},
		{999, 90, true}, // p99 leaves 9.99
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
		{100000, 99.99, true},
		{10000000, 99.999, true},
	} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestPercentileAndWindowed(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if p := percentile(s, 50); p != 5 {
		t.Errorf("p50 = %v, want 5", p)
	}
	if p := percentile(s, 99); p != 10 {
		t.Errorf("p99 = %v, want 10", p)
	}
	// Windows [1..4] [5..8] [9 10]: p50s 2 6 9, maxima 4 8 10.
	if got := windowed(s, 4, 50, 100); got[0] != 6 || got[1] != 8 {
		t.Errorf("windowed = %v, want [6 8]", got)
	}
	// A trailing window under half size joins the one before: [1..4]
	// [5..9], p50s 2 and 7.
	if got := windowed(s[:9], 4, 50); got[0] != 4.5 {
		t.Errorf("windowed with a short tail = %v, want [4.5]", got)
	}
}

// TestSelfTimes checks self-time arithmetic on a hand-built tree: a
// root with overlapping children, a child reaching past the root's end,
// a grandchild, and replay children, which count their duration wherever
// they ran.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{name: "root", start: 0, end: 100, parent: -1, n: 4},
		{name: "a", start: 10, end: 30, parent: 0, n: 1},
		{name: "b", start: 20, end: 40, parent: 0, n: 1},                 // overlaps a: [10,40] counts once
		{name: "c", start: 90, end: 120, parent: 0, n: 1},                // clipped to [90,100]
		{name: "g", start: 15, end: 20, parent: 1, n: 1},                 // inside a
		{name: "other", start: 0, end: 50, parent: -1, n: 1},             // no children
		{name: "r", start: 60, end: 64, parent: 5, n: 1, replay: true},   // replayed after: 4 of other
		{name: "r2", start: 70, end: 200, parent: 5, n: 1, replay: true}, // more than is left: floor 0
		{name: "lone", start: 0, end: 10, parent: -1, n: 1},
		{name: "r3", start: 20, end: 23, parent: 8, n: 1, replay: true},
	}
	want := []int64{60, 15, 20, 30, 5, 0, 4, 130, 7, 3}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].name, got[i], want[i])
		}
	}
	per := selfPerDecision(spans)
	if per["root"] != 15 {
		t.Errorf("root self per decision = %v, want 60/4 = 15", per["root"])
	}
	merged := mergeTraces(&spanTrace{spans: spans[:2]}, &spanTrace{spans: spans[:2]})
	if merged.spans[3].parent != 2 {
		t.Errorf("merged parent = %d, want 2", merged.spans[3].parent)
	}
}
