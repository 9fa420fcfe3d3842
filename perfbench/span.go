package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
)

// span is one timed interval of the traced run. Times are nanoseconds
// since the run's epoch. A span serves one unit of work: a request (open
// loop) or a pipelined batch (closed loops), identified by its first
// request ID; n is the number of decisions it covers, so per-decision
// figures divide by it.
//
// A replay span times, in the benchmark's process, a call the daemon
// makes for its parent's unit, on the unit's own frames and inputs; it
// runs after the round trip it is attributed to, so it accounts for its
// duration inside the parent rather than for an interval of it.
type span struct {
	name       string
	start, end int64
	parent     int // index of the parent span in the same trace; -1 for a root
	req        uint32
	n          int
	replay     bool
}

// spanTrace collects spans in memory; it is written out once, when the
// run ends. One spanTrace belongs to one goroutine.
type spanTrace struct{ spans []span }

func (t *spanTrace) add(s span) int {
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// mergeTraces concatenates traces, rebasing parent indices.
func mergeTraces(ts ...*spanTrace) *spanTrace {
	out := &spanTrace{}
	for _, t := range ts {
		base := len(out.spans)
		for _, s := range t.spans {
			if s.parent >= 0 {
				s.parent += base
			}
			out.spans = append(out.spans, s)
		}
	}
	return out
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover (children are clipped to the parent, and
// overlapping children count once) and minus the durations of its replay
// children, floored at zero.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	out := make([]int64, len(spans))
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for i, s := range spans {
		ivs = ivs[:0]
		var replayed int64
		for _, c := range children[i] {
			if spans[c].replay {
				replayed += spans[c].end - spans[c].start
				continue
			}
			lo, hi := max(spans[c].start, s.start), min(spans[c].end, s.end)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, curLo, curHi int64
		for k, v := range ivs {
			switch {
			case k == 0:
				curLo, curHi = v.lo, v.hi
			case v.lo <= curHi:
				curHi = max(curHi, v.hi)
			default:
				covered += curHi - curLo
				curLo, curHi = v.lo, v.hi
			}
		}
		if len(ivs) > 0 {
			covered += curHi - curLo
		}
		out[i] = max(0, s.end-s.start-covered-replayed)
	}
	return out
}

// selfPerDecision returns, for each span name, the median over its spans
// of self time per covered decision, in nanoseconds.
func selfPerDecision(spans []span) map[string]float64 {
	self := selfTimes(spans)
	by := map[string][]float64{}
	for i, s := range spans {
		by[s.name] = append(by[s.name], float64(self[i])/float64(max(1, s.n)))
	}
	out := make(map[string]float64, len(by))
	for name, xs := range by {
		out[name] = median(xs)
	}
	return out
}

// durations returns the durations of the spans named name, in ns.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.name == name {
			out = append(out, float64(s.end-s.start))
		}
	}
	return out
}

// writeSpans writes one JSON object per span.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for i, s := range spans {
		fmt.Fprintf(w, `{"id":%d,"name":%q,"start_ns":%d,"end_ns":%d,"parent":%d,"req":%d,"n":%d,"replay":%v}`+"\n",
			i, s.name, s.start, s.end, s.parent, s.req, s.n, s.replay)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
