package watch

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"

	"mithra/internal/obs"
)

// WriteProm renders a registry snapshot in the Prometheus text
// exposition format (version 0.0.4). The rendering is canonical: the
// snapshot is already sorted by name, every metric name is sanitized the
// same way, and floats use the shared shortest-round-trip form, so two
// equal registries always expose identical bytes.
//
// Counters and gauges map one-to-one; fixed-bucket histograms are
// re-expressed with Prometheus's cumulative `_bucket{le=...}` / `_count`
// convention (no `_sum`: the registry keeps integer bucket counts only,
// by the determinism contract).
func WriteProm(w io.Writer, s obs.Snapshot) {
	for _, c := range s.Counters {
		name := promName(c.Name)
		fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, c.Value)
	}
	for _, g := range s.Gauges {
		name := promName(g.Name)
		fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", name, name, FormatFloat(g.Value))
	}
	for _, h := range s.Histograms {
		name := promName(h.Name)
		fmt.Fprintf(w, "# TYPE %s histogram\n", name)
		var cum int64
		for _, b := range h.Buckets {
			cum += b.Count
			fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, b.LE, cum)
		}
		fmt.Fprintf(w, "%s_count %d\n", name, h.Total)
	}
}

// PromHandler serves WriteProm over the live registry — mounted as
// GET /metrics.prom on the debug mux.
func PromHandler(reg *obs.Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WriteProm(w, reg.Snapshot())
	})
}

// promName sanitizes a dotted registry name into the Prometheus
// identifier alphabet and prefixes the application namespace:
// "watch.guarantee.state.fft" → "mithra_watch_guarantee_state_fft".
func promName(name string) string {
	var b strings.Builder
	b.Grow(len("mithra_") + len(name))
	b.WriteString("mithra_")
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == ':':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// ParseProm reads a text exposition produced by WriteProm back into a
// flat name→value map (counters and gauges; histogram series are
// skipped). This is the `mithra watch` poller's input.
func ParseProm(r io.Reader) (map[string]float64, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(val, "%g", &v); err != nil {
			return nil, fmt.Errorf("watch: bad exposition line %q: %w", line, err)
		}
		out[name] = v
	}
	return out, nil
}

// BenchStatus is one row of the `mithra watch` live table, reconstructed
// from the exposition map.
type BenchStatus struct {
	Bench      string
	State      State
	Lower      float64 // certified CP lower bound over the current window
	Upper      float64 // CP upper bound
	Target     float64 // required success rate
	Margin     float64 // Lower - Target
	PSI        float64
	L1         float64
	Samples    float64 // sampled observations consumed by the monitor
	Decisions  float64 // decisions served (per-bench counter)
	Fallbacks  float64 // precise fallbacks served
	Violations float64 // violation transitions since boot

	// Recovery surface (escalation; DESIGN.md §16). FoldIns and
	// Recoveries come from the benchmark's home monitor; ReplicaFolds
	// counts fold-ins applied via replication on other nodes, so a
	// multi-address watch shows the repairs landing cluster-wide.
	FoldIns      float64 // table fold-ins driven by the monitor
	Recoveries   float64 // completed recovery episodes
	ReplicaFolds float64 // replicated fold-ins applied on this node
}

// StatusFrom extracts per-benchmark watch rows from a parsed exposition
// map, sorted by benchmark name. Benchmarks are discovered from the
// watch_guarantee_state gauges, so a daemon without monitors armed
// yields an empty slice.
func StatusFrom(metrics map[string]float64) []BenchStatus {
	const statePrefix = "mithra_watch_guarantee_state_"
	var rows []BenchStatus
	for name, v := range metrics {
		if !strings.HasPrefix(name, statePrefix) {
			continue
		}
		bench := strings.TrimPrefix(name, statePrefix)
		rows = append(rows, BenchStatus{
			Bench:      bench,
			State:      State(v),
			Lower:      metrics["mithra_watch_guarantee_lower_bound_"+bench],
			Upper:      metrics["mithra_watch_guarantee_upper_bound_"+bench],
			Target:     metrics["mithra_watch_guarantee_target_"+bench],
			Margin:     metrics["mithra_watch_guarantee_margin_"+bench],
			PSI:        metrics["mithra_watch_divergence_psi_"+bench],
			L1:         metrics["mithra_watch_divergence_l1_"+bench],
			Samples:    metrics["mithra_watch_samples_"+bench],
			Decisions:  metrics["mithra_serve_bench_decisions_"+bench],
			Fallbacks:  metrics["mithra_serve_bench_fallbacks_"+bench],
			Violations: metrics["mithra_watch_guarantee_violations_"+bench],

			FoldIns:      metrics["mithra_watch_recovery_foldins_"+bench],
			Recoveries:   metrics["mithra_watch_recovery_episodes_"+bench],
			ReplicaFolds: metrics["mithra_cluster_foldin_applied_"+bench],
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Bench < rows[j].Bench })
	return rows
}

// MergeStatus folds per-node status rows into one cluster-wide table.
// Traffic counters (Decisions, Fallbacks, Violations, Samples) sum
// across nodes; the guarantee fields (state, CP bounds, target, margin,
// divergence gauges) come from the node with the most samples for that
// benchmark — in a cluster only the benchmark's home node runs its
// sampler and monitor, so that node's row is the authoritative one and
// every replica reports zeros. The result is sorted by benchmark name,
// so merging one node's rows is the identity.
func MergeStatus(perNode [][]BenchStatus) []BenchStatus {
	merged := map[string]BenchStatus{}
	for _, rows := range perNode {
		for _, r := range rows {
			m, seen := merged[r.Bench]
			if !seen {
				merged[r.Bench] = r
				continue
			}
			if r.Samples > m.Samples {
				guard := r
				guard.Decisions = m.Decisions
				guard.Fallbacks = m.Fallbacks
				guard.Violations = m.Violations
				guard.Samples = m.Samples
				guard.FoldIns = m.FoldIns
				guard.Recoveries = m.Recoveries
				guard.ReplicaFolds = m.ReplicaFolds
				m = guard
			}
			m.Decisions += r.Decisions
			m.Fallbacks += r.Fallbacks
			m.Violations += r.Violations
			m.Samples += r.Samples
			m.FoldIns += r.FoldIns
			m.Recoveries += r.Recoveries
			m.ReplicaFolds += r.ReplicaFolds
			merged[r.Bench] = m
		}
	}
	out := make([]BenchStatus, 0, len(merged))
	for _, m := range merged {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Bench < out[j].Bench })
	return out
}

// QPSFrom computes each benchmark's decisions-per-second between two
// polls: current rows against the previous poll's decision counters,
// elapsed seconds apart. A benchmark with no prior sample is omitted
// from the result — its rate is undefined on the first scrape (there is
// no interval yet), and rendering the raw counter as a rate is the
// classic first-scrape garbage this helper exists to prevent. A counter
// that went backwards (daemon restarted between polls) reports 0.
// Returns nil when there is no previous poll or no elapsed time.
func QPSFrom(rows []BenchStatus, prevDec map[string]float64, elapsed float64) map[string]float64 {
	if prevDec == nil || elapsed <= 0 {
		return nil
	}
	qps := make(map[string]float64, len(rows))
	for _, r := range rows {
		prev, ok := prevDec[r.Bench]
		if !ok {
			continue // bench first seen this poll: no interval to rate over
		}
		d := r.Decisions - prev
		if d < 0 {
			d = 0
		}
		qps[r.Bench] = d / elapsed
	}
	return qps
}

// RenderStatus prints the live status table. qps maps bench → decisions
// per second (QPSFrom); nil on a single-shot poll, and any bench absent
// from the map (first scrape for that bench) renders "-" rather than a
// fabricated rate. The rendering is deterministic for a given input.
func RenderStatus(w io.Writer, rows []BenchStatus, qps map[string]float64) {
	fmt.Fprintf(w, "%-12s %-10s %8s %8s %8s %8s %8s %9s %9s %5s %5s %5s %6s\n",
		"BENCH", "STATE", "LOWER", "TARGET", "MARGIN", "PSI", "L1", "DECIDED", "FALLBACK%",
		"FOLDS", "REPL", "RECOV", "QPS")
	for _, r := range rows {
		fb := "-"
		if r.Decisions > 0 {
			fb = fmt.Sprintf("%.2f", 100*r.Fallbacks/r.Decisions)
		}
		q := "-"
		if v, ok := qps[r.Bench]; ok {
			q = fmt.Sprintf("%.0f", v)
		}
		fmt.Fprintf(w, "%-12s %-10s %8.4f %8.4f %+8.4f %8.4f %8.4f %9.0f %9s %5.0f %5.0f %5.0f %6s\n",
			r.Bench, r.State, r.Lower, r.Target, r.Margin, r.PSI, r.L1, r.Decisions, fb,
			r.FoldIns, r.ReplicaFolds, r.Recoveries, q)
	}
}
