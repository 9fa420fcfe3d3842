package main

// `mithra watch` is the live guarantee console (DESIGN.md §14): it polls
// a mithrad debug endpoint's Prometheus exposition (/metrics.prom) and
// renders one status table per poll — guarantee state, the current
// Clopper-Pearson bound against the target, input-divergence gauges,
// served decisions, fallback rate, and QPS computed from successive
// polls. `-once` takes a single snapshot (the deterministic-under-test
// mode: no QPS column, no clock-dependent output).

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"mithra/internal/obs"
	"mithra/internal/watch"
)

// pollProm fetches and parses one exposition snapshot.
func pollProm(url string) (map[string]float64, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("watch: %s answered %s", url, resp.Status)
	}
	return watch.ParseProm(resp.Body)
}

func cmdWatch(args []string, stdout, stderr io.Writer) int {
	var (
		addr     *string
		interval *time.Duration
		polls    *int
		once     *bool
	)
	return command("watch", args, stderr, func(fs *flag.FlagSet, of *obsFlags) {
		addr = fs.String("addr", "localhost:6060", "mithrad debug address(es) serving /metrics.prom; comma-separated for a cluster (per-node rows are merged)")
		interval = fs.Duration("interval", time.Second, "poll interval")
		polls = fs.Int("n", 0, "number of polls (0 = until interrupted)")
		once = fs.Bool("once", false, "render one snapshot and exit (no QPS)")
		of.registerLog(fs)
	}, func(_ *flag.FlagSet, _ *obsFlags, _ *obs.Logger) error {
		// Multiple addresses watch a cluster: each node is polled and the
		// per-node rows are merged (counters summed, guarantee fields from
		// the benchmark's home node) into one table per poll.
		var urls []string
		for _, a := range strings.Split(*addr, ",") {
			if a = strings.TrimSpace(a); a != "" {
				urls = append(urls, "http://"+a+"/metrics.prom")
			}
		}
		if len(urls) == 0 {
			return usageErrf("-addr needs at least one address")
		}
		limit := *polls
		if *once {
			limit = 1
		}
		var prevDec map[string]float64
		var prevAt time.Time
		for i := 0; limit == 0 || i < limit; i++ {
			if i > 0 {
				time.Sleep(*interval)
				fmt.Fprintln(stdout)
			}
			perNode := make([][]watch.BenchStatus, 0, len(urls))
			for _, url := range urls {
				metrics, err := pollProm(url)
				if err != nil {
					return err
				}
				perNode = append(perNode, watch.StatusFrom(metrics))
			}
			now := time.Now()
			rows := watch.MergeStatus(perNode)
			if len(rows) == 0 {
				fmt.Fprintln(stdout, "no guarantee monitors armed (start mithrad with -sample-rate > 0)")
			}
			// QPSFrom omits benches without a prior sample (the whole first
			// poll, and any bench that appears mid-watch): their QPS column
			// renders "-" instead of a counter misread as a rate.
			qps := watch.QPSFrom(rows, prevDec, now.Sub(prevAt).Seconds())
			watch.RenderStatus(stdout, rows, qps)
			prevDec = make(map[string]float64, len(rows))
			for _, r := range rows {
				prevDec[r.Bench] = r.Decisions
			}
			prevAt = now
		}
		return nil
	})
}
