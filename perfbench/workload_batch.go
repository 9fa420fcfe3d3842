package main

// serve_batch_jpeg: a closed loop over two connections, each pipelining
// batches of 32 jpeg invocations (64-dimensional inputs, a 30 KB table)
// drawn from many seeded images. Classification does most of the work
// and the per-request transport cost is spread over the batch: the
// opposite split to serve_open_fft.

import (
	"runtime"
	"sync"
	"time"

	"mithra/internal/serve"
)

const (
	batchConns = 2
	batchDepth = 32
)

func runBatchJPEG(c *config) (*outcome, error) {
	out := newOutcome()
	sv, err := compileServed(c, deploymentFor(c, "jpeg"), out)
	if err != nil {
		return nil, err
	}
	// 256 images' worth of 8x8 blocks at medium scale: enough images that
	// the accelerated share varies little from seed to seed.
	pool, err := benchInputs("jpeg", scaleOf(sv.spec.scale), c.seed, c.workload, 1<<16)
	if err != nil {
		return nil, err
	}
	inputOf := func(id uint32) []float64 { return pool[int(id)%len(pool)] }
	d, setup, err := bootSeveral(c, []string{"-snapshot", sv.artifact, "-freeze"}, "jpeg", pool[0], setupReps)
	if err != nil {
		return nil, err
	}
	out.attempted += setupReps
	stopped := false
	defer func() {
		if !stopped {
			d.kill()
		}
	}()

	// The client's encode and parse are cheap beside the daemon's work;
	// one processor for them leaves the daemon at least one CPU of two,
	// which keeps the two processes from trading CPUs run to run.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	epoch := time.Now()
	ccs := make([]*closedConn, batchConns)
	for i := range ccs {
		conn, err := d.dial()
		if err != nil {
			return nil, err
		}
		defer conn.Close()
		ccs[i] = newClosedConn(conn, epoch)
	}
	deadline := time.Now().Add(time.Duration(c.seconds * float64(time.Second)))
	errs := make([]error, batchConns)
	var wg sync.WaitGroup
	start := time.Now()
	for ci, cc := range ccs {
		var tl *closedTraceLayers
		if c.trace {
			tl = &closedTraceLayers{reg: serve.NewRegistry(sv.snap), tab: sv.snap.Table.Clone(), dst: make([]bool, batchDepth)}
		}
		wg.Add(1)
		go func(ci int, cc *closedConn, tl *closedTraceLayers) {
			defer wg.Done()
			ins := make([][]float64, batchDepth)
			// Connection ci owns batches k*batchConns+ci; request 0 was
			// the set-up probe.
			for k := 0; time.Now().Before(deadline); k++ {
				base := uint32(1 + (k*batchConns+ci)*batchDepth)
				for i := range ins {
					ins[i] = inputOf(base + uint32(i))
				}
				var t *closedTraceLayers
				if k%2 == 0 {
					t = tl
				}
				if errs[ci] = cc.batch("jpeg", base, ins, t); errs[ci] != nil {
					return
				}
			}
		}(ci, cc, tl)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	rec := mergeClosed(ccs)
	out.attempted += int64(len(rec.ids) + rec.failed)
	out.failed += int64(rec.failed)
	out.failed += int64(decisionCheck(sv.snap, inputOf, rec.ids, rec.precise, out))

	var prom map[string]float64
	if c.trace {
		if prom, err = d.scrape(); err != nil {
			return nil, err
		}
	}
	peak, err := d.stop()
	stopped = true
	if err != nil {
		return nil, err
	}
	lat := summarize(rec.lat)
	w := windowedConns(ccs)
	dps := float64(len(rec.ids)) / elapsed
	c.logf("closed loop: %d conns x pipeline %d, %d decisions in %.2fs, p50 %.1fus p99 %.1fus (window medians); whole run p50 %.1fus p99 %.1fus p%g %.1fus (n=%d)",
		batchConns, batchDepth, len(rec.ids), elapsed, w[0], w[1], lat.p50, lat.p99, lat.tailP, lat.tail, lat.n)

	m := out.m
	if !c.trace {
		m["setup_s"] = setup
		m["decide_p50_us"] = w[0]
		m["decisions_per_s"] = dps
		m["sustained_dps"] = dps
		m["accel_rate"] = accelOverPass(rec.ids, rec.precise, len(pool))
		m["recover_decisions"] = noDrift
		m["offline_s"] = sv.comp.OfflineS
		m["speedup_x"] = sv.comp.Speedup
		m["peak_rss_mb"] = peak
		m["ok_rate"] = okRate(out)
		return out, nil
	}
	if err := writeSpans(spanFile(c), rec.tr.spans); err != nil {
		return nil, err
	}
	spanLayers(rec, m)
	counterMetrics(prom, "jpeg", m)
	if err := compileLayers(sv.comp, m); err != nil {
		return nil, err
	}
	if err := offPathLayers(c, sv.blob, pool, m); err != nil {
		return nil, err
	}
	reportSplit(c, m, dps)
	return out, nil
}

// accelOverPass is the share of approximate decisions among requests
// 1..pool, one pass over the input pool, so the figure depends on the
// seed alone and not on how many batches a run managed. A run too short
// for a full pass uses every decision it has.
func accelOverPass(ids []uint32, precise []bool, pool int) float64 {
	var n, approx, all, allApprox int
	for i, id := range ids {
		all++
		if !precise[i] {
			allApprox++
		}
		if id >= 1 && int(id) <= pool {
			n++
			if !precise[i] {
				approx++
			}
		}
	}
	if n == pool {
		return float64(approx) / float64(n)
	}
	return float64(allApprox) / float64(max(all, 1))
}

// reportSplit states classification's share of a round trip and of the
// traced run's per-decision time (tracing slows the loop, so an untraced
// run's decisions_per_s gives the undisturbed share).
func reportSplit(c *config, m map[string]float64, dps float64) {
	perDecisionUs := 1e6 / dps
	c.logf("split: classify %.0fns batch %.0fns; %.1f%% of client.rtt_us %.1fus; %.1f%% of the traced run's per-decision time %.2fus; tracing overhead %.2fus",
		m["classifier.classify_ns"], m["classifier.classify_batch_ns"],
		100*m["classifier.classify_ns"]/1e3/m["client.rtt_us"], m["client.rtt_us"],
		100*m["classifier.classify_batch_ns"]/1e3/perDecisionUs, perDecisionUs, m["trace.overhead_us"])
}
