package main

// serve_open_fft: an open loop at fixed offered rates over one
// connection, pipeline 1, against a frozen fft snapshot with sampling
// off. fft's table input is one-dimensional, so classification is a
// sliver of the round trip and the transport (reader, queue hand-off,
// worker wake-up, writev, syscalls) does almost all the work.

import (
	"bufio"
	"runtime"
	"time"

	"mithra/internal/serve"
)

// openLadder is the fixed rate ladder, in requests per second, in
// ascending order. A rung holds when its latency stays within the limit,
// no request fails, the generator keeps its schedule and the achieved
// rate keeps up with the offered one (no growing backlog). The top sits
// below what this loop sustains on a 2-CPU machine shared by the daemon
// and the generator, so sustained_dps guards that rate rather than
// searching for the limit: a ladder that straddles the limit flips
// between rungs from run to run.
var openLadder = []float64{5000, 10000, 20000}

const (
	// openRef is the rung whose latency, rate and accel share are the
	// workload's decide_* figures: well inside capacity, so they measure
	// service time rather than queueing. It gets refShare of the run.
	openRef  = 10000.0
	refShare = 0.6
	// warmShare of the run is spent warming up at the reference rate.
	warmShare = 0.05
	// latencyLimitUs bounds decide_p99_us on a sustained rung. It is far
	// above the daemon's own tail because the shared virtual machines this
	// runs on lose their CPUs for milliseconds at a time.
	latencyLimitUs = 5000.0
	// lateLimitUs bounds the generator's median lateness. A generator
	// that cannot keep its schedule is late on most requests; one stalled
	// now and then by the machine is late on a few, which latency from
	// the due time already charges.
	lateLimitUs = 250.0
	// setupReps is how many times each run boots the daemon.
	setupReps = 7
)

// rungStats summarizes a rung: latency and lateness percentiles are
// medians over windows of decisionWindow requests (see windowed).
type rungStats struct {
	p50, p99, lateP50      float64
	lateP99                float64 // whole rung
	tailP, tail            float64 // whole rung
	achieved               float64
	answered, fail, approx int
	pass                   bool
}

func (r *openRung) stats() rungStats {
	var st rungStats
	var lat, late []float64
	var last int64
	for i := range r.due {
		if r.sent[i] != 0 {
			late = append(late, float64(r.sent[i]-r.due[i])/1e3)
		}
		if r.recv[i] == 0 || r.bad[i] {
			st.fail++
			continue
		}
		st.answered++
		if !r.precise[i] {
			st.approx++
		}
		lat = append(lat, float64(r.recv[i]-r.due[i])/1e3)
		last = max(last, r.recv[i])
	}
	w := windowed(lat, decisionWindow, 50, 99)
	st.p50, st.p99 = w[0], w[1]
	st.lateP50 = windowed(late, decisionWindow, 50)[0]
	st.lateP99 = percentile(sortedCopy(late), 99)
	sum := summarize(lat)
	st.tailP, st.tail = sum.tailP, sum.tail
	if span := float64(last-r.due[0]) / 1e9; span > 0 {
		st.achieved = float64(st.answered) / span
	}
	st.pass = st.fail == 0 && st.p99 <= latencyLimitUs && st.lateP50 <= lateLimitUs &&
		st.achieved >= 0.97*r.rate
	return st
}

func runOpenFFT(c *config) (*outcome, error) {
	out := newOutcome()
	sv, err := compileServed(c, deploymentFor(c, "fft"), out)
	if err != nil {
		return nil, err
	}
	pool, err := benchInputs("fft", scaleOf(sv.spec.scale), c.seed, c.workload, 1<<16)
	if err != nil {
		return nil, err
	}
	o := &openRun{c: c, out: out, bench: "fft", epoch: time.Now(), nextID: 1,
		inputOf: func(id uint32) []float64 { return pool[int(id)%len(pool)] },
		tl: &openTraceLayers{reg: serve.NewRegistry(sv.snap), tab: sv.snap.Table.Clone(),
			dst: make([]bool, 1), one: make([][]float64, 1)}}
	args := []string{"-snapshot", sv.artifact, "-freeze"}
	defer func() {
		if o.d != nil {
			o.d.kill()
		}
	}()
	if c.trace {
		return o.traced(sv, pool, args)
	}

	// The reference rung runs in segments, one on each daemon the run
	// boots, after a short warm-up on each; its figures are medians over
	// the segments' window medians. On two CPUs shared by the daemon and
	// the generator, where the scheduler places their threads shifts
	// latency from one process start to the next, and fresh daemons
	// average that out. The other rungs run on the last daemon.
	var setups, p50s, p99s, lates, rates []float64
	var answered, approx int
	segN := max(1, int(openRef*c.seconds*refShare/setupReps))
	warmN := max(1, int(openRef*c.seconds*warmShare/setupReps))
	for k := 0; k < setupReps; k++ {
		if o.d != nil {
			if _, err := o.d.stop(); err != nil {
				return nil, err
			}
			o.d = nil
		}
		d, setup, err := bootDaemon(c, args, "fft", 0, pool[0])
		if err != nil {
			return nil, err
		}
		o.d = d
		out.attempted++
		setups = append(setups, setup)
		if _, _, err := o.rung(openRef, warmN, false, false); err != nil {
			return nil, err
		}
		_, st, err := o.rung(openRef, segN, false, true)
		if err != nil {
			return nil, err
		}
		p50s, p99s, lates, rates = append(p50s, st.p50), append(p99s, st.p99), append(lates, st.lateP50), append(rates, st.achieved)
		answered, approx = answered+st.answered, approx+st.approx
	}
	lateP50 := median(lates)
	c.logf("reference %6.0f/s: %d segments of %d: p50 %.1fus p99 %.1fus late p50 %.1fus (medians over segments)",
		openRef, setupReps, segN, median(p50s), median(p99s), lateP50)
	if lateP50 > lateLimitUs {
		out.problem("generator fell behind at the reference rate: late p50 %.1fus > %.0fus, the run is not an open loop", lateP50, lateLimitUs)
	}

	// sustained_dps is the achieved rate of the highest rung that holds;
	// the ladder ascends, so a later holding rung replaces an earlier one.
	var sustained float64
	for _, rate := range openLadder {
		pass, achieved := median(p99s) <= latencyLimitUs && lateP50 <= lateLimitUs, median(rates)
		if rate != openRef {
			_, st, err := o.rung(rate, max(1, int(rate*c.seconds*(1-refShare)/float64(len(openLadder)-1))), false, true)
			if err != nil {
				return nil, err
			}
			pass, achieved = st.pass, st.achieved
		}
		if pass {
			sustained = achieved
		}
	}
	out.failed += int64(decisionCheck(sv.snap, o.inputOf, o.ids, o.precise, out))
	peak, err := o.d.stop()
	o.d = nil
	if err != nil {
		return nil, err
	}
	m := out.m
	m["setup_s"] = median(setups)
	m["decide_p50_us"] = median(p50s)
	m["decisions_per_s"] = median(rates)
	// A run in which no rung holds has sustained nothing; 1/s keeps the
	// figure positive, as the result format requires.
	m["sustained_dps"] = max(sustained, 1)
	m["accel_rate"] = float64(approx) / float64(max(answered, 1))
	m["recover_decisions"] = noDrift
	m["offline_s"] = sv.comp.OfflineS
	m["speedup_x"] = sv.comp.Speedup
	m["peak_rss_mb"] = peak
	m["ok_rate"] = okRate(out)
	return out, nil
}

// openRun is one serve_open_fft run's state.
type openRun struct {
	c       *config
	out     *outcome
	d       *daemon
	bench   string
	epoch   time.Time
	nextID  uint32
	inputOf func(uint32) []float64
	tl      *openTraceLayers
	// Served decisions, for the offline replay check.
	ids     []uint32
	precise []bool
}

// rung runs n requests at rate on a fresh connection to the current
// daemon. A recorded rung counts toward attempted/failed and the
// decision check, and is logged.
func (o *openRun) rung(rate float64, n int, traced, record bool) (*openRung, rungStats, error) {
	r := newOpenRung(rate, n, o.nextID, traced)
	o.nextID += uint32(n)
	// Collect now, so the generator's garbage collector stays idle during
	// the rung (the rung itself allocates nothing).
	runtime.GC()
	conn, err := o.d.dial()
	if err != nil {
		return nil, rungStats{}, err
	}
	runOpenRung(conn, bufio.NewReaderSize(conn, 64<<10), o.epoch, o.bench, o.inputOf, r, o.tl, 10*time.Second)
	conn.Close()
	if r.sendErr != nil {
		return nil, rungStats{}, r.sendErr
	}
	st := r.stats()
	if !record {
		return r, st, nil
	}
	o.out.attempted += int64(n)
	o.out.failed += int64(st.fail)
	for i := range r.due {
		if r.recv[i] != 0 && !r.bad[i] {
			o.ids = append(o.ids, r.firstID+uint32(i))
			o.precise = append(o.precise, r.precise[i])
		}
	}
	o.c.logf("rung %6.0f/s: n=%d p50 %.1fus p99 %.1fus late p50 %.1fus (window medians); p%g %.1fus late p99 %.1fus; achieved %.0f/s failed %d pass=%v",
		rate, n, st.p50, st.p99, st.lateP50, st.tailP, st.tail, st.lateP99, st.achieved, st.fail, st.pass)
	if r.recvErr != nil && st.fail > 0 {
		o.c.logf("rung %.0f/s receive: %v", rate, r.recvErr)
	}
	return r, st, nil
}

// traced is the traced run: one daemon, a warm-up, then the reference
// rate for the whole run with every other request traced.
func (o *openRun) traced(sv *served, pool [][]float64, args []string) (*outcome, error) {
	c, out := o.c, o.out
	d, _, err := bootDaemon(c, args, o.bench, 0, pool[0])
	if err != nil {
		return nil, err
	}
	o.d = d
	out.attempted++
	if _, _, err := o.rung(openRef, max(1, int(openRef*c.seconds*warmShare)), false, false); err != nil {
		return nil, err
	}
	r, st, err := o.rung(openRef, max(1, int(openRef*c.seconds)), true, true)
	if err != nil {
		return nil, err
	}
	out.failed += int64(decisionCheck(sv.snap, o.inputOf, o.ids, o.precise, out))
	prom, err := d.scrape()
	if err != nil {
		return nil, err
	}
	if _, err := d.stop(); err != nil {
		return nil, err
	}
	o.d = nil

	tr := openSpans(r)
	if err := writeSpans(spanFile(c), tr.spans); err != nil {
		return nil, err
	}
	m := out.m
	self := selfPerDecision(tr.spans)
	m["client.rtt_us"] = median(durations(tr.spans, "client.rtt")) / 1e3
	m["serve.unattributed_us"] = self["client.rtt"] / 1e3
	for _, l := range []string{"wire.encode", "wire.parse", "wire.resp_parse", "serve.registry_get",
		"classifier.classify", "classifier.classify_batch"} {
		m[l+"_ns"] = self[l]
	}
	m["trace.overhead_us"] = tracedOverhead(r)
	m["decide_p99_us"] = windowed(untracedLatencies(r), decisionWindow, 99)[0]
	m["loadgen.late_p99_us"] = st.lateP99
	counterMetrics(prom, o.bench, m)
	if err := compileLayers(sv.comp, m); err != nil {
		return nil, err
	}
	if err := offPathLayers(c, sv.blob, pool, m); err != nil {
		return nil, err
	}
	c.logf("split: classify %.0fns = %.2f%% of client.rtt_us %.1fus; unattributed %.1fus; tracing overhead %.2fus",
		m["classifier.classify_ns"], 100*m["classifier.classify_ns"]/1e3/m["client.rtt_us"], m["client.rtt_us"],
		m["serve.unattributed_us"], m["trace.overhead_us"])
	return out, nil
}

// noDrift is recover_decisions on workloads without a drift episode:
// nothing needs recovering, and the result format requires a positive
// value, so they report the constant 1.
const noDrift = 1

func okRate(o *outcome) float64 { return 1 - float64(o.failed)/float64(o.attempted) }

// openSpans builds the traced requests' span trees: the round trip from
// encode to response parse, with the client's encode and response parse
// as children and replays of the daemon's per-request work (parse,
// registry lookup, scalar classify) as replay children. The batch
// classify of the same input is a root of its own, the like-for-like
// counterpart.
func openSpans(r *openRung) *spanTrace {
	t := &spanTrace{}
	for i := 0; i < len(r.due); i += 2 {
		if r.recv[i] == 0 || r.bad[i] || r.encS[i] == 0 {
			continue
		}
		id := r.firstID + uint32(i)
		root := t.add(span{name: "client.rtt", start: r.encS[i], end: r.rpE[i], parent: -1, req: id, n: 1})
		for _, ch := range []struct {
			name   string
			s, e   int64
			replay bool
		}{
			{"wire.encode", r.encS[i], r.encE[i], false},
			{"wire.resp_parse", r.rpS[i], r.rpE[i], false},
			{"wire.parse", r.parS[i], r.parE[i], true},
			{"serve.registry_get", r.getS[i], r.getE[i], true},
			{"classifier.classify", r.clsS[i], r.clsE[i], true},
		} {
			t.add(span{name: ch.name, start: ch.s, end: ch.e, parent: root, req: id, n: 1, replay: ch.replay})
		}
		t.add(span{name: "classifier.classify_batch", start: r.cbS[i], end: r.cbE[i], parent: -1, req: id, n: 1, replay: true})
	}
	return t
}

// tracedOverhead is the median latency of traced requests minus that of
// the untraced ones interleaved with them in the same traced run.
func tracedOverhead(r *openRung) float64 {
	var traced []float64
	for i := 0; i < len(r.due); i += 2 {
		if r.recv[i] != 0 && !r.bad[i] {
			traced = append(traced, float64(r.recv[i]-r.due[i])/1e3)
		}
	}
	return median(traced) - median(untracedLatencies(r))
}

// untracedLatencies returns the latencies, from due, of a traced rung's
// untraced (odd) requests, in order.
func untracedLatencies(r *openRung) []float64 {
	var plain []float64
	for i := 1; i < len(r.due); i += 2 {
		if r.recv[i] != 0 && !r.bad[i] {
			plain = append(plain, float64(r.recv[i]-r.due[i])/1e3)
		}
	}
	return plain
}
