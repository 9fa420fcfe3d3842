package main

// The closed loop of serve_batch_jpeg and serve_drift_fft: each
// connection pipelines a batch of requests, waits for every response,
// then sends the next. It speaks the wire codec directly (the calls
// serve.Client makes) so each response is stamped as it is parsed: a
// decision's latency runs from its batch's send to its own response.

import (
	"bufio"
	"fmt"
	"net"
	"time"

	"mithra/internal/classifier"
	"mithra/internal/serve"
)

// closedTraceLayers are the in-process replays a traced batch carries
// (see closedConn.replay).
type closedTraceLayers struct {
	reg   *serve.Registry
	tab   *classifier.Table // private clone: classification uses table scratch
	probe serve.ErrorProbe  // non-nil when the daemon probes every request
	dst   []bool
	preq  serve.DecideRequest
}

// closedConn is one connection's loop state and record.
type closedConn struct {
	conn    net.Conn
	br      *bufio.Reader
	epoch   time.Time
	wbuf    []byte
	offs    []int
	payload []byte
	req     serve.DecideRequest
	resp    serve.DecideResponse

	lat     []float64 // per decision, µs
	ids     []uint32
	precise []bool
	failed  int
	// Traced runs trace every other batch; the latencies of traced and
	// untraced decisions are kept apart to measure the tracing overhead.
	traced, plain []float64
	tr            spanTrace
}

func newClosedConn(conn net.Conn, epoch time.Time) *closedConn {
	return &closedConn{conn: conn, br: bufio.NewReaderSize(conn, 64<<10), epoch: epoch,
		payload: make([]byte, 0, 256)}
}

func (cc *closedConn) now() int64 { return int64(time.Since(cc.epoch)) }

// batch sends requests base, base+1, ... for ins and reads every
// response. tl, when non-nil, traces the batch.
func (cc *closedConn) batch(bench string, base uint32, ins [][]float64, tl *closedTraceLayers) error {
	cc.conn.SetDeadline(time.Now().Add(30 * time.Second)) //nolint:errcheck // a missed deadline fails the read below
	t0 := cc.now()
	cc.req.Bench = bench
	cc.wbuf, cc.offs = cc.wbuf[:0], cc.offs[:0]
	for i, in := range ins {
		cc.req.ID, cc.req.In = base+uint32(i), in
		cc.offs = append(cc.offs, len(cc.wbuf))
		var err error
		if cc.wbuf, err = serve.AppendDecideRequest(cc.wbuf, &cc.req); err != nil {
			return err
		}
	}
	encE := cc.now()
	if _, err := cc.conn.Write(cc.wbuf); err != nil {
		return fmt.Errorf("send batch %d: %w", base, err)
	}
	n := len(ins)
	root := -1
	if tl != nil {
		root = cc.tr.add(span{name: "client.rtt", start: t0, parent: -1, req: base, n: n})
		cc.tr.add(span{name: "wire.encode", start: t0, end: encE, parent: root, req: base, n: n})
	}
	for range ins {
		var err error
		cc.payload, err = serve.ReadFrameInto(cc.br, cc.payload)
		if err != nil {
			return fmt.Errorf("read response in batch %d: %w", base, err)
		}
		t := cc.now()
		perr := serve.ParseDecideResponseInto(cc.payload, &cc.resp)
		if tl != nil {
			cc.tr.add(span{name: "wire.resp_parse", start: t, end: cc.now(), parent: root, req: cc.resp.ID, n: 1})
		}
		if perr != nil {
			msg, merr := serve.ParseMessage(cc.payload)
			if _, ok := msg.(*serve.ErrorResponse); merr != nil || !ok {
				return fmt.Errorf("unexpected response in batch %d: %v", base, perr)
			}
			cc.failed++
			continue
		}
		i := int(cc.resp.ID - base)
		if i < 0 || i >= n {
			return fmt.Errorf("response id %d outside batch %d+%d", cc.resp.ID, base, n)
		}
		if cc.resp.Fallback {
			cc.failed++
			continue
		}
		lat := float64(t-t0) / 1e3
		cc.lat = append(cc.lat, lat)
		cc.ids = append(cc.ids, cc.resp.ID)
		cc.precise = append(cc.precise, cc.resp.Precise)
		if tl != nil {
			cc.traced = append(cc.traced, lat)
		} else {
			cc.plain = append(cc.plain, lat)
		}
	}
	if tl != nil {
		cc.tr.spans[root].end = cc.now()
		cc.replay(bench, base, ins, root, tl)
	}
	return nil
}

// replay runs the daemon's work for a traced batch in this process, on
// the batch's own frames and inputs, once its responses are in: request
// parse, one registry lookup, the batch classification the daemon's
// worker runs, and the error probe when the daemon samples. Each is a
// replay child of the round trip. The scalar classifier on the same
// inputs follows as a root of its own, the like-for-like counterpart of
// the batch sweep.
func (cc *closedConn) replay(bench string, base uint32, ins [][]float64, root int, tl *closedTraceLayers) {
	n := len(ins)
	add := func(name string, per, parent int, fn func()) {
		s, e := fastest(cc.epoch, fn)
		cc.tr.add(span{name: name, start: s, end: e, parent: parent, req: base, n: per, replay: true})
	}
	add("wire.parse", n, root, func() {
		for i := range ins {
			end := len(cc.wbuf)
			if i+1 < n {
				end = cc.offs[i+1]
			}
			if _, err := serve.ParseDecideRequestInto(cc.wbuf[cc.offs[i]+4:end], &tl.preq); err != nil {
				panic(err) // the frames were just encoded
			}
		}
	})
	add("serve.registry_get", 1, root, func() { tl.reg.Get(bench) })
	add("classifier.classify_batch", n, root, func() { tl.tab.ClassifyBatch(ins, tl.dst[:n]) })
	if tl.probe != nil {
		add("serve.probe", n, root, func() {
			for _, in := range ins {
				tl.probe(in)
			}
		})
	}
	add("classifier.classify", n, -1, func() {
		for _, in := range ins {
			tl.tab.Classify(in)
		}
	})
}

// replayPasses is how many times a replay runs; its span keeps the
// fastest pass, so a moment the benchmark's own thread loses its CPU to
// the daemon is not charged to the layer.
const replayPasses = 3

// fastest runs fn replayPasses times and returns the start and end,
// since epoch, of its fastest pass.
func fastest(epoch time.Time, fn func()) (start, end int64) {
	for k := 0; k < replayPasses; k++ {
		s := int64(time.Since(epoch))
		fn()
		e := int64(time.Since(epoch))
		if k == 0 || e-s < end-start {
			start, end = s, e
		}
	}
	return start, end
}

// closedRecord merges the connections' records.
type closedRecord struct {
	lat, traced, plain []float64
	ids                []uint32
	precise            []bool
	failed             int
	tr                 *spanTrace
}

func mergeClosed(ccs []*closedConn) closedRecord {
	var r closedRecord
	var trs []*spanTrace
	for _, cc := range ccs {
		r.lat = append(r.lat, cc.lat...)
		r.traced = append(r.traced, cc.traced...)
		r.plain = append(r.plain, cc.plain...)
		r.ids = append(r.ids, cc.ids...)
		r.precise = append(r.precise, cc.precise...)
		r.failed += cc.failed
		trs = append(trs, &cc.tr)
	}
	r.tr = mergeTraces(trs...)
	return r
}

// spanLayers fills the per-layer metrics a closed loop's spans give.
func spanLayers(r closedRecord, m map[string]float64) {
	self := selfPerDecision(r.tr.spans)
	m["client.rtt_us"] = median(durations(r.tr.spans, "client.rtt")) / 1e3
	m["serve.unattributed_us"] = self["client.rtt"] / 1e3
	for _, l := range []string{"wire.encode", "wire.parse", "wire.resp_parse", "serve.registry_get",
		"classifier.classify", "classifier.classify_batch"} {
		m[l+"_ns"] = self[l]
	}
	m["trace.overhead_us"] = median(r.traced) - median(r.plain)
	m["decide_p99_us"] = windowed(r.plain, decisionWindow, 99)[0]
	// A closed loop sends when the previous batch returns: it is never late.
	m["loadgen.late_p99_us"] = 0
}

// windowedConns returns the decision latency p50 and p99 as medians over
// windows (see windowed), each window drawn from one connection's
// decisions in completion order.
func windowedConns(ccs []*closedConn) []float64 {
	var p50s, p99s []float64
	for _, cc := range ccs {
		for lo := 0; lo+decisionWindow <= len(cc.lat); lo += decisionWindow {
			s := sortedCopy(cc.lat[lo : lo+decisionWindow])
			p50s, p99s = append(p50s, percentile(s, 50)), append(p99s, percentile(s, 99))
		}
	}
	if len(p50s) == 0 {
		var all []float64
		for _, cc := range ccs {
			all = append(all, cc.lat...)
		}
		return windowed(all, decisionWindow, 50, 99)
	}
	return []float64{median(p50s), median(p99s)}
}
