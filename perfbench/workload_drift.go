package main

// serve_drift_fft: writes beside reads. mithrad samples every decision
// (-sample-rate 1) and re-checks the guarantee over windows of 32
// (-recheck-window 32) with a WAL, so the sampler, the error probe, the
// guarantee monitor, fold-ins, durable WAL snapshots and registry swaps
// all do work. The stream is the fft test-scale dataset replayed in a
// closed loop (one connection, pipeline 16); from the onset on, a
// seasonal drift pulls inputs toward x=0.459, the snapshot's known
// generalization-gap cell, so a violation and its repair are
// reproducible, while the troughs of each season leave part of the
// stream undrifted. Each scenario runs on a fresh daemon and WAL, and
// scenarios repeat for the run's duration.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"mithra/internal/dataset"
	"mithra/internal/serve"
)

const (
	driftDepth       = 16
	driftMaxFoldIns  = 8
	driftOnsetPasses = 4
	driftLen         = 16384
)

// driftStream is the scenario's request stream, by request ID: the pool
// replayed in order, drifted from onset on. The season length equals the
// pool length, so every pass drifts each input the same way.
func driftStream(pool [][]float64, length int) ([][]float64, int, error) {
	p := len(pool)
	onset := driftOnsetPasses * p
	dr, err := dataset.ParseDrift(fmt.Sprintf("kind=seasonal,period=%d,mix=1,shift=0.459,scale=0,seed=3", p))
	if err != nil {
		return nil, 0, err
	}
	out := make([][]float64, length)
	for i := range out {
		if i < onset {
			out[i] = pool[i%p]
		} else {
			out[i] = dr.Apply(nil, pool[i%p], uint64(i))
		}
	}
	return out, onset, nil
}

// journalNote is the part of a run-journal line the checks read.
type journalNote struct {
	T     string         `json:"t"`
	Name  string         `json:"name"`
	Attrs map[string]any `json:"attrs"`
}

// recoveryWalk checks one scenario's journal: the guarantee walks
// holding → violated → recovering → holding, no episode exceeds the
// fold-in bound, and none reports recovery_exceeded. It returns the
// decisions from onset until the guarantee first holds again.
func recoveryWalk(path string, onset int) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var (
		violated, recovering bool
		last                 string
		recovered            = -1
	)
	for _, line := range bytes.Split(data, []byte("\n")) {
		var n journalNote
		if json.Unmarshal(line, &n) != nil || n.T != "note" {
			continue
		}
		switch n.Name {
		case "guarantee":
			to, _ := n.Attrs["to"].(string)
			seen, _ := n.Attrs["seen"].(float64)
			last = to
			switch {
			case to == "violated":
				violated = true
			case to == "recovering" && violated:
				recovering = true
			case to == "holding" && recovering && recovered < 0:
				recovered = int(seen) - onset
			}
		case "recovery_exceeded":
			return 0, fmt.Errorf("journal reports recovery_exceeded")
		case "recovery":
			if f, _ := n.Attrs["foldins"].(float64); f > driftMaxFoldIns {
				return 0, fmt.Errorf("recovery took %v fold-ins, bound %d", f, driftMaxFoldIns)
			}
		}
	}
	if recovered < 0 || last != "holding" {
		return 0, fmt.Errorf("guarantee did not walk holding → violated → recovering → holding (violated=%v recovering=%v last=%q)",
			violated, recovering, last)
	}
	return recovered, nil
}

func runDriftFFT(c *config) (*outcome, error) {
	out := newOutcome()
	spec := compileSpec{bench: "fft", scale: "test", g: driftG}
	sv, err := compileServed(c, spec, out)
	if err != nil {
		return nil, err
	}
	// One test-scale dataset is the replayed pool.
	pool, err := benchInputs("fft", scaleOf(spec.scale), c.seed, c.workload, 1)
	if err != nil {
		return nil, err
	}
	stream, onset, err := driftStream(pool, driftLen)
	if err != nil {
		return nil, err
	}

	var (
		setups, peaks, lat, traced, plain []float64
		ccs                               []*closedConn
		recovers                          []int
		prom                              = map[string]float64{}
		streamSecs                        float64
		decided, approx                   int
		trs                               []*spanTrace
	)
	epoch := time.Now()
	deadline := epoch.Add(time.Duration(c.seconds * float64(time.Second)))
	for rep := 0; rep == 0 || time.Now().Before(deadline); rep++ {
		dir := filepath.Join(c.workDir, "drift")
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		if err := ensureDir(dir); err != nil {
			return nil, err
		}
		journal := filepath.Join(dir, "journal.jsonl")
		args := []string{"-snapshot", sv.artifact, "-sample-rate", "1", "-sample-seed", "17",
			"-recheck-window", "32", "-max-foldins-to-recover", fmt.Sprint(driftMaxFoldIns), "-watch-lag", "64",
			"-wal-dir", filepath.Join(dir, "wal"), "-journal", journal}
		d, setup, err := bootDaemon(c, args, "fft", 0, stream[0])
		if err != nil {
			return nil, err
		}
		out.attempted++
		setups = append(setups, setup)
		conn, err := d.dial()
		if err != nil {
			d.kill()
			return nil, err
		}
		cc := newClosedConn(conn, epoch)
		var tl *closedTraceLayers
		if c.trace {
			tl = &closedTraceLayers{reg: serve.NewRegistry(sv.snap), tab: sv.snap.Table.Clone(),
				probe: sv.snap.NewProbe(), dst: make([]bool, driftDepth)}
		}
		t0 := time.Now()
		for k, base := 0, 1; base < len(stream); k, base = k+1, base+driftDepth {
			var t *closedTraceLayers
			if k%2 == 0 {
				t = tl
			}
			if err = cc.batch("fft", uint32(base), stream[base:min(base+driftDepth, len(stream))], t); err != nil {
				break
			}
		}
		streamSecs += time.Since(t0).Seconds()
		conn.Close()
		if err != nil {
			d.kill()
			return nil, err
		}
		if c.trace {
			p, err := d.scrape()
			if err != nil {
				d.kill()
				return nil, err
			}
			addCounters(prom, p)
		}
		peak, err := d.stop()
		if err != nil {
			return nil, err
		}
		peaks = append(peaks, peak)

		out.attempted += int64(len(cc.ids) + cc.failed)
		out.failed += int64(cc.failed)
		decided += len(cc.ids)
		for i := range cc.ids {
			if !cc.precise[i] {
				approx++
			}
		}
		lat = append(lat, cc.lat...)
		ccs = append(ccs, cc)
		traced, plain = append(traced, cc.traced...), append(plain, cc.plain...)
		trs = append(trs, &cc.tr)
		// Before the onset nothing has drifted or been repaired: those
		// decisions must match an offline replay exactly.
		var preIDs []uint32
		var prePrecise []bool
		for i, id := range cc.ids {
			if int(id) < onset {
				preIDs, prePrecise = append(preIDs, id), append(prePrecise, cc.precise[i])
			}
		}
		out.failed += int64(decisionCheck(sv.snap, func(id uint32) []float64 { return stream[id] }, preIDs, prePrecise, out))
		r, err := recoveryWalk(journal, onset)
		if err != nil {
			out.failed++
			out.problem("scenario %d: %v", rep, err)
			continue
		}
		recovers = append(recovers, r)
		if r != recovers[0] {
			out.problem("recover_decisions differs between scenarios: %d vs %d", r, recovers[0])
		}
	}
	lsum := summarize(lat)
	w := windowedConns(ccs)
	dps := float64(decided) / streamSecs
	c.logf("drift: %d scenarios of %d decisions (onset %d), p50 %.1fus p99 %.1fus (window medians); whole run p50 %.1fus p99 %.1fus p%g %.1fus (n=%d), %.0f decisions/s, recover %v",
		len(setups), len(stream), onset, w[0], w[1], lsum.p50, lsum.p99, lsum.tailP, lsum.tail, lsum.n, dps, recovers)

	m := out.m
	if !c.trace {
		m["setup_s"] = median(setups)
		m["decide_p50_us"] = w[0]
		m["decisions_per_s"] = dps
		m["sustained_dps"] = dps
		m["accel_rate"] = float64(approx) / float64(max(decided, 1))
		if len(recovers) > 0 {
			m["recover_decisions"] = float64(recovers[0])
		} else {
			// No scenario recovered; the check above already failed the run.
			m["recover_decisions"] = float64(len(stream))
		}
		m["offline_s"] = sv.comp.OfflineS
		m["speedup_x"] = sv.comp.Speedup
		m["peak_rss_mb"] = median(peaks)
		m["ok_rate"] = okRate(out)
		return out, nil
	}
	rec := closedRecord{traced: traced, plain: plain, tr: mergeTraces(trs...)}
	if err := writeSpans(spanFile(c), rec.tr.spans); err != nil {
		return nil, err
	}
	spanLayers(rec, m)
	counterMetrics(prom, "fft", m)
	if err := compileLayers(sv.comp, m); err != nil {
		return nil, err
	}
	if err := offPathLayers(c, sv.blob, stream[onset:], m); err != nil {
		return nil, err
	}
	// Here the probe is on the decision path; its span is the figure.
	m["serve.probe_ns"] = selfPerDecision(rec.tr.spans)["serve.probe"]
	return out, nil
}
