package main

// Layer timings measured in-process around one public call each, on the
// workload's own snapshot and inputs: the calls a decision does not
// block on. The request-path layers come from spans instead (see the
// workload files).

import (
	"os"
	"time"

	"mithra/internal/core"
	"mithra/internal/serve"
	"mithra/internal/watch"
)

// driftWatch is the guarantee-monitor configuration serve_drift_fft
// runs mithrad with (-recheck-window 32 -max-foldins-to-recover 8
// -watch-lag 64); watch.observe_ns is timed with it on every workload.
var driftWatch = watch.Config{
	Enabled: true, Window: 32, Lag: 64,
	Recheck: watch.Recheck{Enabled: true, RepairEvery: 32, MaxFoldIns: 8},
}

// timeEach returns the median nanoseconds of fn over reps calls.
func timeEach(reps int, fn func(i int)) float64 {
	xs := make([]float64, reps)
	for i := range xs {
		t := time.Now()
		fn(i)
		xs[i] = float64(time.Since(t).Nanoseconds())
	}
	return median(xs)
}

// offPathLayers times the snapshot load, the error probe, the guarantee
// monitor, and the fold-in/export/install/WAL write path.
func offPathLayers(c *config, blob []byte, inputs [][]float64, m map[string]float64) error {
	var loadErr error
	m["core.load_program_ms"] = timeEach(9, func(int) {
		if _, err := core.LoadProgram(blob); err != nil {
			loadErr = err
		}
	}) / 1e6
	if loadErr != nil {
		return loadErr
	}
	snap, err := serve.LoadSnapshot(blob)
	if err != nil {
		return err
	}
	ins := inputs[:min(len(inputs), 4096)]
	probe := snap.NewProbe()
	view := snap.Table.ConcurrentView()
	bad := make([]bool, len(ins))
	precise := make([]bool, len(ins))
	m["serve.probe_ns"] = timeEach(len(ins), func(i int) { bad[i] = probe(ins[i]) > snap.Threshold })
	for i, in := range ins {
		precise[i] = view.Classify(in)
	}

	// The monitor folds in through a private table copy, as the daemon's
	// updater does, so a fold-in inside Observe costs what it costs there.
	mon := watch.NewMonitor(snap.Bench, snap.G, snap.Ref, driftWatch, nil)
	cur := snap
	mon.Arm(watch.Escalation{
		FoldIn: func(fold [][]float64) (watch.Reclassify, bool) {
			cur = cur.WithFoldIn(fold)
			return cur.Table.ConcurrentView().Classify, true
		},
		Boost: func(from, until uint32) {},
	})
	m["watch.observe_ns"] = timeEach(len(ins), func(i int) {
		mon.Observe(watch.Obs{ID: uint32(i), Bad: bad[i], Precise: precise[i], In: ins[i]})
	})

	// Fold in the inputs the probe flags as violating, as the updater
	// would; an input stream with none folds in its first few inputs.
	var fold [][]float64
	for i, in := range ins {
		if bad[i] && !precise[i] && len(fold) < 8 {
			fold = append(fold, in)
		}
	}
	if len(fold) == 0 {
		fold = ins[:min(len(ins), 8)]
	}
	m["serve.foldin_us"] = timeEach(21, func(int) { snap.WithFoldIn(fold) }) / 1e3
	var expErr error
	m["serve.export_us"] = timeEach(21, func(int) {
		if _, err := snap.Export(); err != nil {
			expErr = err
		}
	}) / 1e3
	if expErr != nil {
		return expErr
	}

	walDir, err := os.MkdirTemp(c.workDir, "wal-layers-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(walDir)
	wal, err := serve.OpenWAL(walDir)
	if err != nil {
		return err
	}
	defer wal.Close()
	reg := serve.NewRegistry()
	serve.AttachWAL(reg, wal, nil, nil)
	if _, err := reg.Install(snap); err != nil {
		return err
	}
	var instErr error
	next := make([]*serve.Snapshot, 11)
	for i := range next {
		next[i] = snap.WithFoldIn(fold[:1+i%len(fold)])
	}
	m["serve.install_us"] = timeEach(len(next), func(i int) {
		if _, err := reg.Install(next[i]); err != nil {
			instErr = err
		}
	}) / 1e3
	if instErr != nil {
		return instErr
	}
	var storeErr error
	m["serve.wal_store_ms"] = timeEach(11, func(i int) {
		if err := wal.StoreSnapshot(snap.Bench+"-store", uint32(i+1), blob); err != nil {
			storeErr = err
		}
	}) / 1e6
	return storeErr
}
