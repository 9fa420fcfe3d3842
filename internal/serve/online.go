package serve

import (
	"sync"

	"mithra/internal/watch"
)

// observation is one sampled invocation's ground truth, produced by the
// connection readers and consumed by the shard's updater goroutine.
type observation struct {
	in      []float64
	id      uint32 // request ID (keys the watch monitor's reorder buffer)
	trace   uint64 // propagated trace identity (0: untraced)
	bad     bool   // true accelerator error exceeded the snapshot threshold
	precise bool   // the classifier had already routed this input precisely
}

// updater is one shard's online update loop — the serving counterpart of
// the paper's §IV-C1 online training. It feeds every sampled observation
// to the shard's guarantee monitor (internal/watch, recheck mode), which
// windows them, re-checks the Clopper-Pearson guarantee, and calls foldIn
// below when the guarantee is violated. foldIn folds the misclassified
// inputs into a copy of the table classifier (the update rule is
// monotone — bad inputs set bits, entries are never cleared) and
// installs the refreshed snapshot atomically.
//
// A single goroutine owns the monitor, so it needs no locks; readers
// hand observations over a channel. A reader loads the registry pointer
// once per request, so an install never changes the snapshot a request
// is being decided against.
type updater struct {
	s  *Server
	sh *shard
	ch chan observation
}

func newUpdater(s *Server, sh *shard) *updater {
	return &updater{s: s, sh: sh, ch: make(chan observation, updaterQueue)}
}

// observe hands one sampled result to the update loop. Called by
// connection readers; blocks only if the updater is behind by a full
// channel.
func (u *updater) observe(ob observation) { u.ch <- ob }

// run consumes observations until the channel closes (server drain). The
// observation's input copy transfers to the monitor, which may retain it
// until the next fold-in.
func (u *updater) run(wg *sync.WaitGroup) {
	defer wg.Done()
	for ob := range u.ch {
		u.sh.mon.Observe(watch.Obs{ID: ob.id, Trace: ob.trace, Bad: ob.bad, Precise: ob.precise, In: ob.in})
	}
	// Drain: no more observations can arrive, so every observation still
	// parked in the monitor's reorder buffer is releasable in ID order.
	u.sh.mon.Flush()
}

// foldIn is the monitor's escalation hook (watch.Escalation.FoldIn) and
// the one fold-in path: fold the monitor's collected violating inputs
// into a table clone, install the repaired snapshot, replicate it, and
// hand the monitor a private classifier view of the repaired table — the
// deterministic routing the monitor scores released observations against
// from this release position on. Runs on the updater goroutine, so
// registry access needs no extra synchronization beyond the registry's
// own. ok=false on install failure: the breaker force-opens (precise
// serving restores quality while the table cannot be repaired) and the
// monitor keeps its pending inputs for a retry.
func (u *updater) foldIn(inputs [][]float64) (watch.Reclassify, bool) {
	o := u.s.o
	o.Counter("serve.guarantee.rechecks").Inc()
	snap := u.s.reg.Get(u.sh.bench)
	ns := snap.WithFoldIn(inputs)
	if _, err := u.s.reg.Install(ns); err != nil {
		o.Counter("serve.snapshot.install_errors").Inc()
		u.sh.brk.forceOpen("snapshot install failed: " + err.Error())
		return nil, false
	}
	o.Counter("serve.snapshot.swaps").Inc()
	o.Counter("serve.update.inputs").Add(int64(len(inputs)))
	if u.s.cfg.OnFoldIn != nil {
		u.s.cfg.OnFoldIn(ns)
	}
	view := ns.Table.ConcurrentView()
	return view.Classify, true
}
