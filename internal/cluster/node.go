package cluster

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"mithra/internal/fault"
	"mithra/internal/obs"
	"mithra/internal/serve"
)

// NodeConfig wires one mithrad process into a cluster.
type NodeConfig struct {
	// Spec is the shared cluster spec; Self names this node in it.
	Spec *Spec
	Self string
	// Registry is the node's snapshot registry (shared with the server).
	// Its WAL persist hook, attached by mithrad exactly as in single-node
	// mode, is what makes replicated tables durable.
	Registry *serve.Registry
	// Recorder, when non-nil, receives the durable decision records that
	// the cluster digest is merged from.
	Recorder *Recorder
	// Faults scopes the peer.drop / conn.partition injectors.
	Faults *fault.Set
	// Obs counts replication and catch-up events (node-tagged notes are
	// journaled by mithrad at boot).
	Obs *obs.Obs
	// Logf, when non-nil, receives human-oriented progress lines (boot
	// catch-up, fold pushes); it must be safe for concurrent use.
	Logf func(format string, args ...any)
}

// pushQueue bounds the fold-in pushes waiting for the sender goroutine.
// Fold-ins are rare (at most MaxFoldIns per recovery episode), so a full
// queue means the peers are unreachable, and dropping is safe: the next
// push or a catch-up carries a newer table.
const pushQueue = 64

// nodeMetrics resolves the node's counters once (obs lookups lock).
type nodeMetrics struct {
	foldPushed   *obs.Counter
	foldPushFail *obs.Counter
	foldApplied  *obs.Counter
	foldStale    *obs.Counter
	foldErrors   *obs.Counter
	catchupRuns  *obs.Counter
	catchupFail  *obs.Counter
}

// Node implements serve.ClusterHooks for one mithrad process: routing
// and forwarding on the decide path, table replication and catch-up on
// the update path, and durable decision records for the cluster digest.
type Node struct {
	spec   *Spec
	self   string
	router *Router
	reg    *serve.Registry
	rec    *Recorder
	m      nodeMetrics
	o      *obs.Obs
	logf   func(string, ...any)

	peers map[string]*peerLink // forwarding links, by peer name
	folds []*foldSender        // fold-in push links, in peer name order

	// applyMu serializes replicated installs (pushes and catch-up), so
	// the version check and the install act as one step.
	applyMu sync.Mutex

	// pushes feeds installed snapshots to the sender goroutine in version
	// order; quit stops it.
	pushes   chan *serve.Snapshot
	quit     chan struct{}
	quitOnce sync.Once
	wg       sync.WaitGroup
}

// NewNode builds the node and starts its fold-in sender.
func NewNode(cfg NodeConfig) (*Node, error) {
	if _, err := cfg.Spec.Node(cfg.Self); err != nil {
		return nil, err
	}
	router, err := NewRouter(cfg.Spec)
	if err != nil {
		return nil, err
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	n := &Node{
		spec:   cfg.Spec,
		self:   cfg.Self,
		router: router,
		reg:    cfg.Registry,
		rec:    cfg.Recorder,
		o:      cfg.Obs,
		logf:   logf,
		m: nodeMetrics{
			foldPushed:   cfg.Obs.Counter("cluster.foldin.pushed"),
			foldPushFail: cfg.Obs.Counter("cluster.foldin.push_failures"),
			foldApplied:  cfg.Obs.Counter("cluster.foldin.applied"),
			foldStale:    cfg.Obs.Counter("cluster.foldin.stale"),
			foldErrors:   cfg.Obs.Counter("cluster.foldin.errors"),
			catchupRuns:  cfg.Obs.Counter("cluster.catchup.runs"),
			catchupFail:  cfg.Obs.Counter("cluster.catchup.failures"),
		},
		peers:  map[string]*peerLink{},
		pushes: make(chan *serve.Snapshot, pushQueue),
		quit:   make(chan struct{}),
	}
	for _, p := range cfg.Spec.Nodes {
		if p.Name == cfg.Self {
			continue
		}
		n.peers[p.Name] = newPeerLink(cfg.Self, p, cfg.Faults)
		n.folds = append(n.folds, newFoldSender(cfg.Self, p, cfg.Faults))
	}
	n.wg.Add(1)
	go n.sendLoop()
	return n, nil
}

// Self returns this node's name.
func (n *Node) Self() string { return n.self }

// Router returns the node's placement router.
func (n *Node) Router() *Router { return n.router }

// Route implements serve.ClusterHooks: the owning peer's name, or ""
// when this node decides locally.
func (n *Node) Route(bench string, id uint32, in []float64) string {
	owner := n.router.Route(bench, id, in)
	if owner == n.self {
		return ""
	}
	return owner
}

// Forward implements serve.ClusterHooks.
func (n *Node) Forward(peer string, req *serve.DecideRequest, respond func(serve.Message)) error {
	link := n.peers[peer]
	if link == nil {
		return fmt.Errorf("cluster: no link to %q", peer)
	}
	return link.forward(req, respond)
}

// Record implements serve.ClusterHooks.
func (n *Node) Record(bench string, id uint32, precise bool) {
	if n.rec != nil {
		n.rec.Record(bench, id, precise)
	}
}

// FlushRecords implements serve.ClusterHooks.
func (n *Node) FlushRecords() error {
	if n.rec == nil {
		return nil
	}
	return n.rec.Flush()
}

// OnFoldIn is the updater hook (serve.Config.OnFoldIn) on a benchmark's
// home node: queue the freshly installed snapshot for the sender
// goroutine, which pushes its table to every peer. It never blocks the
// updater; a push dropped on a full queue is superseded by the next push
// or by the replica's catch-up.
func (n *Node) OnFoldIn(snap *serve.Snapshot) {
	select {
	case n.pushes <- snap:
	default:
		n.m.foldPushFail.Inc()
		n.logf("cluster: fold-in %s v%d dropped: push queue full", snap.Bench, snap.Version)
	}
}

// sendLoop pushes queued snapshots in the order they were installed.
// On Close it drains what is already queued, then exits.
func (n *Node) sendLoop() {
	defer n.wg.Done()
	for {
		select {
		case snap := <-n.pushes:
			n.push(snap)
		case <-n.quit:
			for len(n.pushes) > 0 {
				n.push(<-n.pushes)
			}
			return
		}
	}
}

// push sends one snapshot's table to every peer, in name order.
func (n *Node) push(snap *serve.Snapshot) {
	fold, err := snap.FoldIn()
	if err != nil {
		n.m.foldPushFail.Inc()
		n.logf("cluster: fold-in %s v%d: %v", snap.Bench, snap.Version, err)
		return
	}
	for _, fs := range n.folds {
		status, err := fs.send(fold)
		if err != nil {
			n.m.foldPushFail.Inc()
			n.logf("cluster: fold-in %s v%d -> %s failed: %v", fold.Bench, fold.Version, fs.peer, err)
			continue
		}
		n.m.foldPushed.Inc()
		if status == serve.FoldFailed {
			n.logf("cluster: fold-in %s v%d refused by %s", fold.Bench, fold.Version, fs.peer)
		}
	}
}

// ApplyFoldIn implements serve.ClusterHooks on the receiving side:
// install a replicated table over the current snapshot when its version
// is newer, through the monotone Registry.Install path. Because a table
// is the whole state, a replica that missed versions jumps straight to
// the newest one.
func (n *Node) ApplyFoldIn(bench string, version uint32, table []byte) uint8 {
	n.applyMu.Lock()
	defer n.applyMu.Unlock()
	cur := n.reg.Get(bench)
	if cur == nil {
		return serve.FoldUnknown
	}
	if version <= cur.Version {
		n.m.foldStale.Inc()
		return serve.FoldStale
	}
	ns, err := cur.WithReplica(version, table)
	if err == nil {
		_, err = n.reg.Install(ns)
	}
	if err != nil {
		// Refused table, or a persist failure (disk, injected
		// snapshot.install): the previous version keeps serving, and the
		// next push or catch-up retries with a newer table.
		n.m.foldErrors.Inc()
		n.logf("cluster: fold-in %s v%d: %v", bench, version, err)
		return serve.FoldFailed
	}
	n.m.foldApplied.Inc()
	// Per-bench replica surface: `mithra watch` over several addresses
	// sums these into its REPL column, and the journaled note ties each
	// replicated repair into the home node's recovery story.
	n.o.Counter("cluster.foldin.applied." + bench).Inc()
	n.o.Note("foldin_replica", map[string]any{"bench": bench, "version": version})
	return serve.FoldApplied
}

// CatchUp fetches every benchmark this node replicates (home elsewhere)
// from its home node, retrying each failed benchmark up to `retries`
// times with a fixed delay — peers boot concurrently, so the first dial
// often races the home node's listener. Call after the local listener is
// up (a push may arrive while catch-up runs; the version check makes
// that safe).
func (n *Node) CatchUp(retries int, delay time.Duration) {
	for _, bench := range n.reg.Benches() {
		if n.router.Home(bench) == n.self {
			continue
		}
		var err error
		for attempt := 0; attempt <= retries; attempt++ {
			if attempt > 0 {
				time.Sleep(delay)
			}
			if err = n.CatchUpBench(bench); err == nil {
				break
			}
		}
		if err != nil {
			n.m.catchupFail.Inc()
			n.logf("cluster: boot catch-up %s: %v", bench, err)
		}
	}
}

// CatchUpBench asks the benchmark's home node for its current table and
// installs it when it is newer than the local snapshot. The request
// rides a fresh connection (catch-up is rare; pooling would buy
// nothing).
func (n *Node) CatchUpBench(bench string) error {
	home := n.router.Home(bench)
	if home == n.self {
		return nil // home nodes originate fold-ins; nothing to fetch
	}
	cur := n.reg.Get(bench)
	if cur == nil {
		return fmt.Errorf("cluster: no local snapshot for %q", bench)
	}
	n.m.catchupRuns.Inc()
	spec, err := n.spec.Node(home)
	if err != nil {
		return err
	}
	if n.peers[home].fPart.Hit() {
		return fmt.Errorf("cluster: link %s<->%s partitioned", n.self, home)
	}
	nc, err := net.Dial(network(spec.Addr))
	if err != nil {
		return fmt.Errorf("cluster: dial %s (%s): %w", home, spec.Addr, err)
	}
	defer nc.Close()
	if err := serve.WriteMessage(nc, &serve.CatchUpReq{Bench: bench, After: cur.Version}); err != nil {
		return fmt.Errorf("cluster: catch-up request to %s: %w", home, err)
	}
	msg, err := serve.ReadMessage(bufio.NewReader(nc))
	if err != nil {
		return fmt.Errorf("cluster: catch-up response from %s: %w", home, err)
	}
	switch m := msg.(type) {
	case *serve.FoldIn:
		if n.ApplyFoldIn(bench, m.Version, m.Table) == serve.FoldFailed {
			return fmt.Errorf("cluster: catch-up %s v%d from %s refused", bench, m.Version, home)
		}
		n.logf("cluster: caught up %s from %s, now v%d", bench, home, n.Version(bench))
		return nil
	case *serve.FoldInAck:
		if m.Status != serve.FoldStale {
			return fmt.Errorf("cluster: peer %s answered catch-up %s with status %d", home, bench, m.Status)
		}
		return nil // the home node has nothing newer
	}
	return fmt.Errorf("cluster: peer %s answered catch-up with %T", home, msg)
}

// Version reports the node's current snapshot version for bench (0 when
// the benchmark is unknown) — a convenience for tests and `mithra watch`.
func (n *Node) Version(bench string) uint32 {
	if snap := n.reg.Get(bench); snap != nil {
		return snap.Version
	}
	return 0
}

// Close waits for the sender to push what is already queued, then tears
// down the peer links. The recorder is closed by its owner (mithrad),
// after the server drains.
func (n *Node) Close() {
	n.quitOnce.Do(func() { close(n.quit) })
	n.wg.Wait()
	for _, link := range n.peers {
		link.close()
	}
	for _, fs := range n.folds {
		fs.close()
	}
}
