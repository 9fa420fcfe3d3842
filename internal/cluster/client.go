package cluster

import (
	"fmt"
	"sort"

	"mithra/internal/serve"
)

// RoutedClient is the cluster-aware serving client: it resolves the
// spec's consistent-hash ring locally, splits each batch into per-node
// sub-batches, and pins one serve.Client per node. Routing client-side
// is an optimization, not a correctness requirement — a stale or
// oblivious client may send any request to any node, and the node
// forwards it — but a routed batch touches each benchmark's home node
// directly and pays no forwarding hop.
//
// Like the underlying clients it is not goroutine-safe: one routed
// client per goroutine.
type RoutedClient struct {
	router    *Router
	resilient bool
	retry     serve.RetryConfig

	clients map[string]*serve.Client

	// scratch, reused across batches: per-node sub-batch assembly.
	parts map[string]*part
}

// part is one node's slice of a batch.
type part struct {
	ids    []uint32
	inputs [][]float64
	slots  []int
}

// NewRoutedClient builds a routed client over spec. With resilient set,
// per-node connections are dialed with serve.DialResilient and retry
// (chaos-tolerant loadgen); otherwise with serve.Dial. Connections are
// dialed lazily, on first use of each node.
func NewRoutedClient(spec *Spec, resilient bool, retry serve.RetryConfig) (*RoutedClient, error) {
	router, err := NewRouter(spec)
	if err != nil {
		return nil, err
	}
	return &RoutedClient{
		router:    router,
		resilient: resilient,
		retry:     retry,
		clients:   map[string]*serve.Client{},
		parts:     map[string]*part{},
	}, nil
}

// Decide asks for one decision, routed to its owning node.
func (rc *RoutedClient) Decide(bench string, id uint32, in []float64) (*serve.DecideResponse, error) {
	cl, err := rc.client(rc.router.Route(bench, id, in))
	if err != nil {
		return nil, err
	}
	return cl.Decide(bench, id, in)
}

// DecideBatch routes inputs[i] (request ID baseID+i) to its owning node,
// pipelines each node's sub-batch on that node's pinned connection, and
// reassembles the responses in request order. Node sub-batches run
// sequentially in sorted node-name order — the routed client optimizes
// hops, not concurrency; loadgen gets concurrency from connections.
func (rc *RoutedClient) DecideBatch(bench string, baseID uint32, inputs [][]float64) ([]serve.DecideResponse, error) {
	for _, p := range rc.parts {
		p.ids = p.ids[:0]
		p.inputs = p.inputs[:0]
		p.slots = p.slots[:0]
	}
	for i, in := range inputs {
		id := baseID + uint32(i)
		node := rc.router.Route(bench, id, in)
		p := rc.parts[node]
		if p == nil {
			p = &part{}
			rc.parts[node] = p
		}
		// IDs within one node's sub-batch stay strictly ascending because
		// the batch is scanned in ID order — DecideIDs' contract.
		p.ids = append(p.ids, id)
		p.inputs = append(p.inputs, in)
		p.slots = append(p.slots, i)
	}
	nodes := make([]string, 0, len(rc.parts))
	for node, p := range rc.parts {
		if len(p.ids) > 0 {
			nodes = append(nodes, node)
		}
	}
	sort.Strings(nodes)
	out := make([]serve.DecideResponse, len(inputs))
	for _, node := range nodes {
		if err := rc.decideIDs(node, bench, rc.parts[node], out); err != nil {
			return nil, fmt.Errorf("cluster: node %s: %w", node, err)
		}
	}
	return out, nil
}

// decideIDs runs one node's sub-batch and scatters the answers back into
// the caller's response slice.
func (rc *RoutedClient) decideIDs(node, bench string, p *part, out []serve.DecideResponse) error {
	cl, err := rc.client(node)
	if err != nil {
		return err
	}
	resps := make([]serve.DecideResponse, len(p.ids))
	if err := cl.DecideIDs(bench, p.ids, p.inputs, resps); err != nil {
		return err
	}
	for i, slot := range p.slots {
		out[slot] = resps[i]
	}
	return nil
}

// client returns node's pinned connection, dialing it on first use.
func (rc *RoutedClient) client(node string) (*serve.Client, error) {
	if cl := rc.clients[node]; cl != nil {
		return cl, nil
	}
	addr := rc.router.Spec().Addr(node)
	if addr == "" {
		return nil, fmt.Errorf("cluster: unknown node %q", node)
	}
	nw, a := network(addr)
	var cl *serve.Client
	var err error
	if rc.resilient {
		cl, err = serve.DialResilient(nw, a, rc.retry)
	} else {
		cl, err = serve.Dial(nw, a)
	}
	if err != nil {
		return nil, fmt.Errorf("cluster: dial node %s: %w", node, err)
	}
	rc.clients[node] = cl
	return cl, nil
}

// Stats sums the pinned connections' recovery counters.
func (rc *RoutedClient) Stats() (retries, reconnects, fallbacks int) {
	for _, cl := range rc.clients {
		retries += cl.Retries
		reconnects += cl.Reconnects
		fallbacks += cl.Fallbacks
	}
	return
}

// Close tears down every pinned connection, reporting the first error.
func (rc *RoutedClient) Close() error {
	var first error
	for _, cl := range rc.clients {
		if err := cl.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
