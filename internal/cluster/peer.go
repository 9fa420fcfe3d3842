package cluster

import (
	"bufio"
	"fmt"
	"net"
	"sync"

	"mithra/internal/fault"
	"mithra/internal/serve"
)

// peerLink is one node's forwarding channel to one peer: a lazily-dialed
// connection multiplexing in-flight forwards by hop ID, with a reader
// goroutine dispatching responses back to the originating client
// connections. Client request IDs from different connections may collide
// (every loadgen connection starts near 0), so the link re-keys each
// forward with a fresh hop ID and restores the original ID — carried in
// the frame's Orig slot — when the response comes back.
//
// Fault sites: peer.drop (scoped per directed pair "self>peer") tears the
// link down mid-send, as a crashed peer would; conn.partition (scoped per
// unordered PairKey) makes dials and sends fail while the injector fires.
type peerLink struct {
	self, peer, addr string
	fDrop            *fault.Injector
	fPart            *fault.Injector

	mu      sync.Mutex
	conn    net.Conn
	wbuf    []byte
	fwdSeq  uint32
	pending map[uint32]pendingFwd
}

// pendingFwd is one in-flight forward: the client's original request ID
// and the callback that writes the response back on the client's
// connection.
type pendingFwd struct {
	orig    uint32
	respond func(serve.Message)
}

func newPeerLink(self string, peer NodeSpec, faults *fault.Set) *peerLink {
	return &peerLink{
		self:    self,
		peer:    peer.Name,
		addr:    peer.Addr,
		fDrop:   faults.Scoped(fault.SitePeerDrop, self+">"+peer.Name),
		fPart:   faults.Scoped(fault.SiteConnPartition, PairKey(self, peer.Name)),
		pending: map[uint32]pendingFwd{},
	}
}

// forward encodes req as a msgForward frame and sends it to the peer,
// registering respond under a fresh hop ID. req is borrowed: the frame is
// fully encoded before forward returns (serve.ClusterHooks.Forward's
// contract), so the caller may pool the request immediately. A non-nil
// error means nothing was sent and the caller answers CodePeerDown.
func (p *peerLink) forward(req *serve.DecideRequest, respond func(serve.Message)) error {
	p.mu.Lock()
	if p.fPart.Hit() {
		p.mu.Unlock()
		return fmt.Errorf("cluster: link %s<->%s partitioned", p.self, p.peer)
	}
	if p.conn == nil {
		if err := p.dialLocked(); err != nil {
			p.mu.Unlock()
			return err
		}
	}
	if p.fDrop.Hit() {
		// Injected peer crash: the frame is dropped on the floor and the
		// link torn down; every in-flight forward fails over to retry.
		p.teardownLocked("injected peer.drop")
		p.mu.Unlock()
		return fmt.Errorf("cluster: %w: peer %s dropped", fault.ErrInjected, p.peer)
	}
	p.fwdSeq++
	hop := p.fwdSeq
	frame, err := serve.AppendForwardRequest(p.wbuf[:0], hop, req)
	if err != nil {
		p.mu.Unlock()
		return err
	}
	p.wbuf = frame
	p.pending[hop] = pendingFwd{orig: req.ID, respond: respond}
	if _, err := p.conn.Write(frame); err != nil {
		delete(p.pending, hop)
		p.teardownLocked(err.Error())
		p.mu.Unlock()
		return fmt.Errorf("cluster: forward to %s: %w", p.peer, err)
	}
	p.mu.Unlock()
	return nil
}

// dialLocked connects to the peer and starts the response reader.
func (p *peerLink) dialLocked() error {
	nc, err := net.Dial(network(p.addr))
	if err != nil {
		return fmt.Errorf("cluster: dial peer %s (%s): %w", p.peer, p.addr, err)
	}
	p.conn = nc
	go p.readLoop(nc)
	return nil
}

// readLoop dispatches the peer's responses to their waiting client
// connections until the link dies; then every still-pending forward is
// answered CodePeerDown (retryable) so no client blocks on a dead hop.
func (p *peerLink) readLoop(nc net.Conn) {
	br := bufio.NewReader(nc)
	for {
		msg, err := serve.ReadMessage(br)
		if err != nil {
			p.mu.Lock()
			if p.conn == nc {
				p.teardownLocked(err.Error())
			}
			p.mu.Unlock()
			return
		}
		switch m := msg.(type) {
		case *serve.DecideResponse:
			if fwd, ok := p.take(m.ID); ok {
				m.ID = fwd.orig // restore the client's request ID
				fwd.respond(m)
			}
		case *serve.ErrorResponse:
			if fwd, ok := p.take(m.ID); ok {
				m.ID = fwd.orig
				fwd.respond(m)
			}
		default:
			// Unexpected frame on a forward link; ignore (the peer's codec
			// would have answered malformed frames with ErrorResponse).
		}
	}
}

// take claims the pending forward for a hop ID.
func (p *peerLink) take(hop uint32) (pendingFwd, bool) {
	p.mu.Lock()
	fwd, ok := p.pending[hop]
	if ok {
		delete(p.pending, hop)
	}
	p.mu.Unlock()
	return fwd, ok
}

// teardownLocked closes the link and fails every in-flight forward with
// a retryable in-band error. Callers hold p.mu.
func (p *peerLink) teardownLocked(reason string) {
	if p.conn != nil {
		p.conn.Close()
		p.conn = nil
	}
	for hop, fwd := range p.pending {
		delete(p.pending, hop)
		fwd.respond(&serve.ErrorResponse{ID: fwd.orig, Code: serve.CodePeerDown,
			Msg: fmt.Sprintf("peer %s unreachable: %s", p.peer, reason)})
	}
}

// close tears the link down (shutdown path).
func (p *peerLink) close() {
	p.mu.Lock()
	p.teardownLocked("node shutting down")
	p.mu.Unlock()
}

// network splits a spec address into a net.Dial (network, address) pair:
// addresses holding a '/' are Unix sockets, everything else TCP.
func network(addr string) (string, string) {
	for i := 0; i < len(addr); i++ {
		if addr[i] == '/' {
			return "unix", addr
		}
	}
	return "tcp", addr
}

// foldSender pushes replicated tables to one peer synchronously (send,
// await ack) on its own lazily-dialed connection. Only the node's sender
// goroutine sends, so the per-peer stream stays in version order; the
// mutex orders a send against close.
type foldSender struct {
	self, peer, addr string
	fDrop            *fault.Injector
	fPart            *fault.Injector

	mu   sync.Mutex
	conn net.Conn
	br   *bufio.Reader
}

func newFoldSender(self string, peer NodeSpec, faults *fault.Set) *foldSender {
	return &foldSender{
		self:  self,
		peer:  peer.Name,
		addr:  peer.Addr,
		fDrop: faults.Scoped(fault.SitePeerDrop, self+">"+peer.Name),
		fPart: faults.Scoped(fault.SiteConnPartition, PairKey(self, peer.Name)),
	}
}

// send pushes one table and returns the peer's ack status. Any failure
// tears the connection down; the next push or the peer's catch-up
// carries a newer table, so push is best-effort by design.
func (f *foldSender) send(rec *serve.FoldIn) (uint8, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fPart.Hit() {
		return 0, fmt.Errorf("cluster: link %s<->%s partitioned", f.self, f.peer)
	}
	if f.conn == nil {
		nc, err := net.Dial(network(f.addr))
		if err != nil {
			return 0, fmt.Errorf("cluster: dial peer %s (%s): %w", f.peer, f.addr, err)
		}
		f.conn = nc
		f.br = bufio.NewReader(nc)
	}
	if f.fDrop.Hit() {
		f.conn.Close()
		f.conn = nil
		return 0, fmt.Errorf("cluster: %w: fold-in to %s dropped", fault.ErrInjected, f.peer)
	}
	if err := serve.WriteMessage(f.conn, rec); err != nil {
		f.conn.Close()
		f.conn = nil
		return 0, fmt.Errorf("cluster: fold-in to %s: %w", f.peer, err)
	}
	msg, err := serve.ReadMessage(f.br)
	if err != nil {
		f.conn.Close()
		f.conn = nil
		return 0, fmt.Errorf("cluster: fold-in ack from %s: %w", f.peer, err)
	}
	ack, ok := msg.(*serve.FoldInAck)
	if !ok {
		f.conn.Close()
		f.conn = nil
		return 0, fmt.Errorf("cluster: peer %s answered fold-in with %T", f.peer, msg)
	}
	return ack.Status, nil
}

// close drops the sender's connection.
func (f *foldSender) close() {
	f.mu.Lock()
	if f.conn != nil {
		f.conn.Close()
		f.conn = nil
	}
	f.mu.Unlock()
}
