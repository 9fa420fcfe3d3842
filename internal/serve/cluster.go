package serve

// ClusterHooks is the seam between the single-node server and the
// multi-node layer (internal/cluster implements it; DESIGN.md §15). The
// server stays cluster-agnostic: every hook is optional behavior invoked
// behind a nil check, so a server without hooks is byte-for-byte the
// single-node engine, including its zero-allocation decide path.
//
// All hooks may be called concurrently from connection readers and shard
// workers; implementations synchronize internally.
type ClusterHooks interface {
	// Route names the node that must decide request (bench, id, in), or
	// "" when this node owns it. Called on the connection-reader fast
	// path for every non-forwarded decide request; it must not block.
	Route(bench string, id uint32, in []float64) string

	// Forward ships req to peer and arranges for the eventual response
	// (a *DecideResponse or *ErrorResponse keyed by req.ID) to be passed
	// to respond, possibly after Forward returns. Forward borrows req
	// only for the duration of the call — the caller returns it to the
	// request pool immediately after — so implementations must encode or
	// copy, never retain. A non-nil error means the peer was unreachable
	// and nothing was sent; the caller answers CodePeerDown in-band.
	Forward(peer string, req *DecideRequest, respond func(Message)) error

	// ApplyFoldIn delivers a replicated table (FoldIn.Table) received
	// from a peer and returns its FoldInAck status (FoldApplied,
	// FoldFailed, FoldStale, or FoldUnknown). Implementations install a
	// newer version over the current snapshot through Registry.Install
	// and ack an older one stale.
	ApplyFoldIn(bench string, version uint32, table []byte) uint8

	// Record buffers one durable decision record: request id of bench
	// decided as precise/approx. Decisions are pure functions of
	// (snapshot, input), so duplicate records (client retries, forwarded
	// re-asks) always agree; the cluster digest merge deduplicates them.
	Record(bench string, id uint32, precise bool)

	// FlushRecords makes every buffered decision record durable. Workers
	// call it after deciding a batch and before writing the batch's
	// responses, so an acknowledged decision is never lost to a crash.
	FlushRecords() error
}
