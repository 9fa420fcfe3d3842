package serve

// Cluster wire messages (DESIGN.md §15). The forwarding and replication
// traffic between mithrad nodes rides the same framed protocol as client
// traffic — one listener per node, no side channel — so the codec
// invariants (never panic, every malformed frame wraps ErrProtocol,
// encode∘parse is the identity on the codec's image) extend unchanged.

// FoldIn replicates one online table fold-in as state: Table is the
// encoded table (classifier.Table.Encode) that benchmark Bench serves at
// snapshot version Version. A replica installs it over its current
// snapshot when Version is newer, so a later push always supersedes a
// missed one.
type FoldIn struct {
	Bench   string
	Version uint32
	Table   []byte
}

// Fold-in ack statuses.
const (
	// FoldApplied: the replica installed this version.
	FoldApplied = 0
	// FoldFailed: the replica could not decode or install the table; the
	// next push or a catch-up brings a newer one.
	FoldFailed = 1
	// FoldStale: the replica is already at or past this version.
	FoldStale = 2
	// FoldUnknown: the replica holds no snapshot for the benchmark.
	FoldUnknown = 3
)

// FoldInAck answers a FoldIn with the replica's disposition. It also
// answers a CatchUpReq when the peer has nothing newer (FoldStale) or no
// such benchmark (FoldUnknown).
type FoldInAck struct {
	Bench   string
	Version uint32
	Status  uint8
}

// CatchUpReq asks a peer for its current table of Bench when that is
// newer than version After. The answer is one FoldIn or a FoldInAck.
type CatchUpReq struct {
	Bench string
	After uint32
}

// AppendForwardRequest appends a msgForward frame to dst: req re-keyed
// with hop ID fwdID while req.ID rides in the Orig slot. The concrete
// parameter type keeps the peer link's encode path allocation-free, like
// AppendDecideRequest on the client path.
//
//mithra:hotpath
func AppendForwardRequest(dst []byte, fwdID uint32, req *DecideRequest) ([]byte, error) {
	origID := req.ID
	if req.Forwarded {
		// Re-forwarding an already-hopped request must not happen (the
		// receiver serves locally), but if an owner map is mid-update the
		// original identity still wins over the previous hop ID.
		origID = req.Orig //mithra:coldpath defensive branch; forwarded frames are served locally
	}
	start := len(dst)
	return appendRequestBody(append(dst, 0, 0, 0, 0), start, msgForward, fwdID, origID, req)
}

// ParseForwardRequestInto decodes a msgForward frame payload into req
// without allocating, through the decoder ParseDecideRequestInto uses:
// the input vector reuses req.In's capacity and the benchmark name is
// returned as a sub-slice of payload for the caller to intern (req.Bench
// is NOT set). On success req.Forwarded is true, req.ID is the hop ID,
// and req.Orig the original client request ID.
//
//mithra:hotpath
func ParseForwardRequestInto(payload []byte, req *DecideRequest) (bench []byte, err error) {
	if len(payload) < 3 || payload[2] != msgForward {
		return nil, protoErrf("not a forward frame")
	}
	return parseRequestInto(payload, req)
}

// parseClusterPrefix decodes the length-prefixed benchmark name that
// opens every cluster control body, rejecting the (undefined) version-2
// form of these messages.
func parseClusterPrefix(body []byte, trail int, what string) (bench string, rest []byte, err error) {
	if trail != 0 {
		return "", nil, protoErrf("%s frames are version 1 only", what)
	}
	if len(body) < 1 {
		return "", nil, protoErrf("%s body is empty", what)
	}
	nameLen := int(body[0])
	if len(body) < 1+nameLen {
		return "", nil, protoErrf("%s truncated inside bench name", what)
	}
	return string(body[1 : 1+nameLen]), body[1+nameLen:], nil
}
