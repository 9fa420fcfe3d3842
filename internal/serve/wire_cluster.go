package serve

import (
	"encoding/binary"
	"math"
)

// Cluster wire messages (DESIGN.md §15). The forwarding and replication
// traffic between mithrad nodes rides the same framed protocol as client
// traffic — one listener per node, no side channel — so the codec
// invariants (never panic, every malformed frame wraps ErrProtocol,
// encode∘parse is the identity on the codec's image) extend unchanged.

// FoldIn replicates one online table fold-in: the bad inputs that the
// home node's updater folded into benchmark Bench to produce snapshot
// version Version. Replicas apply fold-ins in (benchmark, version) order
// through Registry.Install, so a replica that applies versions 2..k of a
// benchmark holds a table byte-identical to the home node's.
type FoldIn struct {
	Bench   string
	Version uint32
	// Inputs are the violating input vectors of the fold-in window, in
	// observation order (the order the home node folded them).
	Inputs [][]float64
}

// Fold-in ack statuses.
const (
	// FoldApplied: the replica installed this version (and possibly
	// buffered successors that became applicable).
	FoldApplied = 0
	// FoldBuffered: the version is ahead of the replica's snapshot; it is
	// buffered and the replica will catch up the gap from a peer.
	FoldBuffered = 1
	// FoldStale: the replica is already at or past this version.
	FoldStale = 2
	// FoldUnknown: the replica holds no snapshot for the benchmark.
	FoldUnknown = 3
)

// FoldInAck answers a FoldIn with the replica's disposition.
type FoldInAck struct {
	Bench   string
	Version uint32
	Status  uint8
}

// CatchUpReq asks a peer for every fold-in of Bench after version After.
type CatchUpReq struct {
	Bench string
	After uint32
}

// CatchUpResp announces Count FoldIn frames to follow, in ascending
// version order starting at After+1.
type CatchUpResp struct {
	Bench string
	Count uint32
}

// maxFoldInInputs bounds the inputs carried by one FoldIn frame; larger
// fold-ins are split by the sender. 2048 dim-1 inputs or 16 full-width
// ones fit comfortably under MaxFrame.
const maxFoldInInputs = 2048

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

// appendFoldIn finishes a msgFoldIn frame for AppendFrame.
func appendFoldIn(dst []byte, start int, m *FoldIn) ([]byte, error) {
	if len(m.Bench) > maxBenchName {
		return nil, protoErrf("bench name %d bytes exceeds %d", len(m.Bench), maxBenchName)
	}
	if len(m.Inputs) > maxFoldInInputs {
		return nil, protoErrf("fold-in carries %d inputs, max %d", len(m.Inputs), maxFoldInInputs)
	}
	dst = append(dst, wireMagic, wireV1, msgFoldIn, byte(len(m.Bench)))
	dst = append(dst, m.Bench...)
	dst = binary.BigEndian.AppendUint32(dst, m.Version)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(m.Inputs)))
	for _, in := range m.Inputs {
		if len(in) > MaxInputDim {
			return nil, protoErrf("fold-in input dim %d exceeds %d", len(in), MaxInputDim)
		}
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(in)))
		for _, v := range in {
			dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(v))
		}
	}
	return finishFrame(dst, start)
}

// parseFoldIn is the msgFoldIn decoder for ParseMessage.
func parseFoldIn(body []byte, trail int) (Message, error) {
	bench, body, err := parseClusterPrefix(body, trail, "fold-in")
	if err != nil {
		return nil, err
	}
	if len(body) < 6 {
		return nil, protoErrf("fold-in body %d trailing bytes, want >= 6", len(body))
	}
	m := &FoldIn{Bench: bench, Version: binary.BigEndian.Uint32(body[:4])}
	count := int(binary.BigEndian.Uint16(body[4:6]))
	if count > maxFoldInInputs {
		return nil, protoErrf("fold-in carries %d inputs, max %d", count, maxFoldInInputs)
	}
	body = body[6:]
	m.Inputs = make([][]float64, 0, count)
	for i := 0; i < count; i++ {
		if len(body) < 2 {
			return nil, protoErrf("fold-in truncated at input %d header", i)
		}
		dim := int(binary.BigEndian.Uint16(body[:2]))
		body = body[2:]
		if dim > MaxInputDim {
			return nil, protoErrf("fold-in input dim %d exceeds %d", dim, MaxInputDim)
		}
		if len(body) < 8*dim {
			return nil, protoErrf("fold-in truncated inside input %d", i)
		}
		in := make([]float64, dim)
		for j := range in {
			in[j] = math.Float64frombits(binary.BigEndian.Uint64(body[8*j : 8*j+8]))
		}
		m.Inputs = append(m.Inputs, in)
		body = body[8*dim:]
	}
	if len(body) != 0 {
		return nil, protoErrf("fold-in carries %d stray bytes", len(body))
	}
	return m, nil
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
