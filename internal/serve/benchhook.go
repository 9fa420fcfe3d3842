package serve

import (
	"fmt"

	"mithra/internal/classifier"
)

// SteadyDriver replays one decision through the hermetic steady-state
// decide path — pooled request, zero-copy frame parse, shard-map intern,
// classify, response encode — exactly as the connection reader and a
// shard worker compose it, minus the socket. It exists for the bench
// harness (`mithra bench`'s decide_steady stage) and the perf trajectory
// it commits: the stage must report 0 allocs/op, and this driver is the
// narrowest faithful window onto that path. Not safe for concurrent use.
type SteadyDriver struct {
	s       *Server
	sh      *shard
	snap    *Snapshot
	view    classifier.Classifier
	probe   ErrorProbe
	payload []byte
	buf     []byte
	dresp   DecideResponse
	eresp   ErrorResponse
}

// SteadyDriver builds a driver for one benchmark's shard, pre-encoding a
// decide request for in.
func (s *Server) SteadyDriver(bench string, in []float64) (*SteadyDriver, error) {
	sh := s.shards[bench]
	if sh == nil {
		return nil, fmt.Errorf("serve: no shard for benchmark %q", bench)
	}
	frame, err := AppendFrame(nil, &DecideRequest{ID: 1, Bench: bench, In: in})
	if err != nil {
		return nil, err
	}
	snap := s.reg.Get(bench)
	return &SteadyDriver{
		s:       s,
		sh:      sh,
		snap:    snap,
		view:    snap.view(),
		probe:   snap.NewProbe(),
		payload: frame[4:],
		buf:     make([]byte, 0, 64),
	}, nil
}

// Step serves the pre-encoded request once, end to end. The first call
// warms the request pool; every subsequent call is allocation-free.
//
//mithra:hotpath
func (d *SteadyDriver) Step() error {
	req := getReq()
	bench, err := ParseDecideRequestInto(d.payload, req)
	if err != nil {
		putReq(req)
		return err
	}
	sh := d.s.shards[string(bench)]
	req.Bench = sh.bench
	resp, ob, haveOb := d.s.decideSafe(sh, d.snap, d.view, d.probe, req, &d.dresp, &d.eresp)
	if haveOb {
		sh.up.observe(ob)
	}
	d.buf, err = AppendFrame(d.buf[:0], resp)
	putReq(req)
	return err
}
