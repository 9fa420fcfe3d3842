package serve

import (
	"fmt"
)

// SteadyDriver replays one decision through the hermetic steady-state
// decide path — frame parse into the reader's request, shard-map intern,
// classify, response encode — exactly as a connection reader runs it,
// minus the socket and the batch write. It exists for the bench harness
// (`mithra bench`'s decide_steady stage) and the perf trajectory it
// commits: the stage must report 0 allocs/op, and this driver is the
// narrowest faithful window onto that path. Not safe for concurrent use.
type SteadyDriver struct {
	r     *connReader
	frame []byte // frame payload (header stripped) of the decide request
}

// SteadyDriver builds a driver for one benchmark's shard, pre-encoding a
// decide request for in.
func (s *Server) SteadyDriver(bench string, in []float64) (*SteadyDriver, error) {
	if s.shards[bench] == nil {
		return nil, fmt.Errorf("serve: no shard for benchmark %q", bench)
	}
	frame, err := AppendFrame(nil, &DecideRequest{ID: 1, Bench: bench, In: in})
	if err != nil {
		return nil, err
	}
	return &SteadyDriver{r: s.newConnReader(&conn{}), frame: frame[4:]}, nil
}

// Step serves the pre-encoded request once, end to end, and drops the
// encoded response. The first call sizes the reader's request and
// response buffers; every subsequent call is allocation-free.
//
//mithra:hotpath
func (d *SteadyDriver) Step() error {
	r := d.r
	r.payload = d.frame
	r.handle()
	if r.owed != 1 {
		return fmt.Errorf("serve: steady decide owed %d responses, want 1", r.owed) //mithra:coldpath error formatting on a broken driver
	}
	r.out, r.owed = r.out[:0], 0
	return nil
}
