package main

// The open-loop generator of serve_open_fft: one goroutine sends each
// request when it is due, whatever the responses do; another receives
// and matches responses by ID. Latency runs from the time a request was
// due, so a stall in the generator or the server is charged to every
// request it delays, and the generator's own lateness is reported so a
// run in which it fell behind (and silently became a closed loop) is
// marked invalid.

import (
	"bufio"
	"fmt"
	"net"
	"runtime"
	"syscall"
	"time"

	"mithra/internal/classifier"
	"mithra/internal/serve"
)

// openTraceLayers are the in-process replays a traced request carries:
// the daemon's parse, registry lookup and scalar classification, and the
// batch classification of the same input for comparison.
type openTraceLayers struct {
	reg   *serve.Registry
	tab   *classifier.Table // private clone: Classify uses table scratch
	dst   []bool
	one   [][]float64
	frame []byte
	preq  serve.DecideRequest
}

// openRung is one fixed-rate phase: n requests at rate per second.
// Stamps are nanoseconds since epoch; recv is 0 for a request never
// answered.
type openRung struct {
	rate            float64
	firstID         uint32
	due, sent, recv []int64
	precise, bad    []bool
	// Traced runs stamp every even request: encode, the replays, and the
	// response parse (start/end pairs).
	traced                             bool
	encS, encE, parS, parE, getS, getE []int64
	clsS, clsE, cbS, cbE, rpS, rpE     []int64
	sendErr, recvErr                   error
}

func newOpenRung(rate float64, n int, firstID uint32, traced bool) *openRung {
	r := &openRung{rate: rate, firstID: firstID, traced: traced,
		due: make([]int64, n), sent: make([]int64, n), recv: make([]int64, n),
		precise: make([]bool, n), bad: make([]bool, n)}
	if traced {
		for _, p := range []*[]int64{&r.encS, &r.encE, &r.parS, &r.parE, &r.getS, &r.getE,
			&r.clsS, &r.clsE, &r.cbS, &r.cbE, &r.rpS, &r.rpE} {
			*p = make([]int64, n)
		}
	}
	return r
}

// setTimerSlack narrows the calling thread's timer slack to 1 ns, so
// nanosleep wakes within microseconds of the deadline instead of the
// default 50 µs.
func setTimerSlack() {
	const prSetTimerSlack = 29
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0) //nolint:errcheck // best effort: lateness is measured either way
}

// sleepUntil blocks the (locked) thread until epoch+due.
func sleepUntil(epoch time.Time, due int64) {
	for {
		d := due - int64(time.Since(epoch))
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d)
		syscall.Nanosleep(&ts, nil) //nolint:errcheck // EINTR: loop re-checks the clock
	}
}

// runOpenRung drives one rung over conn. inputOf maps a request ID to
// its input. The receiver gives up drain after the last request is due.
func runOpenRung(conn net.Conn, br *bufio.Reader, epoch time.Time, bench string, inputOf func(uint32) []float64,
	r *openRung, tl *openTraceLayers, drain time.Duration) {
	n := len(r.due)
	interval := 1e9 / r.rate
	start := int64(time.Since(epoch)) + int64(2*time.Millisecond)
	for i := range r.due {
		r.due[i] = start + int64(float64(i)*interval)
	}
	deadline := epoch.Add(time.Duration(r.due[n-1]) + drain)
	conn.SetDeadline(deadline) //nolint:errcheck // a missed deadline shows as unanswered requests

	done := make(chan struct{})
	go func() {
		defer close(done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		setTimerSlack()
		now := func() int64 { return int64(time.Since(epoch)) }
		buf := make([]byte, 0, 256)
		req := serve.DecideRequest{Bench: bench}
		for i := 0; i < n; i++ {
			sleepUntil(epoch, r.due[i])
			id := r.firstID + uint32(i)
			req.ID, req.In = id, inputOf(id)
			tr := r.traced && i%2 == 0
			if tr {
				r.encS[i] = now()
			}
			frame, err := serve.AppendDecideRequest(buf[:0], &req)
			if err != nil {
				r.sendErr = err
				return
			}
			buf = frame
			if tr {
				r.encE[i] = now()
			}
			if _, err := conn.Write(frame); err != nil {
				r.sendErr = fmt.Errorf("send request %d: %w", id, err)
				return
			}
			r.sent[i] = now()
		}
	}()

	payload := make([]byte, 0, 256) // fits every response frame, so no pooled buffer is drawn
	var resp serve.DecideResponse
	for got := 0; got < n; got++ {
		var err error
		payload, err = serve.ReadFrameInto(br, payload)
		if err != nil {
			r.recvErr = err
			break
		}
		t := int64(time.Since(epoch))
		perr := serve.ParseDecideResponseInto(payload, &resp)
		rpE := int64(time.Since(epoch))
		id, isErr := resp.ID, false
		if perr != nil {
			msg, merr := serve.ParseMessage(payload)
			e, ok := msg.(*serve.ErrorResponse)
			if merr != nil || !ok {
				r.recvErr = fmt.Errorf("unexpected response: %v", perr)
				break
			}
			id, isErr = e.ID, true
		}
		i := int(id - r.firstID)
		if i < 0 || i >= n || r.recv[i] != 0 {
			r.recvErr = fmt.Errorf("response id %d outside rung or repeated", id)
			break
		}
		r.recv[i] = t
		r.bad[i] = isErr || resp.Fallback
		r.precise[i] = resp.Precise
		if r.traced && i%2 == 0 {
			r.rpS[i], r.rpE[i] = t, rpE
			replayOpen(r, i, epoch, bench, inputOf(id), tl)
		}
	}
	<-done
}

// replayOpen runs the daemon's per-request calls on request i's own frame
// and input in this process, once its response is in, and stamps them.
func replayOpen(r *openRung, i int, epoch time.Time, bench string, in []float64, tl *openTraceLayers) {
	req := serve.DecideRequest{ID: r.firstID + uint32(i), Bench: bench, In: in}
	tl.frame, _ = serve.AppendDecideRequest(tl.frame[:0], &req)                                            //nolint:errcheck // it encoded once already
	r.parS[i], r.parE[i] = fastest(epoch, func() { serve.ParseDecideRequestInto(tl.frame[4:], &tl.preq) }) //nolint:errcheck // the frame was just encoded
	r.getS[i], r.getE[i] = fastest(epoch, func() { tl.reg.Get(bench) })
	r.clsS[i], r.clsE[i] = fastest(epoch, func() { tl.tab.Classify(in) })
	tl.one[0] = in
	r.cbS[i], r.cbE[i] = fastest(epoch, func() { tl.tab.ClassifyBatch(tl.one, tl.dst) })
}
