package serve

import (
	"context"
	"sync"
	"testing"
	"time"

	"mithra/internal/fault"
	"mithra/internal/mathx"
)

// Pool-correctness tests: the size-classed frame pool and the request
// pool sit under every served frame, so their failure modes — a buffer
// returned twice, a stale alias written after return — are silent
// cross-request corruption. The debug canary turns both into loud
// failures, and the chaos test at the bottom proves the ownership
// protocol survives connection resets, torn frames, and worker panics.

func TestBufClassRoundtrip(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 1024, 4096, 70000, MaxFrame + 4} {
		b := getBuf(n)
		if len(b) != 0 || cap(b) < n {
			t.Fatalf("getBuf(%d): len=%d cap=%d", n, len(b), cap(b))
		}
		putBuf(b)
	}
	// Beyond every class: a plain heap slice, putBuf drops it silently.
	huge := getBuf(MaxFrame + 5)
	if cap(huge) < MaxFrame+5 {
		t.Fatalf("oversize getBuf cap=%d", cap(huge))
	}
	putBuf(huge)
	putBuf(nil) // nil-safe
}

func TestClassForIsSmallestFit(t *testing.T) {
	for i, c := range bufClasses {
		if got := classFor(c); got != i {
			t.Fatalf("classFor(%d) = %d, want %d", c, got, i)
		}
		if got := classFor(c + 1); got != i+1 && !(i == len(bufClasses)-1 && got == -1) {
			t.Fatalf("classFor(%d) = %d, want %d", c+1, got, i+1)
		}
	}
	if classFor(bufClasses[len(bufClasses)-1]+1) != -1 {
		t.Fatal("classFor beyond the largest class must be -1")
	}
}

func TestPoolDebugDoubleBufPutPanics(t *testing.T) {
	SetPoolDebug(true)
	defer SetPoolDebug(false)
	b := getBuf(64)
	putBuf(b)
	defer func() {
		if recover() == nil {
			t.Fatal("second putBuf of the same buffer did not panic under pool debug")
		}
	}()
	putBuf(b)
}

func TestPoolDebugForeignBufPanics(t *testing.T) {
	SetPoolDebug(true)
	defer SetPoolDebug(false)
	defer func() {
		if recover() == nil {
			t.Fatal("putBuf of a never-checked-out buffer did not panic under pool debug")
		}
	}()
	putBuf(make([]byte, 0, bufClasses[0]))
}

func TestPoolDebugPoisonsReturnedBuffers(t *testing.T) {
	SetPoolDebug(true)
	defer SetPoolDebug(false)
	b := getBuf(64)
	b = append(b, wireMagic, wireV1, msgPing)
	alias := b[:3]
	putBuf(b)
	// A stale alias must read poison, never protocol bytes: anything
	// parsed through it fails loudly instead of decoding as a frame.
	for i, v := range alias {
		if v != 0xDB {
			t.Fatalf("alias byte %d = %#x after putBuf, want poison 0xDB", i, v)
		}
	}
}

func TestPoolOutstandingTracksCheckouts(t *testing.T) {
	SetPoolDebug(true)
	defer SetPoolDebug(false)
	a, b := getBuf(64), getBuf(4096)
	if bufs := PoolOutstanding(); bufs != 2 {
		t.Fatalf("outstanding = %d, want 2", bufs)
	}
	putBuf(a)
	putBuf(b)
	if bufs := PoolOutstanding(); bufs != 0 {
		t.Fatalf("outstanding after drain = %d, want 0", bufs)
	}
}

// TestPooledCodecRaceHammer drives the pooled encode/decode primitives
// from many goroutines at once; under `go test -race` this is the data
// race gate for the pool itself.
func TestPooledCodecRaceHammer(t *testing.T) {
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := mathx.NewRNG(seed)
			var req DecideRequest
			for i := 0; i < 500; i++ {
				n := 16 + rng.Intn(8192)
				buf := getBuf(n)
				frame, err := AppendFrame(buf, &DecideRequest{
					ID: uint32(i), Bench: "alpha", In: []float64{rng.Float64(), rng.Float64()},
				})
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := ParseDecideRequestInto(frame[4:], &req); err != nil {
					t.Error(err)
					return
				}
				putBuf(frame)
			}
		}(uint64(g) + 1)
	}
	wg.Wait()
}

// TestChaosPoolIntegrity is the buffer-ownership acceptance test: with
// the debug canary armed (poisoned returns, double-put panics), a
// fault plan tears connections, tears frames and injects decide panics
// while several clients hammer the server. Decisions must still match
// the offline classifier (a recycled buffer serving another request's
// bytes would break parity), no pool misuse may panic, and after a full
// drain every pooled buffer must be back home.
func TestChaosPoolIntegrity(t *testing.T) {
	plan, err := fault.ParsePlan("seed=19,conn.reset=0.005,frame.partial=0.01,worker.panic=1@10")
	if err != nil {
		t.Fatal(err)
	}
	SetPoolDebug(true)
	defer SetPoolDebug(false)

	snap := syntheticSnapshot(t, "alpha", nil)
	srv, addr := startServer(t, Config{
		Faults:  fault.NewSet(plan),
		Breaker: BreakerConfig{Window: 16, ErrBudget: 0.5, ProbeAfter: 2, Probes: 2},
	}, snap)

	const clients = 4
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rcl, err := DialResilient("tcp", addr, RetryConfig{Seed: seed, Attempts: 10})
			if err != nil {
				t.Error(err)
				return
			}
			defer rcl.Close()
			offline := snap.Table.ConcurrentView() // private scratch per goroutine
			rng := mathx.NewRNG(seed)
			for base := 0; base < 200; base += 20 {
				inputs := make([][]float64, 20)
				for i := range inputs {
					inputs[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
				}
				resps, err := rcl.DecideBatch("alpha", uint32(base), inputs)
				if err != nil {
					// A torn connection can exhaust retries; that is the fault
					// plan working, not a pool failure.
					continue
				}
				for i, r := range resps {
					if r.Fallback {
						if !r.Precise {
							t.Errorf("fallback decision not precise at %d", base+i)
						}
						continue
					}
					if want := offline.Classify(inputs[i]); r.Precise != want {
						t.Errorf("request %d: served %v, offline %v — pooled-buffer corruption?", base+i, r.Precise, want)
					}
				}
			}
		}(uint64(cl) + 31)
	}
	wg.Wait()

	// Full drain: after shutdown every checked-out buffer is back in its
	// pool — nothing leaked through the fault paths.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if bufs := PoolOutstanding(); bufs != 0 {
		t.Fatalf("after drain: %d buffers still checked out", bufs)
	}
}
