package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Pooled frame buffers (DESIGN.md §12). Connection readers and clients
// read every frame payload into one buffer that ReadFrameInto grows
// through size-classed sync.Pools, and conn.send frames forwarded
// responses in them. A reader's buffer goes back when its connection
// ends, so connection churn (client reconnects after a reset, peer links
// redialing) reuses payload buffers instead of allocating new ones; a
// send buffer goes back once its write completes (writes are synchronous
// under the conn lock, so a returned buffer is never still referenced by
// the network stack).
//
// Ownership rule: a buffer obtained from getBuf is owned by exactly one
// goroutine until putBuf; putBuf transfers ownership back to the pool.
// Returning a buffer twice, or writing through a stale alias after
// putBuf, is a corruption bug — the debug canary below exists to catch
// exactly that class of fault under the chaos tests.

// bufClasses are the pooled capacity classes. Decide responses are ~20
// bytes, request frames for wide inputs run to a few KiB, and MaxFrame
// bounds everything else.
var bufClasses = [...]int{64, 256, 1024, 4096, 16384, 65536, MaxFrame + 4}

var bufPools [len(bufClasses)]sync.Pool

// classFor returns the index of the smallest class holding n bytes, or
// -1 when n exceeds every class (the caller falls back to the heap).
func classFor(n int) int {
	for i, c := range bufClasses {
		if n <= c {
			return i
		}
	}
	return -1
}

// getBuf returns a zero-length buffer with capacity >= n. Steady state
// it is pool-hit and allocation-free; a cold pool (or n beyond the
// largest class) allocates.
//
//mithra:hotpath
func getBuf(n int) []byte {
	ci := classFor(n)
	if ci < 0 {
		return make([]byte, 0, n) //mithra:coldpath beyond the largest class the heap is the fallback
	}
	var b []byte
	if v := bufPools[ci].Get(); v != nil {
		b = v.([]byte)[:0]
	} else {
		b = make([]byte, 0, bufClasses[ci]) //mithra:coldpath cold-pool fill; steady state is pool-hit
	}
	poolDebugGet(b)
	return b
}

// putBuf returns a buffer to its capacity class. Buffers that grew past
// their class via append (oversized error messages) are dropped to the
// GC rather than polluting a class with odd capacities. Safe on
// nil/zero-cap buffers.
//
//mithra:hotpath
func putBuf(b []byte) {
	if cap(b) == 0 {
		return
	}
	ci := classFor(cap(b))
	if ci < 0 || bufClasses[ci] != cap(b) {
		return
	}
	poolDebugPut(b)
	//mithra:coldpath static escape only: converting a zero-length slice to any hits runtime convTslice's zerobase fast path and never allocates
	bufPools[ci].Put(b[:0]) //nolint:staticcheck // slices are pointer-shaped; this does not allocate per op
}

// --- debug canary -----------------------------------------------------
//
// The chaos tests flip pool-debug mode on to make pool misuse loud:
// every checked-out buffer is tracked, returning one that is not
// checked out (a double put, or a foreign buffer) panics with the
// capacity, and returned buffers are poisoned with 0xDB — a stale alias
// read after return yields bytes that can never parse as a valid frame
// (0xDB is not the wire magic), so aliasing surfaces as loud protocol
// errors instead of silently serving another request's decision.

var (
	poolDebug   atomic.Bool
	poolDebugMu sync.Mutex
	// liveBufs keys each checked-out buffer by the address of its first
	// backing byte.
	liveBufs map[*byte]bool
)

// SetPoolDebug toggles pool misuse tracking (tests only: it serializes
// pool traffic through a mutex). Enabling resets the tracking state.
func SetPoolDebug(on bool) {
	poolDebugMu.Lock()
	defer poolDebugMu.Unlock()
	liveBufs = map[*byte]bool{}
	poolDebug.Store(on)
}

// bufKey identifies a buffer by its backing array.
func bufKey(b []byte) *byte { return &b[:1][0] }

func poolDebugGet(b []byte) {
	if !poolDebug.Load() {
		return
	}
	poolDebugMu.Lock()
	defer poolDebugMu.Unlock()
	liveBufs[bufKey(b)] = true
}

func poolDebugPut(b []byte) {
	if !poolDebug.Load() {
		return
	}
	poolDebugMu.Lock()
	defer poolDebugMu.Unlock()
	k := bufKey(b)
	if !liveBufs[k] {
		panic(fmt.Sprintf("serve: frame buffer cap=%d returned to pool twice (or never checked out)", cap(b)))
	}
	delete(liveBufs, k)
	full := b[:cap(b)]
	for i := range full {
		full[i] = 0xDB
	}
}

// PoolOutstanding reports how many buffers are checked out while debug
// tracking is on (tests assert it drains to zero).
func PoolOutstanding() int {
	poolDebugMu.Lock()
	defer poolDebugMu.Unlock()
	return len(liveBufs)
}
