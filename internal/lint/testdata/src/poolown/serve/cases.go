package serve

// --- positives --------------------------------------------------------

// A path that neither releases nor transfers: the acceptance case for a
// deleted Put (remove putBuf from conn.send and this is what remains).
func leakAlways() {
	buf := getBuf(64) // want "buffer from getBuf is not released"
	_ = buf
}

// Released on the happy path only; the error return leaks.
func leakOnError(fail bool) error {
	buf := getBuf(8) // want "buffer from getBuf is not released"
	if fail {
		return errFail
	}
	putBuf(buf)
	return nil
}

// A loop iteration that can reach continue with the object still owned.
func leakOnContinue(n int) {
	for i := 0; i < n; i++ {
		buf := getBuf(8) // want "buffer from getBuf is not released"
		if i%2 == 0 {
			continue
		}
		putBuf(buf)
	}
}

// Reading through the object after its release.
func useAfterPut() byte {
	buf := getBuf(8)
	buf = append(buf, 1)
	putBuf(buf)
	return buf[0] // want "use of pooled buffer from getBuf after it was returned to the pool"
}

// An alias created by a same-typed call result is tracked through the
// release too.
func useAfterPutAlias() (byte, error) {
	buf := getBuf(8)
	out, err := frame(buf)
	putBuf(buf)
	if err != nil {
		return 0, err
	}
	return out[0], nil // want "use of pooled buffer from getBuf after it was returned to the pool"
}

// Releasing twice on one path.
func doublePut() {
	buf := getBuf(8)
	putBuf(buf)
	putBuf(buf) // want "returned to the pool twice"
}

// Objects that never came from the pool.
func foreignPut() {
	buf := []byte{1, 2}
	putBuf(buf) // want "never came from the pool"
}

func foreignPutMake() {
	putBuf(make([]byte, 0, 64)) // want "never came from the pool"
}

// An acquisition whose result is dropped leaks immediately.
func discarded() {
	getBuf(8) // want "result of getBuf is discarded"
}

// An owned parameter must leave the function on every path too.
//
//mithra:owns buf
func consumeLeaky(buf []byte, fail bool) { // want "owned parameter buf is not released"
	if fail {
		return
	}
	putBuf(buf)
}

// --- negatives --------------------------------------------------------

// Released on every path, including the error return.
func allPaths(fail bool) error {
	buf := getBuf(8)
	if fail {
		putBuf(buf)
		return errFail
	}
	putBuf(buf)
	return nil
}

// Returning the object transfers ownership to the caller.
func transferReturn() []byte {
	buf := getBuf(8)
	return append(buf, 1)
}

// Sending on a channel transfers ownership to the receiver.
func transferSend(q chan []byte) {
	buf := getBuf(8)
	select {
	case q <- buf:
	default:
		putBuf(buf)
	}
}

// A deferred release covers every remaining path, including panics.
func deferRelease() {
	buf := getBuf(16)
	defer putBuf(buf)
	mayPanic()
}

// Passing to an //mithra:owns callee transfers ownership.
//
//mithra:owns buf
func consume(buf []byte) {
	_ = len(buf)
	putBuf(buf)
}

func transferOwns() {
	buf := getBuf(8)
	consume(buf)
}

// Transfer through a composite-literal alias: the wrapper carries the
// buffer, so sending the wrapper sends the buffer.
type frameTask struct {
	buf []byte
}

func wrapAndSend(q chan frameTask) {
	buf := getBuf(8)
	t := frameTask{buf: buf}
	q <- t
}

// Puts of non-tracked storage (fields, channel receives) are the consumer
// half of the protocol and always allowed.
func drain(q chan frameTask) {
	for t := range q {
		putBuf(t.buf)
	}
}

// Growing through the pool: put the outgrown buffer, draw a bigger one,
// return the result (mirrors ReadFrameInto).
//
//mithra:owns buf
func grow(buf []byte, n int) []byte {
	if cap(buf) < n {
		putBuf(buf)
		buf = getBuf(n)
	}
	return buf[:n]
}
