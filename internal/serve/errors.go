package serve

import (
	"errors"
	"fmt"
)

// The serving stack's failure vocabulary: every failure a client or
// operator can observe is a typed sentinel, wrapped with context where
// it arises, so callers branch with errors.Is/errors.As instead of
// string matching — and every per-request failure has an in-band wire
// error code, so a misbehaving request earns an error response, not a
// dropped connection.
var (
	// ErrRetryable marks failures that are safe to retry: decisions are
	// pure functions of (snapshot, input), so re-asking can never
	// double-apply anything. Test with errors.Is(err, ErrRetryable).
	ErrRetryable = errors.New("serve: retryable")

	// ErrPartialWrite reports a request frame torn mid-write on a
	// closing connection; the server saw at most a prefix, so the whole
	// batch is safely re-sendable on a fresh connection.
	ErrPartialWrite = retryable(errors.New("serve: partial frame write"))

	// ErrPeerDown reports a cluster forward that could not reach the
	// owning node (link down, partitioned, or the peer is restarting).
	// The request was not decided anywhere, so re-asking is safe — the
	// owner may be reachable again, or a refreshed client route may hit
	// it directly.
	ErrPeerDown = retryable(errors.New("serve: peer unreachable"))

	// ErrFrameTooLarge reports a frame whose payload exceeds MaxFrame.
	ErrFrameTooLarge = errors.New("serve: frame too large")
	// ErrSnapshotMissing reports a benchmark the server holds no
	// snapshot for.
	ErrSnapshotMissing = errors.New("serve: no snapshot for benchmark")
	// ErrBadDim reports an input vector whose width does not match the
	// snapshot's kernel.
	ErrBadDim = errors.New("serve: input dimension mismatch")
)

// retryableError brands an error as retryable without disturbing its
// message or identity: errors.Is matches both the wrapped sentinel and
// ErrRetryable.
type retryableError struct{ err error }

func retryable(err error) error { return &retryableError{err: err} }

func (e *retryableError) Error() string { return e.err.Error() }
func (e *retryableError) Unwrap() error { return e.err }
func (e *retryableError) Is(target error) bool {
	return target == ErrRetryable || errors.Is(e.err, target)
}

// sentinelFor maps an in-band wire error code back to its typed
// sentinel, so client-side errors carry the server's failure identity
// through errors.Is. Unknown codes map to ErrProtocol.
func sentinelFor(code uint8) error {
	switch code {
	case CodeMalformed:
		return ErrProtocol
	case CodeUnknownBench:
		return ErrSnapshotMissing
	case CodeBadDim:
		return ErrBadDim
	case CodeFrameTooLarge:
		return ErrFrameTooLarge
	case CodePeerDown:
		return ErrPeerDown
	}
	return ErrProtocol
}

// wireError converts an ErrorResponse into the error a client returns:
// the sentinel wrapped with the server's message.
func wireError(e *ErrorResponse) error {
	return fmt.Errorf("serve: request %d failed (code %d): %w: %s", e.ID, e.Code, sentinelFor(e.Code), e.Msg)
}
