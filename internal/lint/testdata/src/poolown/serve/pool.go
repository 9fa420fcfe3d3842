// Fixture for the poolownership analyzer: the package path ends in
// "serve", which is inside the guarded scope. These stubs mirror the real
// pool API (internal/serve/pool.go) so acquisition and release sites
// resolve by name.
package serve

import "errors"

var errFail = errors.New("fail")

func getBuf(n int) []byte              { return make([]byte, 0, n) }
func putBuf(b []byte)                  {}
func mayPanic()                        {}
func frame(dst []byte) ([]byte, error) { return dst, nil }
