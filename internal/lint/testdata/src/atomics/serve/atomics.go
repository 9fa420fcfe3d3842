// Fixture for the atomicswap analyzer: the package path ends in
// "serve", which is the guarded scope.
package serve

import (
	"sync"
	"sync/atomic"
)

type snapMap map[string]int

// Registry mirrors the serving stack's copy-on-write publication point.
type Registry struct {
	mu  sync.Mutex
	cur atomic.Pointer[snapMap]
}

// --- negatives --------------------------------------------------------

// Install is a blessed method of the owning type.
func (r *Registry) Install(m *snapMap) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cur.Store(m)
}

// NewRegistry stores into a registry constructed in this function before
// any reader can see it.
func NewRegistry() *Registry {
	r := &Registry{}
	m := snapMap{}
	r.cur.Store(&m)
	return r
}

// --- positives --------------------------------------------------------

// hijack publishes from outside the owning type, skipping the writer
// mutex and any versioning Install performs.
func hijack(r *Registry, m *snapMap) {
	r.cur.Store(m) // want "atomic.Pointer Store outside the owning type's methods"
}

func hijackSwap(r *Registry, m *snapMap) *snapMap {
	return r.cur.Swap(m) // want "atomic.Pointer Swap outside the owning type's methods"
}
