package server

import (
	"container/list"
	"math"
	"sync"
)

// lru is a bounded least-recently-used map from request keys to values
// that are deterministic functions of their keys. rmtd keeps two: the
// result cache, marshaled response bodies keyed by the instance's identity
// plus the normalized query parameters (see feasibilityKey and
// runCacheKey), and /v1/run's instance cache, built instances keyed by the
// request's exact instance text (see InstanceRequest.cacheKey). Storing
// the exact bytes that were first served, rather than re-marshaling per
// request, gives the daemon its byte-identical-replies guarantee: two
// requests with the same key receive the same body regardless of worker
// count or arrival order.
//
// It holds at most max entries, whose weights sum to at most budget; a
// value heavier than the whole budget is returned to its caller but never
// stored. A value's weight may grow while it is held (an instance's warm
// state does); reweigh restores the bounds.
type lru[V any] struct {
	mu      sync.Mutex
	max     int
	budget  int                      // bound on the summed weights
	weigh   func(V) int              // a value's weight; nil weighs every value 0
	weight  int                      // summed weights of the held entries
	order   *list.List               // front = most recently used
	entries map[string]*list.Element // key → element whose Value is *lruEntry[V]
}

type lruEntry[V any] struct {
	key    string
	val    V
	weight int
}

// newLRU builds an LRU bounded to maxEntries entries (at least one) and,
// when budget > 0, to budget summed weight, each value weighing weigh(v).
// weigh runs under the LRU's lock in reweigh, so it must be cheap.
func newLRU[V any](maxEntries, budget int, weigh func(V) int) *lru[V] {
	if budget <= 0 {
		budget = math.MaxInt
	}
	return &lru[V]{max: max(maxEntries, 1), budget: budget, weigh: weigh, order: list.New(), entries: make(map[string]*list.Element)}
}

func (c *lru[V]) weightOf(v V) int {
	if c.weigh == nil {
		return 0
	}
	return c.weigh(v)
}

// get returns the value stored under key, marking it most recently used.
func (c *lru[V]) get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry[V]).val, true
}

// put stores val under key, evicting least recently used entries until
// both bounds hold, and returns the value stored under key. The incumbent wins: values are deterministic functions of their
// keys, so when concurrent misses computed the same key, every caller
// serves the one value stored first — the same body bytes, or one shared
// instance with its warm state. A value heavier than the budget is
// returned as is and not stored.
func (c *lru[V]) put(key string, val V) V {
	weight := c.weightOf(val)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*lruEntry[V]).val
	}
	if weight > c.budget {
		return val
	}
	c.entries[key] = c.order.PushFront(&lruEntry[V]{key: key, val: val, weight: weight})
	c.weight += weight
	c.evict()
	return val
}

// reweigh weighs the value held under key again, since it may have grown,
// and restores both bounds: a value now heavier than the whole budget is
// dropped, as put would not have stored it, and otherwise least recently
// used entries are evicted until the weights fit again. A key not held is
// left alone.
func (c *lru[V]) reweigh(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return
	}
	e := el.Value.(*lruEntry[V])
	w := c.weightOf(e.val)
	c.weight += w - e.weight
	e.weight = w
	if w > c.budget {
		c.remove(el)
	}
	c.evict()
}

// evict removes least recently used entries until both bounds hold.
func (c *lru[V]) evict() {
	for c.order.Len() > c.max || c.weight > c.budget {
		c.remove(c.order.Back())
	}
}

func (c *lru[V]) remove(el *list.Element) {
	e := el.Value.(*lruEntry[V])
	c.order.Remove(el)
	delete(c.entries, e.key)
	c.weight -= e.weight
}

// len returns the current entry count.
func (c *lru[V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
