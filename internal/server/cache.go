package server

import (
	"container/list"
	"sync"
)

// resultCache is a size-bounded LRU over marshaled response bodies, keyed
// by the request's canonical key (the instance's canonical content hash
// plus the normalized query parameters — see cacheKey). Storing the exact
// bytes that were first served, rather than re-marshaling per request,
// gives the daemon its byte-identical-replies guarantee: two requests with
// the same canonical key receive the same body regardless of worker count
// or arrival order.
type resultCache struct {
	mu      sync.Mutex
	max     int
	order   *list.List               // front = most recently used
	entries map[string]*list.Element // key → element whose Value is *cacheEntry
}

type cacheEntry struct {
	key  string
	body []byte
}

// newResultCache builds an LRU bounded to max entries (max ≥ 1).
func newResultCache(max int) *resultCache {
	if max < 1 {
		max = 1
	}
	return &resultCache{max: max, order: list.New(), entries: make(map[string]*list.Element)}
}

// get returns the cached body for key, marking it most recently used.
func (c *resultCache) get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).body, true
}

// put stores body under key, evicting the least recently used entry when
// the bound is exceeded, and returns the body stored under key. The first
// body stored for a key wins: concurrent computations of the same key are
// deterministic and byte-identical, so keeping the incumbent preserves the
// byte-identity guarantee trivially.
func (c *resultCache) put(key string, body []byte) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*cacheEntry).body
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, body: body})
	for c.order.Len() > c.max {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.entries, last.Value.(*cacheEntry).key)
	}
	return body
}

// len returns the current entry count.
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
