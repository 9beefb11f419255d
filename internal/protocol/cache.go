package protocol

import "sync"

// Cache is a map shared by every run on an instance, concurrent runs
// included: the warm state a protocol attaches to the instance through
// instance.Derived, such as prebuilt payloads, a relay's rebuilt payloads
// or the shared relay processes themselves. Once it holds Max entries it
// stores no new ones and Get builds per call, so the cap bounds memory
// against runs that keep producing new keys and never changes what Get
// returns. The zero value is an empty, unbounded cache.
type Cache[K comparable, V any] struct {
	Max int // entry cap; 0 = unbounded
	// Charge, when set, is called once for each entry the cache stores, so
	// that its owner can count the heap the entries keep
	// (instance.Retain).
	Charge func(K, V)

	mu sync.RWMutex
	m  map[K]V
}

// Get returns the value stored under k, building and storing it on a miss.
// Racing misses may each build, and the first value stored wins, so build
// must depend on k alone.
func (c *Cache[K, V]) Get(k K, build func() V) V {
	c.mu.RLock()
	v, ok := c.m[k]
	c.mu.RUnlock()
	if ok {
		return v
	}
	v = build()
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.m[k]; ok {
		return old
	}
	if c.Max == 0 || len(c.m) < c.Max {
		if c.m == nil {
			c.m = make(map[K]V)
		}
		c.m[k] = v
		if c.Charge != nil {
			c.Charge(k, v)
		}
	}
	return v
}

// EntryBytes estimates what one stored entry of a warm store keeps beyond
// its variable-length data: a map slot, the string, slice and interface
// headers of its key and value, one boxed payload or record, and the
// allocator's rounding. Stores add it to each entry's charge.
const EntryBytes = 128

// Len returns the number of stored entries.
func (c *Cache[K, V]) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}
