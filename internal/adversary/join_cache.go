package adversary

import (
	"sync"

	"rmt/internal/nodeset"
)

// JoinCache memoizes the ⊕-fold Z_B = ⊕_{v ∈ B} Z_v across calls, keyed by
// nodeset.Set.Key(). Because ⊕ is commutative, associative and idempotent
// (Theorems 11 and 13–15 make restricted structures a semilattice), the fold
// can be computed incrementally as Z_B = Z_{B \ {max B}} ⊕ Z_{max B}, and
// every sub-fold is shared between overlapping arguments. Candidate
// enumerations that grow a component one node at a time (FindRMTCut,
// receiver-side cover checks, FindZppCut) hit the cache on all but the last
// node of each candidate.
//
// The local-knowledge function must be pure: each node's Restricted is
// fetched at most once and retained. A JoinCache is safe for concurrent use.
type JoinCache struct {
	mu    sync.Mutex
	local func(v int) (Restricted, bool)
	memo  map[string]Restricted
	kbuf  []byte // scratch for allocation-free memo probes (guarded by mu)
}

// NewJoinCacheFunc returns a cache over an arbitrary per-node knowledge
// function; ok=false means the node contributes the identity.
func NewJoinCacheFunc(local func(v int) (Restricted, bool)) *JoinCache {
	return &JoinCache{local: local, memo: make(map[string]Restricted)}
}

// JointOf returns ⊕_{v ∈ b} Z_v, reusing every previously computed
// sub-fold. The fold order (increasing node ID) differs from a left fold
// over arbitrary orders only up to the semilattice laws, so the result
// equals LocalKnowledge.JointOf exactly (canonical antichains are unique).
func (c *JoinCache) JointOf(b nodeset.Set) Restricted {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.jointOf(b)
}

func (c *JoinCache) jointOf(b nodeset.Set) Restricted {
	if b.IsEmpty() {
		return Identity()
	}
	// Probe with a reused byte buffer: map lookups with string(bytes) do not
	// allocate, so cache hits — the common case for candidate enumerations —
	// cost one hash and no garbage. The key string is materialized only when
	// a new fold is inserted.
	c.kbuf = b.AppendKey(c.kbuf[:0])
	if r, ok := c.memo[string(c.kbuf)]; ok {
		return r
	}
	v := b.Max()
	acc := c.jointOf(b.Remove(v))
	if r, ok := c.local(v); ok {
		acc = Join(acc, r)
	}
	// jointOf invalidated kbuf; rebuild the key for the insert.
	c.memo[b.Key()] = acc
	return acc
}

// Len returns the number of memoized folds (for tests and diagnostics).
func (c *JoinCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.memo)
}
