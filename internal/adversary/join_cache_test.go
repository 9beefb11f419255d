package adversary

import (
	"math/rand"
	"sync"
	"testing"

	"rmt/internal/nodeset"
)

func randomLocalKnowledge(r *rand.Rand, n int) LocalKnowledge {
	lk := LocalKnowledge{}
	for v := 0; v < n; v++ {
		if r.Intn(4) == 0 {
			continue // some nodes contribute nothing (identity)
		}
		dom := nodeset.Of(v)
		for u := 0; u < n; u++ {
			if r.Intn(2) == 0 {
				dom = dom.Add(u)
			}
		}
		lk[v] = Restricted{Domain: dom, Structure: Random(r, dom, 1+r.Intn(3), 0.4)}
	}
	return lk
}

// cacheOver returns a cache over a LocalKnowledge map. Nodes without an
// entry contribute the identity, matching LocalKnowledge.JointOf.
func cacheOver(lk LocalKnowledge) *JoinCache {
	return NewJoinCacheFunc(func(v int) (Restricted, bool) {
		r, ok := lk[v]
		return r, ok
	})
}

func randomSubsetUpTo(r *rand.Rand, n int) nodeset.Set {
	b := nodeset.Empty()
	for v := 0; v < n; v++ {
		if r.Intn(2) == 0 {
			b = b.Add(v)
		}
	}
	return b
}

// TestJoinCacheMatchesDirectFold is the memoization soundness property: the
// incrementally cached fold must agree with LocalKnowledge.JointOf on every
// query, including repeat and prefix-sharing queries where the cache serves
// partial folds it computed earlier. Soundness rests on ⊕ being associative,
// commutative and idempotent (Theorems 11, 13–15).
func TestJoinCacheMatchesDirectFold(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		n := 3 + r.Intn(5)
		lk := randomLocalKnowledge(r, n)
		cache := cacheOver(lk)
		queries := make([]nodeset.Set, 40)
		for i := range queries {
			if i > 0 && r.Intn(3) == 0 {
				queries[i] = queries[r.Intn(i)] // repeat an earlier query
			} else {
				queries[i] = randomSubsetUpTo(r, n)
			}
		}
		for i, b := range queries {
			got := cache.JointOf(b)
			want := lk.JointOf(b)
			if !got.Equal(want) {
				t.Fatalf("trial %d query %d: JoinCache(%v) = %v, want %v", trial, i, b, got, want)
			}
		}
		if cache.Len() == 0 {
			t.Fatalf("trial %d: cache stayed empty after %d queries", trial, len(queries))
		}
	}
}

// TestJoinCacheConcurrent hammers one cache from many goroutines; run under
// -race this is the concurrency-safety smoke test for the shared memo.
func TestJoinCacheConcurrent(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	n := 6
	lk := randomLocalKnowledge(r, n)
	cache := cacheOver(lk)
	queries := make([]nodeset.Set, 32)
	for i := range queries {
		queries[i] = randomSubsetUpTo(r, n)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, b := range queries {
				if got, want := cache.JointOf(b), lk.JointOf(b); !got.Equal(want) {
					errs <- got.String() + " != " + want.String()
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
