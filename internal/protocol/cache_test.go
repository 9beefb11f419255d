package protocol

import (
	"sync"
	"testing"
)

// TestCacheCapAndFirstStoreWins: concurrent misses on one key all get the
// first value stored, and past Max a new key is built on every Get while
// the stored entries stay.
func TestCacheCapAndFirstStoreWins(t *testing.T) {
	c := Cache[int, *int]{Max: 2}
	got := make([]*int, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = c.Get(0, func() *int { v := i; return &v })
		}()
	}
	wg.Wait()
	for i := range got {
		if got[i] != got[0] {
			t.Fatalf("Get %d returned %p, Get 0 %p: racing misses must share the stored value", i, got[i], got[0])
		}
	}
	c.Get(1, func() *int { return new(int) })
	builds := 0
	for i := 0; i < 3; i++ {
		c.Get(2, func() *int { builds++; return new(int) })
	}
	if builds != 3 || c.Len() != 2 {
		t.Fatalf("past the cap: %d builds over 3 Gets, %d entries; want 3 and 2", builds, c.Len())
	}
	if c.Get(0, nil) != got[0] {
		t.Fatal("a stored entry was lost past the cap")
	}
}
