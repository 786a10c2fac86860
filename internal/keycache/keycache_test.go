package keycache

import (
	"fmt"
	"sync"
	"testing"

	"github.com/anaheim-sim/anaheim/internal/obs"
)

func newTestCache(t *testing.T, budget int64) (*Cache[string], *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	c := New[string](Config{BudgetBytes: budget, Name: "test", Obs: reg}, nil)
	return c, reg
}

func TestPutGetTouch(t *testing.T) {
	c, reg := newTestCache(t, 0)
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache returned a hit")
	}
	c.Put("a", "va", 10)
	c.Put("b", "vb", 20)
	if v, ok := c.Get("a"); !ok || v != "va" {
		t.Fatalf("Get(a) = %q, %v", v, ok)
	}
	if got := c.Bytes(); got != 30 {
		t.Fatalf("Bytes() = %d, want 30", got)
	}
	if got := c.Len(); got != 2 {
		t.Fatalf("Len() = %d, want 2", got)
	}
	// Replacing re-accounts bytes.
	c.Put("a", "va2", 15)
	if got := c.Bytes(); got != 35 {
		t.Fatalf("Bytes() after replace = %d, want 35", got)
	}
	snap := reg.Snapshot()
	if snap.Counters[`keycache_hits_total{cache="test"}`] != 1 ||
		snap.Counters[`keycache_misses_total{cache="test"}`] != 1 {
		t.Fatalf("hit/miss counters wrong: %v", snap.Counters)
	}
}

// TestLRUEvictionUnderBudget verifies least-recently-used entries are evicted
// first when the byte budget is exceeded, and that eviction metrics and the
// onEvict hook fire.
func TestLRUEvictionUnderBudget(t *testing.T) {
	reg := obs.NewRegistry()
	var evicted []string
	c := New[string](Config{BudgetBytes: 100, Name: "evict", Obs: reg},
		func(key string, _ string) { evicted = append(evicted, key) })

	c.Put("a", "va", 40)
	c.Put("b", "vb", 40)
	c.Get("a") // a is now more recent than b
	c.Put("c", "vc", 40)

	if _, ok := c.Get("b"); ok {
		t.Fatal("b (LRU) should have been evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a (recently used) must survive")
	}
	if _, ok := c.Get("c"); !ok {
		t.Fatal("c (just inserted) must survive")
	}
	if len(evicted) != 1 || evicted[0] != "b" {
		t.Fatalf("evicted = %v, want [b]", evicted)
	}
	if c.Bytes() != 80 {
		t.Fatalf("Bytes() = %d, want 80", c.Bytes())
	}
	if got := reg.Snapshot().Counters[`keycache_evictions_total{cache="evict"}`]; got != 1 {
		t.Fatalf("evictions counter = %v, want 1", got)
	}
}

// TestPinnedNeverEvicted verifies pinned entries survive even when the cache
// is over budget, and become evictable again after Unpin.
func TestPinnedNeverEvicted(t *testing.T) {
	c, _ := newTestCache(t, 100)
	c.Put("a", "va", 60)
	if _, ok := c.Acquire("a"); !ok {
		t.Fatal("Acquire(a) on resident entry failed")
	}
	if _, ok := c.Acquire("missing"); ok {
		t.Fatal("Acquire of a key that was never put succeeded")
	}
	c.Put("b", "vb", 60) // over budget: a is LRU but pinned, so b fits by exceeding budget
	if _, ok := c.Get("a"); !ok {
		t.Fatal("pinned entry was evicted")
	}
	c.Unpin("a")
	c.Put("c", "vc", 60) // now a (LRU, unpinned) goes
	if _, ok := c.Get("a"); ok {
		t.Fatal("unpinned LRU entry should have been evicted")
	}
}

// TestBudgetIsExact: the budget is one number over the whole cache, not a
// share per hash bucket. Fourteen 70 MiB key sets fit under 1 GiB and all stay
// resident; the fifteenth evicts exactly the least recently used one.
func TestBudgetIsExact(t *testing.T) {
	const size = 70 << 20
	c, reg := newTestCache(t, 1<<30)
	for i := 1; i <= 14; i++ {
		c.Put(fmt.Sprintf("sess-%d", i), "v", size)
	}
	if c.Len() != 14 || c.Bytes() != 14*size {
		t.Fatalf("14 x 70 MiB under 1 GiB: %d entries / %d bytes resident, want 14 / %d", c.Len(), c.Bytes(), 14*size)
	}
	if n := reg.Snapshot().Counters[`keycache_evictions_total{cache="test"}`]; n != 0 {
		t.Fatalf("%v evictions while under budget", n)
	}
	c.Get("sess-1") // sess-2 is now the least recently used
	c.Put("sess-15", "v", size)
	if _, ok := c.Get("sess-2"); ok {
		t.Fatal("sess-2 (least recently used) survived the 15th insert")
	}
	if c.Len() != 14 || c.Bytes() != 14*size {
		t.Fatalf("after the 15th insert: %d entries / %d bytes, want 14 / %d", c.Len(), c.Bytes(), 14*size)
	}
	if n := reg.Snapshot().Counters[`keycache_evictions_total{cache="test"}`]; n != 1 {
		t.Fatalf("%v evictions, want exactly 1", n)
	}
}

func TestRemoveAndClear(t *testing.T) {
	c, _ := newTestCache(t, 0)
	for i := 0; i < 32; i++ {
		c.Put(fmt.Sprintf("k%d", i), "v", 8)
	}
	if v, ok := c.Remove("k7"); !ok || v != "v" {
		t.Fatalf("Remove(k7) = %q, %v", v, ok)
	}
	if _, ok := c.Get("k7"); ok {
		t.Fatal("removed entry still resident")
	}
	// Remove while pinned is allowed: the caller keeps its reference, the
	// cache just stops accounting the bytes.
	c.Acquire("k8")
	if _, ok := c.Remove("k8"); !ok {
		t.Fatal("Remove of pinned entry failed")
	}
	c.Unpin("k8") // no-op on non-resident key

	var cleared []string
	c.Clear(func(key string, _ string) { cleared = append(cleared, key) })
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatalf("Clear left %d entries / %d bytes", c.Len(), c.Bytes())
	}
	if len(cleared) != 30 {
		t.Fatalf("Clear visited %d entries, want 30", len(cleared))
	}
}

// TestConcurrentChurn hammers every operation from many goroutines; run
// under -race this is the cache's concurrency-safety gate.
func TestConcurrentChurn(t *testing.T) {
	c, _ := newTestCache(t, 4096)
	const workers = 16
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k%d", (w*31+i)%64)
				switch i % 5 {
				case 0:
					c.Put(key, key, int64(64+i%128))
				case 1:
					c.Get(key)
				case 2:
					if v, ok := c.Acquire(key); ok {
						if v != key {
							t.Errorf("Acquire(%s) = %q", key, v)
						}
						c.Unpin(key)
					}
				case 3:
					c.Remove(key)
				case 4:
					c.Bytes()
					c.Len()
				}
			}
		}()
	}
	wg.Wait()
	c.Clear(func(key, val string) {
		if key != val {
			t.Errorf("entry %q holds %q", key, val)
		}
	})
}
