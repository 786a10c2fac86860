// Package keycache is a size-bounded LRU for the serving layer's largest
// per-tenant objects: evaluation-key sets and the session state built around
// them. A single hybrid key-switching key set is tens of megabytes at
// production parameters, so the session store behaves like a cache, not a
// map:
//
//   - byte accounting: each entry carries its measured size, and the cache
//     evicts least-recently-used entries to stay under one exact byte budget;
//
//   - pinning: entries referenced by in-flight jobs are pin-counted and
//     never evicted, so a running job's key material cannot vanish under it;
//
//   - observability: hit/miss/eviction counters and resident-bytes gauges,
//     exported through the shared obs registry.
//
// One mutex guards one list: a lookup is a map access and a list splice, far
// below the cost of the homomorphic op that follows it. The package is generic
// over the cached value so the engine can cache *Session while tests cache
// small fakes.
package keycache

import (
	"container/list"
	"fmt"
	"sync"

	"github.com/anaheim-sim/anaheim/internal/obs"
)

// Config sizes a cache.
type Config struct {
	// BudgetBytes bounds the total resident size; 0 means unbounded.
	BudgetBytes int64
	// Name labels this cache's metrics, e.g. `keycache_hits_total{cache="sessions"}`.
	// Defaults to "default".
	Name string
	// Obs receives the cache's metrics. Defaults to obs.Default.
	Obs *obs.Registry
}

// entry is one resident value with its size and pin count.
type entry[V any] struct {
	key   string
	val   V
	bytes int64
	pins  int
}

// Cache is a byte-bounded LRU. Create with New.
type Cache[V any] struct {
	budget  int64 // 0 = unbounded
	onEvict func(key string, val V)

	mu      sync.Mutex
	entries map[string]*list.Element // of *entry[V]
	lru     *list.List               // front = most recently used
	bytes   int64

	hits      *obs.Counter
	misses    *obs.Counter
	evictions *obs.Counter
}

// New builds a cache. onEvict (may be nil) runs synchronously under the
// cache lock whenever an entry is evicted for space — not on Remove or
// Clear, whose callers already hold the value — so it must not call back
// into the cache.
func New[V any](cfg Config, onEvict func(key string, val V)) *Cache[V] {
	if cfg.Name == "" {
		cfg.Name = "default"
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.Default
	}
	name := func(family string) string {
		return fmt.Sprintf(`%s{cache="%s"}`, family, cfg.Name)
	}
	c := &Cache[V]{
		budget:  cfg.BudgetBytes,
		onEvict: onEvict,
		entries: make(map[string]*list.Element),
		lru:     list.New(),

		hits:      cfg.Obs.Counter(name("keycache_hits_total")),
		misses:    cfg.Obs.Counter(name("keycache_misses_total")),
		evictions: cfg.Obs.Counter(name("keycache_evictions_total")),
	}
	cfg.Obs.GaugeFunc(name("keycache_resident_bytes"),
		func() float64 { return float64(c.Bytes()) })
	cfg.Obs.GaugeFunc(name("keycache_resident_entries"),
		func() float64 { return float64(c.Len()) })
	return c
}

// Put inserts or replaces a value with its measured size, then evicts
// unpinned entries from the least recently used end until the cache fits its
// budget. The entry just put is never the one evicted, and if only it and
// pinned entries remain the cache is allowed over budget: an in-flight job
// must keep its keys.
func (c *Cache[V]) Put(key string, val V, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if ok {
		e := el.Value.(*entry[V])
		c.bytes += bytes - e.bytes
		e.val, e.bytes = val, bytes
		c.lru.MoveToFront(el)
	} else {
		el = c.lru.PushFront(&entry[V]{key: key, val: val, bytes: bytes})
		c.entries[key] = el
		c.bytes += bytes
	}
	for old := c.lru.Back(); c.budget > 0 && old != nil && c.bytes > c.budget; {
		next := old.Prev()
		if e := old.Value.(*entry[V]); old != el && e.pins == 0 {
			c.drop(old)
			c.evictions.Inc()
			if c.onEvict != nil {
				c.onEvict(e.key, e.val)
			}
		}
		old = next
	}
}

// drop unlinks an element and stops accounting its bytes. Called with c.mu
// held.
func (c *Cache[V]) drop(el *list.Element) {
	e := c.lru.Remove(el).(*entry[V])
	delete(c.entries, e.key)
	c.bytes -= e.bytes
}

// lookup is Get with an optional pin, both under one hold of the lock.
func (c *Cache[V]) lookup(key string, pin bool) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses.Inc()
		var zero V
		return zero, false
	}
	c.hits.Inc()
	c.lru.MoveToFront(el)
	e := el.Value.(*entry[V])
	if pin {
		e.pins++
	}
	return e.val, true
}

// Get returns the resident value for key, marking it most recently used.
func (c *Cache[V]) Get(key string) (V, bool) { return c.lookup(key, false) }

// Acquire is Get plus a pin taken under the same lock: the entry cannot be
// evicted until the matching Unpin. Callers must pair every successful
// Acquire with exactly one Unpin.
func (c *Cache[V]) Acquire(key string) (V, bool) { return c.lookup(key, true) }

// Unpin decrements the pin count. Unpinning a non-resident key (removed
// while pinned) is a no-op.
func (c *Cache[V]) Unpin(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		if e := el.Value.(*entry[V]); e.pins > 0 {
			e.pins--
		}
	}
}

// Remove deletes an entry regardless of pins (callers holding references
// keep them; the bytes just stop being accounted). Returns the removed
// value, if any.
func (c *Cache[V]) Remove(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.drop(el)
	return el.Value.(*entry[V]).val, true
}

// Clear removes every entry, invoking fn (may be nil) on each — the
// deterministic-release hook Engine.Close uses to drop key material.
func (c *Cache[V]) Clear(fn func(key string, val V)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if fn != nil {
		for el := c.lru.Front(); el != nil; el = el.Next() {
			e := el.Value.(*entry[V])
			fn(e.key, e.val)
		}
	}
	clear(c.entries)
	c.lru.Init()
	c.bytes = 0
}

// Len returns the number of resident entries.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Bytes returns the total resident size.
func (c *Cache[V]) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}
