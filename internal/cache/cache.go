// Package cache provides the sharded, bounded LRU map behind the alias
// Manager's verdict memo and any other hot, size-capped lookup structure the
// service grows. It exists because the service's original memo — an
// append-only sync.Map with a check-then-add size gate — had two pathologies
// under sustained multi-tenant traffic: the gate raced (the map could
// overshoot its limit by up to GOMAXPROCS entries), and once full it froze,
// pinning the first-seen cold entries forever while every later hot key
// recomputed on each query.
//
// A Cache fixes both. Capacity is enforced atomically: insertion and
// eviction happen under one shard lock, so the total entry count never
// exceeds the configured capacity at any observable moment. Recency is
// tracked with an intrusive doubly-linked list per shard, so a hot working
// set keeps displacing cold entries no matter how many distinct keys stream
// past. Sharding (each shard owns a mutex, a map slice of the key space, and
// its own LRU list) keeps concurrent readers from serializing on one lock;
// the caller supplies the hash that spreads keys across shards.
//
// Hit, miss and eviction counters are maintained with atomics and exposed
// via Stats for the service's /v1/stats payload.
package cache

import (
	"sync"
	"sync/atomic"
)

// Cache is a sharded, bounded LRU map. The zero value is not usable; call
// New. A Cache is safe for concurrent use by multiple goroutines.
type Cache[K comparable, V any] struct {
	shards []shard[K, V]
	hash   func(K) uint64
	// cap is atomic because Resize rebounds a live cache while Cap/Stats
	// read it from scrape paths.
	cap atomic.Int64
	// resizeMu serializes Resize calls; the per-shard locks still order a
	// resize against concurrent Get/GetOrAdd traffic.
	resizeMu sync.Mutex

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	// size mirrors the summed shard map sizes so Len never touches a shard
	// lock — scrape-time readers (the /metrics cache-entries gauge) must
	// not contend with the query path holding shard locks.
	size atomic.Int64
}

// Stats is a point-in-time snapshot of a Cache's counters.
type Stats struct {
	Len       int   // live entries, ≤ Cap
	Cap       int   // configured capacity
	Hits      int64 // Get/GetOrAdd calls answered by an existing entry
	Misses    int64 // Get calls that found nothing
	Evictions int64 // entries displaced to admit newer ones
}

// entry is one cached key/value pair, threaded on its shard's intrusive
// recency list (prev is toward the MRU end, next toward the LRU end).
type entry[K comparable, V any] struct {
	key        K
	val        V
	prev, next *entry[K, V]
}

// shard owns a slice of the key space: a mutex, the entry map, and the
// recency list bounded by max. head is most-recently used, tail least.
type shard[K comparable, V any] struct {
	mu   sync.Mutex
	max  int
	m    map[K]*entry[K, V]
	head *entry[K, V]
	tail *entry[K, V]
}

// New builds a cache holding at most capacity entries across shards shards,
// using hash to assign keys to shards. capacity must be ≥ 1. shards is
// clamped to [1, capacity] so that every shard can hold at least one entry;
// per-shard bounds sum exactly to capacity, making the total an invariant
// rather than an approximation.
func New[K comparable, V any](capacity, shards int, hash func(K) uint64) *Cache[K, V] {
	if capacity < 1 {
		panic("cache.New: capacity must be ≥ 1")
	}
	if shards < 1 {
		shards = 1
	}
	if shards > capacity {
		shards = capacity
	}
	c := &Cache[K, V]{shards: make([]shard[K, V], shards), hash: hash}
	c.cap.Store(int64(capacity))
	base, extra := capacity/shards, capacity%shards
	for i := range c.shards {
		max := base
		if i < extra {
			max++
		}
		c.shards[i].max = max
		// Unsized: the capacity bound is a ceiling, not an expected
		// population, and a memo the index leaves cold must not hold
		// buckets for entries it never caches. Maps grow on demand.
		c.shards[i].m = make(map[K]*entry[K, V])
	}
	return c
}

// Resize rebounds a live cache to capacity entries, redistributing the
// per-shard bounds exactly as New does and immediately evicting LRU entries
// from any shard now over its bound (growing never evicts). Displacements
// count as ordinary evictions. capacity is clamped so every shard keeps a
// bound of at least one entry — the effective floor is the shard count. It
// reports whether the bound actually changed, and is safe to call
// concurrently with Get/GetOrAdd: each shard transitions under its own
// lock, so the capacity invariant holds per shard at every instant.
//
// This is the memory-budget governor's degradation lever: under pressure
// the service shrinks every module's verdict memo and restores the
// configured bound on recovery.
func (c *Cache[K, V]) Resize(capacity int) bool {
	if capacity < len(c.shards) {
		capacity = len(c.shards)
	}
	c.resizeMu.Lock()
	defer c.resizeMu.Unlock()
	if int(c.cap.Load()) == capacity {
		return false
	}
	base, extra := capacity/len(c.shards), capacity%len(c.shards)
	var evicted int64
	for i := range c.shards {
		max := base
		if i < extra {
			max++
		}
		s := &c.shards[i]
		s.mu.Lock()
		shrunk := max < s.max
		s.max = max
		for len(s.m) > s.max {
			s.evictTail()
			evicted++
		}
		if shrunk {
			// Go maps never release bucket memory on delete, so evicting
			// entries alone leaves the shard holding buckets sized for its
			// former population. Rebuilding the map is what makes a
			// shrinking resize — the governor's degradation lever — return
			// memory instead of merely capping future growth. The rebuilt
			// map is sized for the entries it keeps.
			m := make(map[K]*entry[K, V], len(s.m))
			for k, e := range s.m {
				m[k] = e
			}
			s.m = m
		}
		s.mu.Unlock()
	}
	if evicted > 0 {
		c.evictions.Add(evicted)
		c.size.Add(-evicted)
	}
	c.cap.Store(int64(capacity))
	return true
}

func (c *Cache[K, V]) shardOf(k K) *shard[K, V] {
	return &c.shards[c.hash(k)%uint64(len(c.shards))]
}

// Get returns the value cached under k, marking the entry most-recently
// used. The second result reports whether the key was present.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	s := c.shardOf(k)
	s.mu.Lock()
	e, ok := s.m[k]
	if ok {
		s.moveToFront(e)
	}
	s.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		var zero V
		return zero, false
	}
	c.hits.Add(1)
	return e.val, true
}

// GetOrAdd stores v under k if the key is absent and returns (v, true);
// when another value is already cached it is refreshed to most-recently
// used and returned with added == false — the sync.Map LoadOrStore shape,
// which lets racing writers agree on a single winner. Insertion evicts the
// shard's least-recently-used entry first when the shard is at its bound,
// so the capacity invariant holds at every instant, including mid-call.
func (c *Cache[K, V]) GetOrAdd(k K, v V) (V, bool) {
	s := c.shardOf(k)
	s.mu.Lock()
	if e, ok := s.m[k]; ok {
		s.moveToFront(e)
		s.mu.Unlock()
		c.hits.Add(1)
		return e.val, false
	}
	var evicted bool
	if len(s.m) >= s.max {
		s.evictTail()
		evicted = true
	}
	e := &entry[K, V]{key: k, val: v}
	s.m[k] = e
	s.pushFront(e)
	s.mu.Unlock()
	if evicted {
		c.evictions.Add(1)
	} else {
		c.size.Add(1) // eviction + insert is net zero
	}
	return v, true
}

// Len returns the live entry count from the atomic size mirror — lock-free,
// so scrapes never contend with query-path shard locks. The count is always
// ≤ the capacity: insertions bump it after the shard settles, and an
// eviction-paired insert does not change it.
func (c *Cache[K, V]) Len() int {
	return int(c.size.Load())
}

// Cap returns the configured capacity (the latest Resize bound, if any).
func (c *Cache[K, V]) Cap() int { return int(c.cap.Load()) }

// Stats snapshots the counters.
func (c *Cache[K, V]) Stats() Stats {
	return Stats{
		Len:       c.Len(),
		Cap:       c.Cap(),
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
	}
}

// pushFront links e at the MRU end. Caller holds s.mu.
func (s *shard[K, V]) pushFront(e *entry[K, V]) {
	e.prev = nil
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

// unlink removes e from the recency list. Caller holds s.mu.
func (s *shard[K, V]) unlink(e *entry[K, V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// moveToFront refreshes e to most-recently used. Caller holds s.mu.
func (s *shard[K, V]) moveToFront(e *entry[K, V]) {
	if s.head == e {
		return
	}
	s.unlink(e)
	s.pushFront(e)
}

// evictTail drops the least-recently-used entry. Caller holds s.mu and has
// checked the shard is non-empty.
func (s *shard[K, V]) evictTail() {
	t := s.tail
	s.unlink(t)
	delete(s.m, t.key)
}
