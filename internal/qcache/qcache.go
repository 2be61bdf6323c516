// Package qcache is the answer cache in front of the query-serving
// pipeline. The source paper frames NLIDBs as interactive systems — the
// user expects an answer in seconds — and on a production gateway the
// same questions arrive again and again; re-running the full
// interpret→parse→plan→execute pipeline for each repeat wastes the
// latency budget the paper cares about. The cache is a sharded LRU,
// keyed by the normalized question (see Key) combined with a database
// fingerprint, so schema or data mutations invalidate entries
// implicitly — no flush call, stale keys simply stop being looked up.
//
// All methods are safe for concurrent use; each shard has its own lock,
// so parallel workers serving disjoint questions rarely contend.
package qcache

import (
	"container/list"
	"hash/fnv"
	"sync"
	"sync/atomic"

	"nlidb/internal/obs"
)

// Metric family names the cache publishes.
const (
	// MetricHits counts cache hits.
	MetricHits = "nlidb_cache_hits_total"
	// MetricMisses counts cache misses.
	MetricMisses = "nlidb_cache_misses_total"
	// MetricEvictions counts entries evicted by capacity pressure.
	MetricEvictions = "nlidb_cache_evictions_total"
	// MetricEntries gauges the current number of live entries.
	MetricEntries = "nlidb_cache_entries"
)

// Config tunes a Cache. The zero value is serviceable: 4096 entries, a
// private metrics registry.
type Config struct {
	// MaxEntries bounds the total entry count across all shards
	// (default 4096). The cache stripes its lock over MaxEntries/64
	// shards, at least 1 and at most 16, so a shard holds at least 64
	// entries (or all of them) and two keys that hash together do not
	// evict each other while the rest of the cache stands empty. The
	// effective capacity is rounded down to a multiple of the shard count.
	MaxEntries int
	// Metrics holds the hit/miss/eviction counters and the live-entry
	// gauge; nil means a private registry. The series are resolved at New,
	// so scrapes see them before the first lookup.
	Metrics *obs.Registry
}

// Stats is a point-in-time view of the cache's counters, read from the
// registry series /metrics exports. Caches sharing one registry share
// those series, and so their Stats.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Entries   int
}

// entry is one cached answer.
type entry struct {
	key string
	val any
}

// shard is one lock-striped slice of the cache: a map for lookup and an
// LRU list for eviction order (front = most recently used).
type shard struct {
	mu  sync.Mutex
	ent map[string]*list.Element
	lru *list.List
}

// Cache is a sharded LRU answer cache. Build one per database
// (the key fingerprint ties entries to one database's state anyway).
type Cache struct {
	shards   []*shard
	perShard int

	hits      *obs.Counter
	misses    *obs.Counter
	evictions *obs.Counter
	// entries is the live count, owned here and published to entriesG.
	entries  atomic.Int64
	entriesG *obs.Gauge
}

// A cache stripes its lock over at most maxShards shards, each holding at
// least minPerShard entries unless the whole cache holds fewer.
const (
	maxShards   = 16
	minPerShard = 64
)

// New builds a cache. Config zero values are filled with defaults.
func New(cfg Config) *Cache {
	if cfg.MaxEntries <= 0 {
		cfg.MaxEntries = 4096
	}
	n := min(max(cfg.MaxEntries/minPerShard, 1), maxShards)
	m := obs.OrNew(cfg.Metrics)
	c := &Cache{
		shards:    make([]*shard, n),
		perShard:  cfg.MaxEntries / n,
		hits:      m.Counter(MetricHits),
		misses:    m.Counter(MetricMisses),
		evictions: m.Counter(MetricEvictions),
		entriesG:  m.Gauge(MetricEntries),
	}
	for i := range c.shards {
		c.shards[i] = &shard{ent: map[string]*list.Element{}, lru: list.New()}
	}
	c.entriesG.Set(0)
	return c
}

// shardFor picks the shard for a key by FNV-1a hash.
func (c *Cache) shardFor(key string) *shard {
	h := fnv.New32a()
	h.Write([]byte(key))
	return c.shards[h.Sum32()%uint32(len(c.shards))]
}

// Get returns the cached value for key, or (nil, false) on a miss. A hit
// moves the entry to the front of its shard's LRU order.
func (c *Cache) Get(key string) (any, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	el, ok := s.ent[key]
	if !ok {
		s.mu.Unlock()
		c.misses.Inc()
		return nil, false
	}
	s.lru.MoveToFront(el)
	val := el.Value.(*entry).val // copy under the lock: Put may replace e.val in place
	s.mu.Unlock()
	c.hits.Inc()
	return val, true
}

// Put stores val under key, replacing any existing entry and evicting the
// shard's least-recently-used entry when the shard is full.
func (c *Cache) Put(key string, val any) {
	s := c.shardFor(key)
	s.mu.Lock()
	if el, ok := s.ent[key]; ok {
		el.Value.(*entry).val = val
		s.lru.MoveToFront(el)
		s.mu.Unlock()
		return
	}
	evicted := 0
	for s.lru.Len() >= c.perShard {
		back := s.lru.Back()
		s.lru.Remove(back)
		delete(s.ent, back.Value.(*entry).key)
		evicted++
	}
	s.ent[key] = s.lru.PushFront(&entry{key: key, val: val})
	s.mu.Unlock()
	c.entriesG.Set(c.entries.Add(int64(1 - evicted)))
	c.evictions.Add(int64(evicted))
}

// Len returns the live entry count.
func (c *Cache) Len() int { return int(c.entries.Load()) }

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:      c.hits.Value(),
		Misses:    c.misses.Value(),
		Evictions: c.evictions.Value(),
		Entries:   int(c.entries.Load()),
	}
}
