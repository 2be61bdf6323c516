package qcache

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"nlidb/internal/obs"
)

func TestGetPutHitMiss(t *testing.T) {
	c := New(Config{MaxEntries: 8})
	if _, ok := c.Get("k"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("k", "v")
	v, ok := c.Get("k")
	if !ok || v.(string) != "v" {
		t.Fatalf("Get = %v, %v, want v, true", v, ok)
	}
	c.Put("k", "v2")
	if v, _ := c.Get("k"); v.(string) != "v2" {
		t.Fatalf("overwrite lost: got %v", v)
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 2 hits, 1 miss, 1 entry", st)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	// A cache this small is one shard, so the LRU order is global and the
	// test deterministic.
	c := New(Config{MaxEntries: 3})
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("c", 3)
	// Touch "a" so "b" is now least recently used.
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing before eviction")
	}
	c.Put("d", 4)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted as LRU")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s should have survived", k)
		}
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 3 {
		t.Fatalf("stats = %+v, want 1 eviction, 3 entries", st)
	}
}

func TestEvictionUnderPressure(t *testing.T) {
	c := New(Config{MaxEntries: 16})
	for i := 0; i < 1000; i++ {
		c.Put(fmt.Sprintf("k%d", i), i)
	}
	if c.Len() > 16 {
		t.Fatalf("Len = %d, want ≤ 16", c.Len())
	}
	st := c.Stats()
	if st.Evictions < 1000-16 {
		t.Fatalf("evictions = %d, want ≥ %d", st.Evictions, 1000-16)
	}
}

func TestMetricsWiring(t *testing.T) {
	reg := obs.NewRegistry()
	c := New(Config{MaxEntries: 2, Metrics: reg})

	// Families exist before any traffic.
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	for _, fam := range []string{MetricHits, MetricMisses, MetricEvictions, MetricEntries} {
		if !strings.Contains(sb.String(), fam) {
			t.Fatalf("family %s not pre-registered:\n%s", fam, sb.String())
		}
	}

	c.Get("a")    // miss
	c.Put("a", 1) // fill
	c.Get("a")    // hit
	c.Put("b", 2)
	c.Put("c", 3) // evicts a

	if n := reg.Counter(MetricHits).Value(); n != 1 {
		t.Fatalf("hits = %d, want 1", n)
	}
	if n := reg.Counter(MetricMisses).Value(); n != 1 {
		t.Fatalf("misses = %d, want 1", n)
	}
	if n := reg.Counter(MetricEvictions).Value(); n != 1 {
		t.Fatalf("evictions = %d, want 1", n)
	}
}

func TestConcurrentMixedLoad(t *testing.T) {
	c := New(Config{MaxEntries: 64})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k%d", (w*31+i)%100)
				if i%3 == 0 {
					c.Put(k, i)
				} else {
					c.Get(k)
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Len() > 64 {
		t.Fatalf("Len = %d, want ≤ 64", c.Len())
	}
	st := c.Stats()
	if st.Hits+st.Misses == 0 {
		t.Fatal("no lookups recorded")
	}
}

// TestSmallCacheHoldsItsCapacity: a cache sizes its own shards, so one
// of 16 entries holds 16 distinct keys without an eviction — not one key
// per shard, with colliding keys evicting each other.
func TestSmallCacheHoldsItsCapacity(t *testing.T) {
	c := New(Config{MaxEntries: 16})
	for i := 0; i < 16; i++ {
		c.Put(fmt.Sprintf("k%d", i), i)
	}
	if st := c.Stats(); st.Entries != 16 || st.Evictions != 0 {
		t.Fatalf("stats = %+v, want 16 entries and 0 evictions", st)
	}
	for i := 0; i < 16; i++ {
		if _, ok := c.Get(fmt.Sprintf("k%d", i)); !ok {
			t.Fatalf("k%d evicted from a cache under its capacity", i)
		}
	}
}

// TestRegistryAddsNoAllocations: a cache counting into a caller's registry
// allocates on Get exactly what one counting into its private registry
// does, on a hit and on a miss. The counters are handles resolved at New;
// a per-call registry lookup would allocate its label key every time.
func TestRegistryAddsNoAllocations(t *testing.T) {
	allocs := func(reg *obs.Registry) (hit, miss float64) {
		c := New(Config{MaxEntries: 8, Metrics: reg})
		c.Put("k", "v")
		hit = testing.AllocsPerRun(100, func() { c.Get("k") })
		miss = testing.AllocsPerRun(100, func() { c.Get("absent") })
		return hit, miss
	}
	privHit, privMiss := allocs(nil)
	hit, miss := allocs(obs.NewRegistry())
	if hit != privHit || miss != privMiss {
		t.Fatalf("Get allocs with a registry: hit %v, miss %v; private: hit %v, miss %v", hit, miss, privHit, privMiss)
	}
}

// TestStatsAgreeWithRegistry: after hits, misses and capacity evictions,
// every Stats field equals the registry series it reports.
func TestStatsAgreeWithRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	c := New(Config{MaxEntries: 2, Metrics: reg})
	c.Get("a") // miss
	c.Put("a", 1)
	c.Get("a") // hit
	c.Put("b", 2)
	c.Put("c", 3) // evicts a
	c.Get("a")    // miss
	c.Get("b")    // hit
	c.Get("c")    // hit
	c.Put("d", 4) // evicts b
	c.Put("e", 5) // evicts c

	st := c.Stats()
	want := Stats{Hits: 3, Misses: 2, Evictions: 3, Entries: 2}
	if st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
	got := Stats{
		Hits:      reg.Counter(MetricHits).Value(),
		Misses:    reg.Counter(MetricMisses).Value(),
		Evictions: reg.Counter(MetricEvictions).Value(),
		Entries:   int(reg.Gauge(MetricEntries).Value()),
	}
	if got != st {
		t.Fatalf("registry = %+v, Stats = %+v", got, st)
	}
}
