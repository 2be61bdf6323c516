package resilient

// Gateway-level answer-cache behavior: hits skip the pipeline, carry the
// cached=true trace attribute, and invalidate on data mutation (via the
// database fingerprint) and LRU eviction.

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"

	"nlidb/internal/nlq"
	"nlidb/internal/obs"
	"nlidb/internal/qcache"
	"nlidb/internal/sqldata"
	"nlidb/internal/sqlparse"
)

// counting wraps answering with an Interpret call counter so tests can
// prove a cache hit never re-entered the pipeline.
func counting(name, sql string) (*fakeInterp, *atomic.Int64) {
	var calls atomic.Int64
	return &fakeInterp{name: name, fn: func(q string) ([]nlq.Interpretation, error) {
		calls.Add(1)
		return []nlq.Interpretation{{SQL: sqlparse.MustParse(sql), Score: 0.9}}, nil
	}}, &calls
}

func TestCacheHitSkipsPipeline(t *testing.T) {
	db := testDB(t)
	eng, calls := counting("a", "SELECT name FROM customer WHERE city = 'Berlin'")
	gw := New(db, []nlq.Interpreter{eng}, Config{Cache: qcache.New(qcache.Config{})})
	ctx := context.Background()

	cold, err := gw.Ask(ctx, "customers in Berlin")
	if err != nil {
		t.Fatal(err)
	}
	if cold.Cached {
		t.Fatal("first Ask must not be cached")
	}
	if cold.Trace.Find("execute") == nil {
		t.Fatal("cold Ask should carry an execute span")
	}

	warm, err := gw.Ask(ctx, "customers in Berlin")
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Cached {
		t.Fatal("second Ask must be served from cache")
	}
	if calls.Load() != 1 {
		t.Fatalf("interpreter ran %d times, want 1", calls.Load())
	}
	if warm.Result != cold.Result {
		t.Fatal("cached hit should share the result set")
	}
	if warm.Engine != cold.Engine || warm.Score != cold.Score {
		t.Fatalf("cached answer metadata diverged: %+v vs %+v", warm, cold)
	}
	if warm.Trace.Find("execute") != nil {
		t.Fatalf("warm hit must not execute; trace:\n%s", warm.Trace)
	}
	if !strings.Contains(warm.Trace.String(), "cached=true") {
		t.Fatalf("warm trace lacks cached=true attribute:\n%s", warm.Trace)
	}
}

func TestCacheHitOnNormalizedVariant(t *testing.T) {
	db := testDB(t)
	eng, calls := counting("a", "SELECT name FROM customer")
	gw := New(db, []nlq.Interpreter{eng}, Config{Cache: qcache.New(qcache.Config{})})
	ctx := context.Background()

	if _, err := gw.Ask(ctx, "show top five customers"); err != nil {
		t.Fatal(err)
	}
	ans, err := gw.Ask(ctx, "Show  TOP 5 Customers")
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Cached {
		t.Fatal("normalized variant should hit the cache")
	}
	if calls.Load() != 1 {
		t.Fatalf("interpreter ran %d times, want 1", calls.Load())
	}
}

func TestCacheInvalidatesOnInsert(t *testing.T) {
	db := testDB(t)
	gw := New(db, []nlq.Interpreter{answering("a", "SELECT name FROM customer")},
		Config{Cache: qcache.New(qcache.Config{})})
	ctx := context.Background()

	cold, err := gw.Ask(ctx, "all customers")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(cold.Result.Rows); n != 3 {
		t.Fatalf("seed table has %d rows, want 3", n)
	}
	if warm, _ := gw.Ask(ctx, "all customers"); !warm.Cached {
		t.Fatal("repeat before mutation should hit")
	}

	// Mutation bumps the table version, changing the fingerprint: the old
	// entry is orphaned, not served.
	db.Table("customer").MustInsert(sqldata.NewInt(4), sqldata.NewText("dave"), sqldata.NewText("Hamburg"))

	fresh, err := gw.Ask(ctx, "all customers")
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Cached {
		t.Fatal("post-insert Ask must not serve the stale entry")
	}
	if n := len(fresh.Result.Rows); n != 4 {
		t.Fatalf("post-insert result has %d rows, want 4 (stale cache?)", n)
	}
	if warm, _ := gw.Ask(ctx, "all customers"); !warm.Cached || len(warm.Result.Rows) != 4 {
		t.Fatal("new fingerprint should cache the fresh 4-row answer")
	}
}

func TestCacheEvictionUnderPressure(t *testing.T) {
	db := testDB(t)
	gw := New(db, []nlq.Interpreter{answering("a", "SELECT name FROM customer")},
		Config{Cache: qcache.New(qcache.Config{MaxEntries: 2})})
	ctx := context.Background()

	for _, q := range []string{"customers one", "customers two", "customers three"} {
		if _, err := gw.Ask(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	// Capacity 2 with three distinct questions: the first is gone.
	if ans, _ := gw.Ask(ctx, "customers one"); ans.Cached {
		t.Fatal("LRU entry should have been evicted under pressure")
	}
	if ans, _ := gw.Ask(ctx, "customers three"); !ans.Cached {
		t.Fatal("most recent entry should have survived eviction")
	}
}

func TestCacheDoesNotStoreFailures(t *testing.T) {
	db := testDB(t)
	cache := qcache.New(qcache.Config{})
	gw := New(db, []nlq.Interpreter{unanswerable("a")}, Config{Cache: cache})
	ctx := context.Background()

	for i := 0; i < 2; i++ {
		if _, err := gw.Ask(ctx, "unanswerable question"); err == nil {
			t.Fatal("expected chain exhaustion")
		}
	}
	if cache.Len() != 0 {
		t.Fatalf("failures must not be cached; cache has %d entries", cache.Len())
	}
}

func TestCacheMetricsAndCounters(t *testing.T) {
	reg := obs.NewRegistry()
	db := testDB(t)
	gw := New(db, []nlq.Interpreter{answering("a", "SELECT name FROM customer")},
		Config{Cache: qcache.New(qcache.Config{Metrics: reg}), Metrics: reg})
	ctx := context.Background()

	gw.Ask(ctx, "all customers")
	gw.Ask(ctx, "all customers")
	if n := reg.Counter(qcache.MetricHits).Value(); n != 1 {
		t.Fatalf("cache hits = %d, want 1", n)
	}
	if n := reg.Counter(qcache.MetricMisses).Value(); n != 1 {
		t.Fatalf("cache misses = %d, want 1", n)
	}
	// Both the cold and the cached Ask count as served queries.
	if n := reg.Counter(MetricQueries, "engine", "a", "outcome", "ok").Value(); n != 2 {
		t.Fatalf("query counter = %d, want 2", n)
	}
}

// TestAskSQLPlanCacheKeepsHeaders: through AskSQL with a plan cache, a
// statement that differs from a cached one only in the case of an alias
// or a column name still gets its own output header.
func TestAskSQLPlanCacheKeepsHeaders(t *testing.T) {
	gw := New(testDB(t), nil, Config{PlanCache: qcache.New(qcache.Config{MaxEntries: 16})})
	for round := 0; round < 2; round++ {
		for _, c := range []struct{ sql, header string }{
			{"SELECT COUNT(*) AS Total FROM customer", "Total"},
			{"SELECT COUNT(*) AS total FROM customer", "total"},
			{"SELECT Name FROM customer", "Name"},
			{"SELECT name FROM customer", "name"},
		} {
			ans, err := gw.AskSQL(context.Background(), c.sql)
			if err != nil {
				t.Fatal(err)
			}
			if got := ans.Result.Columns; len(got) != 1 || got[0] != c.header {
				t.Errorf("round %d: %s answered with header %v, want [%s]", round, c.sql, got, c.header)
			}
		}
	}
}
