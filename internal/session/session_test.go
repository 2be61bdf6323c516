package session

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"nlidb/internal/athena"
	"nlidb/internal/benchdata"
	"nlidb/internal/dialogue"
	"nlidb/internal/invindex"
	"nlidb/internal/lexicon"
	"nlidb/internal/nlq"
	"nlidb/internal/obs"
	"nlidb/internal/qcache"
	"nlidb/internal/resilient"
)

// fakeClock is a hand-advanced clock for TTL tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// testStore builds a store over the sales domain with a real agent
// responder serving through a gateway with an athena chain and an answer
// cache. Overrides tweak the default config before construction.
func testStore(t testing.TB, overrides func(*Config)) *Store {
	t.Helper()
	d := benchdata.Sales(60)
	lex := lexicon.New()
	ix := invindex.Build(d.DB, lex)
	gw := resilient.New(d.DB, []nlq.Interpreter{athena.New(d.DB, ix, lex)}, resilient.Config{
		NoTrace: true,
		Cache:   qcache.New(qcache.Config{MaxEntries: 256}),
	})
	cfg := Config{
		Responder: dialogue.NewAgent(ix, gw),
		DB:        d.DB,
		NoTrace:   true,
	}
	if overrides != nil {
		overrides(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStoreRequiresResponderAndDB(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted an empty config")
	}
	d := benchdata.Sales(60)
	if _, err := New(Config{DB: d.DB}); err == nil {
		t.Fatal("New accepted a config without a responder")
	}
}

func TestSessionLifecycle(t *testing.T) {
	s := testStore(t, nil)
	id := s.Create()
	if len(id) != 32 {
		t.Fatalf("session id %q, want 32 hex chars", id)
	}

	r1, err := s.Ask(context.Background(), id, "show customers with city Berlin")
	if err != nil {
		t.Fatal(err)
	}
	if r1.N != 1 || r1.ContextFP != 0 {
		t.Fatalf("first turn: N=%d fp=%x, want N=1 fp=0", r1.N, r1.ContextFP)
	}

	r2, err := s.Ask(context.Background(), id, "how many are there")
	if err != nil {
		t.Fatal(err)
	}
	if r2.N != 2 || r2.ContextFP == 0 {
		t.Fatalf("follow-up: N=%d fp=%x, want N=2 and nonzero fp", r2.N, r2.ContextFP)
	}
	if got, want := r2.Resp.Result.Rows[0][0].Int(), int64(len(r1.Resp.Result.Rows)); got != want {
		t.Fatalf("follow-up count %d != first turn rows %d", got, want)
	}

	if err := s.End(id); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ask(context.Background(), id, "how many are there"); !errors.Is(err, ErrExpired) {
		t.Fatalf("ask after End: err = %v, want ErrExpired", err)
	}
	if err := s.End(id); !errors.Is(err, ErrExpired) {
		t.Fatalf("double End: err = %v, want ErrExpired", err)
	}
	if _, err := s.Ask(context.Background(), "deadbeefdeadbeefdeadbeefdeadbeef", "x"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown id: err = %v, want ErrNotFound", err)
	}

	st := s.Stats()
	if st.Created != 1 || st.Ended != 1 || st.Turns != 2 || st.Live != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestSessionTTLSlidesAndExpires(t *testing.T) {
	clock := newFakeClock()
	s := testStore(t, func(c *Config) {
		c.TTL = time.Minute
		c.Now = clock.Now
	})
	id := s.Create()

	// Each turn slides the expiry: three turns 40s apart span well past
	// the one-minute TTL without expiring.
	for i := 0; i < 3; i++ {
		clock.Advance(40 * time.Second)
		if _, err := s.Ask(context.Background(), id, "show customers with city Berlin"); err != nil {
			t.Fatalf("turn %d after slide: %v", i, err)
		}
	}

	clock.Advance(61 * time.Second)
	if _, err := s.Ask(context.Background(), id, "how many are there"); !errors.Is(err, ErrExpired) {
		t.Fatalf("expired session: err = %v, want ErrExpired", err)
	}
	if st := s.Stats(); st.EvictedTTL != 1 || st.Live != 0 {
		t.Fatalf("stats %+v, want one TTL eviction", st)
	}
}

func TestSessionCapEvictsLRU(t *testing.T) {
	var evictedIDs []string
	var evictedReasons []string
	var mu sync.Mutex
	s := testStore(t, func(c *Config) {
		c.MaxSessions = 4
		c.Shards = 1
		c.OnEvict = func(id, reason string) {
			mu.Lock()
			evictedIDs = append(evictedIDs, id)
			evictedReasons = append(evictedReasons, reason)
			mu.Unlock()
		}
	})
	first := s.Create()
	var rest []string
	for i := 0; i < 4; i++ {
		rest = append(rest, s.Create())
	}
	if got := s.Len(); got != 4 {
		t.Fatalf("live %d, want cap 4", got)
	}
	// The first (least recently used) session is the one that went.
	if _, err := s.Ask(context.Background(), first, "x"); !errors.Is(err, ErrExpired) {
		t.Fatalf("evicted session: err = %v, want ErrExpired (410)", err)
	}
	for _, id := range rest {
		if _, err := s.lookup(id); err != nil {
			t.Fatalf("survivor %s gone: %v", id, err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(evictedIDs) != 1 || evictedIDs[0] != first || evictedReasons[0] != "memory" {
		t.Fatalf("OnEvict ids=%v reasons=%v, want [%s] [memory]", evictedIDs, evictedReasons, first)
	}
}

func TestSessionMemoryBudgetEvictsUnderPressure(t *testing.T) {
	s := testStore(t, func(c *Config) {
		c.Shards = 1
		// Room for roughly two idle sessions plus change: the third create
		// must push the oldest out.
		c.MemoryBudget = 2*sessionBaseCost + sessionBaseCost/2
	})
	a := s.Create()
	s.Create()
	s.Create()
	if got := s.Len(); got > 2 {
		t.Fatalf("live %d over a two-session budget", got)
	}
	if _, err := s.Ask(context.Background(), a, "x"); !errors.Is(err, ErrExpired) {
		t.Fatalf("budget-evicted session: err = %v, want ErrExpired", err)
	}
	if st := s.Stats(); st.EvictedMem == 0 {
		t.Fatalf("stats %+v, want memory evictions", st)
	}
	if st := s.Stats(); st.Memory > s.cfg.MemoryBudget {
		t.Fatalf("accounted memory %d over budget %d", st.Memory, s.cfg.MemoryBudget)
	}
}

// TestTurnCacheIsContextKeyed is the byte-level correctness check: the
// same utterance under different dialogue contexts must never be
// conflated, while a replayed conversation is served from cache with a
// byte-identical result.
func TestTurnCacheIsContextKeyed(t *testing.T) {
	s := testStore(t, nil)
	ask := func(id, u string) *Turn {
		t.Helper()
		turn, err := s.Ask(context.Background(), id, u)
		if err != nil {
			t.Fatalf("ask(%s, %q): %v", id, u, err)
		}
		return turn
	}
	render := func(turn *Turn) string {
		var sb strings.Builder
		res := turn.Resp.Result
		fmt.Fprintf(&sb, "%v\n", res.Columns)
		for _, row := range res.Rows {
			for _, v := range row {
				sb.WriteString(v.String())
				sb.WriteByte('\x00')
			}
			sb.WriteByte('\n')
		}
		return sb.String()
	}

	berlin := s.Create()
	munich := s.Create()
	bRows := ask(berlin, "show customers with city Berlin")
	mRows := ask(munich, "show customers with city Munich")
	bCount := ask(berlin, "how many are there")
	mCount := ask(munich, "how many are there")

	// Identical utterance, different contexts: each count matches its own
	// conversation, byte for byte.
	if got, want := bCount.Resp.Result.Rows[0][0].Int(), int64(len(bRows.Resp.Result.Rows)); got != want {
		t.Fatalf("Berlin count %d != %d", got, want)
	}
	if got, want := mCount.Resp.Result.Rows[0][0].Int(), int64(len(mRows.Resp.Result.Rows)); got != want {
		t.Fatalf("Munich count %d != %d", got, want)
	}
	if len(bRows.Resp.Result.Rows) == len(mRows.Resp.Result.Rows) {
		t.Fatal("test domain degenerate: Berlin and Munich have equal counts; pick different filters")
	}
	if render(bCount) == render(mCount) {
		t.Fatal("context-keyed cache conflated the same utterance under different contexts")
	}

	// A third conversation replaying Berlin's turns is answered from the
	// caches — the opening turn from the gateway's answer cache, the
	// follow-up from the turn cache — same bytes, Cached set, context
	// advanced identically.
	replay := s.Create()
	r1 := ask(replay, "show customers with city Berlin")
	if !r1.Cached {
		t.Fatal("replayed opening turn not served from cache")
	}
	if render(r1) != render(bRows) {
		t.Fatal("cached opening turn differs byte-for-byte from the live one")
	}
	r2 := ask(replay, "how many are there")
	if !r2.Cached {
		t.Fatal("replayed follow-up not served from cache")
	}
	if r2.ContextFP != bCount.ContextFP {
		t.Fatalf("replayed context fp %016x != original %016x", r2.ContextFP, bCount.ContextFP)
	}
	if render(r2) != render(bCount) {
		t.Fatal("cached follow-up differs byte-for-byte from the live one")
	}
	if st := s.Stats(); st.ContextHits != 1 {
		t.Fatalf("stats %+v, want the follow-up's one context hit", st)
	}
}

func TestTurnCacheDisabled(t *testing.T) {
	s := testStore(t, func(c *Config) { c.CacheSize = -1 })
	var turn *Turn
	for i := 0; i < 2; i++ {
		id := s.Create()
		for _, u := range []string{"show customers with city Berlin", "how many are there"} {
			var err error
			if turn, err = s.Ask(context.Background(), id, u); err != nil {
				t.Fatal(err)
			}
		}
	}
	if turn.Cached {
		t.Fatal("cache disabled but follow-up served from cache")
	}
}

// TestContextFreeTurnIsARequest: a context-free turn goes through the
// backend's Ask like any stateless question. Repeated in a second session
// it is an answer-cache hit carrying its family, and it moves neither
// context counter: those count context-bearing turns only.
func TestContextFreeTurnIsARequest(t *testing.T) {
	reg := obs.NewRegistry()
	s := testStore(t, func(c *Config) { c.Metrics = reg })
	const q = "show customers with city Berlin"
	first, err := s.Ask(context.Background(), s.Create(), q)
	if err != nil {
		t.Fatal(err)
	}
	again, err := s.Ask(context.Background(), s.Create(), q)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached || !again.Cached || again.Resp.Answer == nil || !again.Resp.Answer.Cached {
		t.Fatalf("cached: first %v, repeat %v; want the repeat served by the answer cache", first.Cached, again.Cached)
	}
	if got := again.Resp.Answer.Engine; got != "athena" {
		t.Fatalf("repeat answered by engine %q, want athena", got)
	}
	if again.Resp.SQL.String() != first.Resp.SQL.String() {
		t.Fatalf("repeat SQL %s, want %s", again.Resp.SQL, first.Resp.SQL)
	}
	hits, misses := reg.Counter(MetricContextHits).Value(), reg.Counter(MetricContextMisses).Value()
	if hits != 0 || misses != 0 {
		t.Fatalf("context hits %d, misses %d after two context-free turns; want 0 and 0", hits, misses)
	}
}

func TestSessionMetricsPublished(t *testing.T) {
	reg := obs.NewRegistry()
	s := testStore(t, func(c *Config) { c.Metrics = reg })
	id := s.Create()
	if _, err := s.Ask(context.Background(), id, "show customers with city Berlin"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ask(context.Background(), id, "how many are there"); err != nil {
		t.Fatal(err)
	}
	if err := s.End(id); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	text := sb.String()
	for _, fam := range []string{
		MetricLive, MetricCreated, MetricEnded, MetricTurns,
		MetricFollowups, MetricContextMisses, MetricTurnSeconds, MetricMemory,
	} {
		if !strings.Contains(text, fam) {
			t.Errorf("metric family %s missing from scrape", fam)
		}
	}
	if reg.Counter(MetricCreated).Value() != 1 || reg.Counter(MetricEnded).Value() != 1 {
		t.Fatal("created/ended counters wrong")
	}
	if reg.Counter(MetricFollowups, "outcome", "resolved").Value() != 1 {
		t.Fatal("follow-up resolution not counted")
	}
	if reg.Gauge(MetricLive).Value() != 0 {
		t.Fatal("live gauge not zero after End")
	}
}

// TestTurnRecordedOnce serves one turn through a gateway that shares the
// store's slow log and trace store: the gateway's request runs inside the
// turn's trace, so the turn alone writes the slow log (tagged with the
// session) and offers the trace, which holds the chain's attempt spans
// under the session root.
func TestTurnRecordedOnce(t *testing.T) {
	slow := obs.NewSlowLog(0, 16)
	traces := obs.NewTraceStore(obs.TraceStoreConfig{SampleRate: 1})
	d := benchdata.Sales(60)
	lex := lexicon.New()
	ix := invindex.Build(d.DB, lex)
	gw := resilient.New(d.DB, []nlq.Interpreter{athena.New(d.DB, ix, lex)}, resilient.Config{SlowLog: slow, Traces: traces})
	s, err := New(Config{
		Responder: dialogue.NewAgent(ix, gw),
		DB:        d.DB,
		SlowLog:   slow,
		Traces:    traces,
	})
	if err != nil {
		t.Fatal(err)
	}
	id := s.Create()
	turn, err := s.Ask(context.Background(), id, "show customers with city Berlin")
	if err != nil {
		t.Fatal(err)
	}
	entries := slow.Entries()
	if len(entries) != 1 || entries[0].Session != id || entries[0].Engine != "athena" {
		var got []string
		for _, e := range entries {
			got = append(got, fmt.Sprintf("%s engine=%s session=%q", e.Question, e.Engine, e.Session))
		}
		t.Fatalf("slow log entries %q, want one tagged with session %s", got, id)
	}
	if got := traces.Stats().Offered; got != 1 {
		t.Fatalf("traces offered %d, want 1", got)
	}
	st, ok := traces.Get(turn.TraceID)
	if !ok {
		t.Fatalf("turn trace %s not retained", turn.TraceID)
	}
	if st.Trace.Root.Attr("session") != id || st.Trace.Find("attempt athena") == nil {
		t.Fatalf("turn trace lacks the session root or the chain's attempt span:\n%s", st.Trace)
	}
}

// TestConcurrentSessions interleaves thousands of turns across many live
// conversations under the race detector: creates, turns, follow-ups,
// expiries, and explicit ends all proceed in parallel over one shared
// responder, and no conversation may observe another's context.
func TestConcurrentSessions(t *testing.T) {
	s := testStore(t, nil)
	cities := []string{"Berlin", "Munich", "Hamburg"}
	workers := 16
	convPerWorker := 8
	if testing.Short() {
		workers = 8
		convPerWorker = 4
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for c := 0; c < convPerWorker; c++ {
				city := cities[(w+c)%len(cities)]
				id := s.Create()
				r1, err := s.Ask(context.Background(), id, "show customers with city "+city)
				if err != nil {
					t.Error(err)
					return
				}
				r2, err := s.Ask(context.Background(), id, "how many are there")
				if err != nil {
					t.Error(err)
					return
				}
				if got, want := r2.Resp.Result.Rows[0][0].Int(), int64(len(r1.Resp.Result.Rows)); got != want {
					t.Errorf("worker %d conv %d (%s): count %d != own rows %d — cross-session context bleed", w, c, city, got, want)
					return
				}
				if c%2 == 0 {
					if err := s.End(id); err != nil {
						t.Errorf("end: %v", err)
					}
				}
			}
		}(w)
	}
	// Churn alongside the conversations: create-and-abandon sessions so
	// eviction paths run concurrently with live turns.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			s.Create()
		}
	}()
	wg.Wait()

	st := s.Stats()
	if st.Turns != int64(workers*convPerWorker*2) {
		t.Fatalf("turns %d, want %d", st.Turns, workers*convPerWorker*2)
	}
}

// TestConcurrentTurnsOneSessionSerialize pins the per-session turn lock:
// parallel asks on one session must interleave as whole turns, so the
// turn numbers that come back are a permutation of 1..N.
func TestConcurrentTurnsOneSessionSerialize(t *testing.T) {
	s := testStore(t, nil)
	id := s.Create()
	const n = 8
	got := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			turn, err := s.Ask(context.Background(), id, "show customers with city Berlin")
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = turn.N
		}(i)
	}
	wg.Wait()
	seen := map[int]bool{}
	for _, n2 := range got {
		if n2 < 1 || n2 > n || seen[n2] {
			t.Fatalf("turn numbers %v are not a permutation of 1..%d", got, n)
		}
		seen[n2] = true
	}
}

// TestStatsAgreeWithRegistry: after creates, an explicit end, a cap
// eviction, TTL evictions, turns of several intents and a context-cache
// hit, every Stats field equals the registry series it reports.
func TestStatsAgreeWithRegistry(t *testing.T) {
	clock := newFakeClock()
	reg := obs.NewRegistry()
	s := testStore(t, func(c *Config) {
		c.Metrics = reg
		c.Now = clock.Now
		c.TTL = time.Minute
		c.MaxSessions = 2
		c.Shards = 1
	})
	ctx := context.Background()
	ask := func(id, utterance string) {
		t.Helper()
		if _, err := s.Ask(ctx, id, utterance); err != nil {
			t.Fatalf("%q: %v", utterance, err)
		}
	}
	a := s.Create()
	ask(a, "show customers with city Berlin") // query
	ask(a, "how many are there")              // aggregate follow-up
	b := s.Create()
	ask(b, "show customers with city Berlin") // query, from the answer cache
	ask(b, "how many are there")              // follow-up, from the turn cache
	if err := s.End(b); err != nil {
		t.Fatal(err)
	}
	s.Create()
	s.Create() // over the cap of 2: evicts a
	clock.Advance(2 * time.Minute)
	s.Create() // both others expired

	st := s.Stats()
	want := Stats{Live: 1, Created: 5, Ended: 1, EvictedTTL: 2, EvictedMem: 1, Turns: 4, ContextHits: 1, Memory: sessionBaseCost}
	if st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
	var turns int64
	for i := dialogue.IntentQuery; i <= dialogue.IntentReset; i++ {
		turns += reg.Counter(MetricTurns, "intent", i.String()).Value()
	}
	got := Stats{
		Live:        int(reg.Gauge(MetricLive).Value()),
		Created:     reg.Counter(MetricCreated).Value(),
		Ended:       reg.Counter(MetricEnded).Value(),
		EvictedTTL:  reg.Counter(MetricEvictions, "reason", "ttl").Value(),
		EvictedMem:  reg.Counter(MetricEvictions, "reason", "memory").Value(),
		Turns:       turns,
		ContextHits: reg.Counter(MetricContextHits).Value(),
		Memory:      reg.Gauge(MetricMemory).Value(),
	}
	if got != st {
		t.Fatalf("registry = %+v, Stats = %+v", got, st)
	}
}

// panicky is a Responder that panics on "boom" and defers to inner
// otherwise.
type panicky struct{ inner Responder }

func (p panicky) RespondWith(ctx context.Context, conv *dialogue.Context, utterance string) (*dialogue.Response, error) {
	if utterance == "boom" {
		panic("responder exploded")
	}
	return p.inner.RespondWith(ctx, conv, utterance)
}

// TestPanickingTurnIsTypedError: a panic in the Responder comes back from
// Ask as a *resilient.PanicError, the turn is recorded with outcome
// "error", and the session answers its next utterance.
func TestPanickingTurnIsTypedError(t *testing.T) {
	slow := obs.NewSlowLog(0, 8)
	s := testStore(t, func(c *Config) {
		c.Responder = panicky{c.Responder}
		c.SlowLog = slow
	})
	id := s.Create()
	turn, err := s.Ask(context.Background(), id, "boom")
	var pe *resilient.PanicError
	if !errors.As(err, &pe) || pe.Value != "responder exploded" {
		t.Fatalf("Ask on a panicking responder: %v, want a *resilient.PanicError", err)
	}
	if turn == nil || turn.Resp == nil {
		t.Fatal("a failed turn still returns its Turn and Response")
	}
	if es := slow.Entries(); len(es) != 1 || es[0].Outcome != "error" || es[0].Session != id {
		t.Fatalf("slow log %+v, want one error entry for the session", es)
	}
	if st := s.Stats(); st.Turns != 1 {
		t.Fatalf("turns = %d, want the panicking turn counted", st.Turns)
	}
	if _, err := s.Ask(context.Background(), id, "show customers with city Berlin"); err != nil {
		t.Fatalf("session unusable after a panicking turn: %v", err)
	}
}
