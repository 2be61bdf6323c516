package resilient_test

// The seeded chaos suite: replay a benchdata workload through the Gateway
// while the fault injector forces panics, errors, and slowness at every
// pipeline stage, and assert the resilience contract — no panic ever
// escapes Ask, every query returns within deadline plus tolerance, and the
// fallback chain answers at least everything the healthy keyword engine
// could answer on its own.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nlidb/internal/benchdata"
	"nlidb/internal/dataset"
	"nlidb/internal/invindex"
	"nlidb/internal/keywordnl"
	"nlidb/internal/lexicon"
	"nlidb/internal/nlq"
	"nlidb/internal/qcache"
	"nlidb/internal/resilient"
	"nlidb/internal/resilient/faultinject"
	"nlidb/internal/sqldata"
	"nlidb/internal/sqlexec"
	"nlidb/internal/sqlparse"
)

const (
	chaosSeed     = 7
	chaosTimeout  = 2 * time.Second
	chaosSlack    = 1 * time.Second // scheduling tolerance on top of the deadline
	fullPerDomain = 130             // 2 domains ≥ 200 queries in full mode
	shortPer      = 30
)

// chaosWorkload is one domain's replayable slice of the workload.
type chaosWorkload struct {
	domain *benchdata.Domain
	pairs  []dataset.Pair
	gold   []*sqldata.Result
}

func chaosWorkloads(t *testing.T) []chaosWorkload {
	t.Helper()
	per := fullPerDomain
	if testing.Short() {
		per = shortPer
	}
	var out []chaosWorkload
	total := 0
	for i, d := range []*benchdata.Domain{benchdata.Sales(chaosSeed), benchdata.Movies(chaosSeed + 1)} {
		pairs := d.GeneratePairs(per, chaosSeed+int64(i)*13)
		eng := sqlexec.New(d.DB)
		w := chaosWorkload{domain: d, pairs: pairs}
		for _, p := range pairs {
			gold, err := eng.Run(p.SQL)
			if err != nil {
				t.Fatalf("gold %q fails: %v", p.SQL, err)
			}
			w.gold = append(w.gold, gold)
		}
		total += len(pairs)
		out = append(out, w)
	}
	if !testing.Short() && total < 200 {
		t.Fatalf("workload has %d queries, the chaos contract requires ≥200", total)
	}
	return out
}

func matches(pred, gold *sqldata.Result, goldStmt *sqlparse.SelectStmt) bool {
	if len(goldStmt.OrderBy) > 0 {
		return pred.EqualOrdered(gold)
	}
	return pred.EqualUnordered(gold)
}

// askGuarded calls Ask under its own recover so an escaped panic is an
// explicit test failure rather than a crashed test binary, and checks the
// deadline-plus-tolerance contract.
func askGuarded(t *testing.T, gw *resilient.Gateway, question string) (ans *resilient.Answer, err error) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("panic escaped Gateway.Ask(%q): %v", question, r)
		}
	}()
	start := time.Now()
	ans, err = gw.Ask(context.Background(), question)
	if elapsed := time.Since(start); elapsed > chaosTimeout+chaosSlack {
		t.Errorf("Ask(%q) took %v, want ≤ deadline %v + tolerance %v", question, elapsed, chaosTimeout, chaosSlack)
	}
	return ans, err
}

// TestChaosDegradedChainBeatsKeywordBaseline kills the three upper engines
// (athena, parse, pattern) with alternating panics and errors at every
// stage and checks the gateway still answers — correctly — at least
// everything the untouched keyword engine answers on its own.
func TestChaosDegradedChainBeatsKeywordBaseline(t *testing.T) {
	for _, w := range chaosWorkloads(t) {
		lex := lexicon.New()

		// Healthy-keyword baseline, no gateway involved.
		kw := keywordnl.New(w.domain.DB, invindex.Build(w.domain.DB, lex))
		baselineAnswered := make([]bool, len(w.pairs))
		baselineCorrect := 0
		eng := sqlexec.New(w.domain.DB)
		for i, p := range w.pairs {
			ins, err := kw.Interpret(p.Question)
			if err != nil {
				continue
			}
			best, err := nlq.Best(ins)
			if err != nil || best.SQL == nil {
				continue
			}
			baselineAnswered[i] = true
			if res, err := eng.Run(best.SQL); err == nil && matches(res, w.gold[i], p.SQL) {
				baselineCorrect++
			}
		}

		// Deterministically fault every stage of every non-keyword engine.
		calls := 0
		hook := func(site resilient.Site, engine string) resilient.Fault {
			if engine == "keyword" {
				return resilient.Fault{}
			}
			calls++
			if calls%2 == 0 {
				return resilient.Fault{Panic: fmt.Sprintf("chaos: %s/%s", site, engine)}
			}
			return resilient.Fault{Err: fmt.Errorf("chaos: %s/%s", site, engine)}
		}
		gw := resilient.New(w.domain.DB, defaultChain(t, w.domain.DB, lex),
			resilient.Config{Timeout: chaosTimeout, Hook: hook})

		gwCorrect := 0
		for i, p := range w.pairs {
			ans, err := askGuarded(t, gw, p.Question)
			if err != nil {
				if baselineAnswered[i] {
					t.Errorf("%s: gateway failed %q which healthy keyword answers: %v", w.domain.Name, p.Question, err)
				}
				if !errors.Is(err, resilient.ErrExhausted) {
					t.Errorf("%s: untyped gateway error for %q: %v", w.domain.Name, p.Question, err)
				}
				continue
			}
			if matches(ans.Result, w.gold[i], p.SQL) {
				gwCorrect++
			}
		}
		if gwCorrect < baselineCorrect {
			t.Errorf("%s: degraded gateway correct=%d < keyword baseline=%d", w.domain.Name, gwCorrect, baselineCorrect)
		}
		t.Logf("%s: %d queries, gateway correct=%d, keyword baseline=%d",
			w.domain.Name, len(w.pairs), gwCorrect, baselineCorrect)
	}
}

// TestChaosRandomFaultsNeverEscape replays the workload under seeded
// random panics, errors, and slowness across every engine and site, and
// asserts the gateway's hard contract: no escaped panics, bounded latency,
// and typed errors when the whole chain is down.
func TestChaosRandomFaultsNeverEscape(t *testing.T) {
	for _, w := range chaosWorkloads(t) {
		lex := lexicon.New()
		inj := faultinject.New(chaosSeed)
		inj.PanicRate, inj.ErrorRate, inj.SlowRate = 0.12, 0.15, 0.08
		inj.SlowBy = 5 * time.Millisecond
		gw := resilient.New(w.domain.DB, defaultChain(t, w.domain.DB, lex),
			resilient.Config{
				Timeout:         chaosTimeout,
				Hook:            inj.Hook(),
				BreakerCooldown: 100 * time.Millisecond,
			})

		answered := 0
		for i, p := range w.pairs {
			ans, err := askGuarded(t, gw, p.Question)
			if err != nil {
				if !errors.Is(err, resilient.ErrExhausted) {
					t.Errorf("untyped gateway error for %q: %v", p.Question, err)
				}
				continue
			}
			if ans.Result == nil || ans.SQL == nil || ans.Engine == "" {
				t.Fatalf("incomplete answer for %q: %+v", p.Question, ans)
			}
			_ = i
			answered++
		}
		counts := inj.Counts()
		for _, kind := range []string{"panic", "error", "slow"} {
			if counts[kind] == 0 {
				t.Errorf("%s: injector never fired a %q fault (counts %v)", w.domain.Name, kind, counts)
			}
		}
		if answered == 0 {
			t.Errorf("%s: gateway answered nothing under random chaos", w.domain.Name)
		}
		t.Logf("%s: answered %d/%d under faults %v", w.domain.Name, answered, len(w.pairs), counts)
	}
}

// TestChaosConcurrentFaultsUnderRace is the concurrent version of the
// random-fault contract, and the forcing function for the -race sweep:
// N goroutines hammer one shared gateway — with a shared answer cache —
// while the seeded injector fires panics, errors, and slowness at every
// site. The contract holds per query exactly as in the serial test (no
// escaped panics, typed errors only), breaker and cache state stay
// internally consistent, and every question is answered or failed, never
// lost.
func TestChaosConcurrentFaultsUnderRace(t *testing.T) {
	const goroutines = 8
	for _, w := range chaosWorkloads(t) {
		lex := lexicon.New()
		inj := faultinject.New(chaosSeed + 99)
		inj.PanicRate, inj.ErrorRate, inj.SlowRate = 0.10, 0.12, 0.05
		inj.SlowBy = 2 * time.Millisecond
		gw := resilient.New(w.domain.DB, defaultChain(t, w.domain.DB, lex),
			resilient.Config{
				Timeout:         chaosTimeout,
				Hook:            inj.Hook(),
				BreakerCooldown: 50 * time.Millisecond,
				Workers:         goroutines,
				Cache:           qcache.New(qcache.Config{MaxEntries: 256}),
			})

		// Each goroutine walks the whole workload at a different offset so
		// the same questions are in flight simultaneously — the cache and
		// breakers see genuine contention.
		var answered, failed, panicked atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				defer func() {
					if r := recover(); r != nil {
						panicked.Add(1)
						t.Errorf("panic escaped concurrent Ask: %v", r)
					}
				}()
				for i := range w.pairs {
					p := w.pairs[(i+g*len(w.pairs)/goroutines)%len(w.pairs)]
					ans, err := gw.Ask(context.Background(), p.Question)
					if err != nil {
						if !errors.Is(err, resilient.ErrExhausted) {
							t.Errorf("untyped concurrent gateway error for %q: %v", p.Question, err)
						}
						failed.Add(1)
						continue
					}
					if ans.Result == nil || ans.SQL == nil || ans.Engine == "" {
						t.Errorf("incomplete concurrent answer for %q", p.Question)
					}
					answered.Add(1)
				}
			}(g)
		}
		wg.Wait()

		total := int64(goroutines * len(w.pairs))
		if got := answered.Load() + failed.Load(); got != total {
			t.Errorf("%s: %d of %d asks unaccounted for", w.domain.Name, total-got, total)
		}
		if answered.Load() == 0 {
			t.Errorf("%s: nothing answered under concurrent chaos", w.domain.Name)
		}
		for _, engine := range resilient.DefaultChainNames {
			switch state := gw.Breaker(engine).State(); state {
			case "closed", "open", "half-open":
			default:
				t.Errorf("%s: breaker %s in impossible state %q", w.domain.Name, engine, state)
			}
		}
		t.Logf("%s: %d goroutines × %d questions: answered=%d failed=%d faults=%v",
			w.domain.Name, goroutines, len(w.pairs), answered.Load(), failed.Load(), inj.Counts())
	}
}
