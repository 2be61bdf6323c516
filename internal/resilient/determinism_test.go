package resilient_test

// Cross-engine determinism regression: the same question, served twice —
// serially on independent gateways, and concurrently on a shared one —
// must produce byte-identical result tables. This pins down any
// map-iteration-order leak in interpretation candidate ranking, sqlexec
// grouping/projection, or invindex tie-breaking: one nondeterministic
// ordering anywhere surfaces as a differing Result.String().

import (
	"context"
	"sync"
	"testing"

	"nlidb/internal/benchdata"
	"nlidb/internal/lexicon"
	"nlidb/internal/qcache"
	"nlidb/internal/resilient"
)

// determinismWorkload samples real generated questions from both bench
// domains, keeping the suite fast while covering joins, grouping,
// ordering, and filters.
func determinismWorkload(t *testing.T) map[*benchdata.Domain][]string {
	t.Helper()
	per := 40
	if testing.Short() {
		per = 12
	}
	out := map[*benchdata.Domain][]string{}
	for i, d := range []*benchdata.Domain{benchdata.Sales(11), benchdata.Movies(12)} {
		for _, p := range d.GeneratePairs(per, 31+int64(i)*7) {
			out[d] = append(out[d], p.Question)
		}
	}
	return out
}

func TestDeterministicAcrossGateways(t *testing.T) {
	ctx := context.Background()
	for d, questions := range determinismWorkload(t) {
		// Two fully independent stacks: separate lexicons, engine chains,
		// and executors over the same data.
		gw1 := resilient.New(d.DB, defaultChain(t, d.DB, lexicon.New()), resilient.Config{NoTrace: true})
		gw2 := resilient.New(d.DB, defaultChain(t, d.DB, lexicon.New()), resilient.Config{NoTrace: true})
		for _, q := range questions {
			a1, err1 := gw1.Ask(ctx, q)
			a2, err2 := gw2.Ask(ctx, q)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("%s: %q: one gateway errored (%v), the other did not (%v)", d.Name, q, err1, err2)
			}
			if err1 != nil {
				continue
			}
			if a1.Engine != a2.Engine || a1.SQL.String() != a2.SQL.String() {
				t.Fatalf("%s: %q interpreted differently:\n  %s: %s\n  %s: %s",
					d.Name, q, a1.Engine, a1.SQL, a2.Engine, a2.SQL)
			}
			if a1.Result.String() != a2.Result.String() {
				t.Fatalf("%s: %q result tables differ byte-wise:\n--- gw1\n%s\n--- gw2\n%s",
					d.Name, q, a1.Result, a2.Result)
			}
		}
	}
}

func TestDeterministicUnderConcurrency(t *testing.T) {
	ctx := context.Background()
	const goroutines = 8
	for d, questions := range determinismWorkload(t) {
		gw := resilient.New(d.DB, defaultChain(t, d.DB, lexicon.New()), resilient.Config{NoTrace: true})
		for _, q := range questions {
			ref, refErr := gw.Ask(ctx, q)
			var wg sync.WaitGroup
			got := make([]string, goroutines)
			errs := make([]error, goroutines)
			for i := 0; i < goroutines; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					ans, err := gw.Ask(ctx, q)
					errs[i] = err
					if err == nil {
						got[i] = ans.Engine + "\n" + ans.Result.String()
					}
				}(i)
			}
			wg.Wait()
			for i := 0; i < goroutines; i++ {
				if (errs[i] == nil) != (refErr == nil) {
					t.Fatalf("%s: %q: concurrent Ask error mismatch: %v vs %v", d.Name, q, errs[i], refErr)
				}
				if refErr == nil {
					want := ref.Engine + "\n" + ref.Result.String()
					if got[i] != want {
						t.Fatalf("%s: %q concurrent result diverged:\n--- want\n%s\n--- got\n%s", d.Name, q, want, got[i])
					}
				}
			}
		}
	}
}

func TestDeterministicWithCacheMatchesWithout(t *testing.T) {
	// A cached replay must be byte-identical to an uncached recomputation
	// of the same question: the cache can change latency, never answers.
	ctx := context.Background()
	for d, questions := range determinismWorkload(t) {
		plain := resilient.New(d.DB, defaultChain(t, d.DB, lexicon.New()), resilient.Config{NoTrace: true})
		cached := resilient.New(d.DB, defaultChain(t, d.DB, lexicon.New()),
			resilient.Config{NoTrace: true, Cache: qcache.New(qcache.Config{})})
		for _, q := range questions {
			want, errPlain := plain.Ask(ctx, q)
			cached.Ask(ctx, q) // cold fill
			got, errWarm := cached.Ask(ctx, q)
			if (errPlain == nil) != (errWarm == nil) {
				t.Fatalf("%s: %q: cache changed outcome: %v vs %v", d.Name, q, errPlain, errWarm)
			}
			if errPlain != nil {
				continue
			}
			if !got.Cached {
				t.Fatalf("%s: %q second cached Ask was not a hit", d.Name, q)
			}
			if want.Result.String() != got.Result.String() {
				t.Fatalf("%s: %q cached replay differs from recomputation:\n--- plain\n%s\n--- cached\n%s",
					d.Name, q, want.Result, got.Result)
			}
		}
	}
}
