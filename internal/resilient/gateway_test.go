package resilient

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"nlidb/internal/nlp"
	"nlidb/internal/nlq"
	"nlidb/internal/sqldata"
	"nlidb/internal/sqlexec"
	"nlidb/internal/sqlparse"
)

// fakeInterp is a scriptable interpreter for gateway tests.
type fakeInterp struct {
	name string
	fn   func(q string) ([]nlq.Interpretation, error)
}

func (f *fakeInterp) Name() string { return f.name }
func (f *fakeInterp) Interpret(q string) ([]nlq.Interpretation, error) {
	return f.fn(q)
}

// testDB builds a tiny customers table the fake interpreters query.
func testDB(t *testing.T) *sqldata.Database {
	t.Helper()
	db := sqldata.NewDatabase("test")
	tbl, err := db.CreateTable(&sqldata.Schema{Name: "customer", Columns: []sqldata.Column{
		{Name: "id", Type: sqldata.TypeInt},
		{Name: "name", Type: sqldata.TypeText},
		{Name: "city", Type: sqldata.TypeText},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range [][2]string{{"ann", "Berlin"}, {"bob", "Munich"}, {"carol", "Berlin"}} {
		tbl.MustInsert(sqldata.NewInt(int64(i+1)), sqldata.NewText(row[0]), sqldata.NewText(row[1]))
	}
	return db
}

func answering(name, sql string) *fakeInterp {
	return &fakeInterp{name: name, fn: func(q string) ([]nlq.Interpretation, error) {
		return []nlq.Interpretation{{SQL: sqlparse.MustParse(sql), Score: 0.9}}, nil
	}}
}

func panicking(name string) *fakeInterp {
	return &fakeInterp{name: name, fn: func(q string) ([]nlq.Interpretation, error) {
		panic("interpreter bug: " + name)
	}}
}

func unanswerable(name string) *fakeInterp {
	return &fakeInterp{name: name, fn: func(q string) ([]nlq.Interpretation, error) {
		return nil, nlq.ErrNoInterpretation
	}}
}

func TestGatewayAnswersEndToEnd(t *testing.T) {
	db := testDB(t)
	gw := New(db, []nlq.Interpreter{answering("a", "SELECT name FROM customer WHERE city = 'Berlin'")}, Config{})
	ans, err := gw.Ask(context.Background(), "customers in Berlin")
	if err != nil {
		t.Fatal(err)
	}
	if ans.Engine != "a" || len(ans.Result.Rows) != 2 {
		t.Fatalf("engine %q, %d rows; want a, 2", ans.Engine, len(ans.Result.Rows))
	}
}

func TestGatewayIsolatesPanicsAndFallsBack(t *testing.T) {
	db := testDB(t)
	gw := New(db, []nlq.Interpreter{
		panicking("bad"),
		answering("good", "SELECT name FROM customer"),
	}, Config{})
	ans, err := gw.Ask(context.Background(), "all customers")
	if err != nil {
		t.Fatal(err)
	}
	if ans.Engine != "good" {
		t.Fatalf("answered by %q, want good", ans.Engine)
	}
	if len(ans.Attempts) == 0 {
		t.Fatal("no failure trail recorded")
	}
	var pe *PanicError
	if !errors.As(ans.Attempts[0].Err, &pe) {
		t.Fatalf("first attempt error %v, want *PanicError", ans.Attempts[0].Err)
	}
	if pe.Site != SiteInterpret || pe.Engine != "bad" || len(pe.Stack) == 0 {
		t.Fatalf("panic error missing detail: %+v", pe)
	}
}

func TestGatewayExhaustedChainReturnsTypedError(t *testing.T) {
	db := testDB(t)
	gw := New(db, []nlq.Interpreter{panicking("x"), panicking("y")}, Config{})
	_, err := gw.Ask(context.Background(), "anything")
	if !errors.Is(err, ErrExhausted) {
		t.Fatalf("err = %v, want ErrExhausted", err)
	}
	var ce *ChainError
	if !errors.As(err, &ce) || len(ce.Attempts) == 0 {
		t.Fatalf("want *ChainError with attempts, got %v", err)
	}
}

func TestGatewaySimplifiedRetry(t *testing.T) {
	db := testDB(t)
	// Fails on the full question, answers the stopword-stripped form.
	picky := &fakeInterp{name: "picky", fn: func(q string) ([]nlq.Interpretation, error) {
		if strings.Contains(q, "the") {
			return nil, fmt.Errorf("picky: too wordy")
		}
		return []nlq.Interpretation{{SQL: sqlparse.MustParse("SELECT name FROM customer"), Score: 1}}, nil
	}}
	gw := New(db, []nlq.Interpreter{picky}, Config{})
	ans, err := gw.Ask(context.Background(), "please show me all the customers")
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Simplified {
		t.Fatal("answer should be marked as coming from the simplified retry")
	}
}

func TestGatewayBreakerOpensSkipsAndRecovers(t *testing.T) {
	db := testDB(t)
	clock := time.Unix(1000, 0)
	now := func() time.Time { return clock }
	gw := New(db, []nlq.Interpreter{
		panicking("flaky"),
		answering("steady", "SELECT name FROM customer"),
	}, Config{BreakerThreshold: 2, BreakerCooldown: time.Minute, Now: now, NoRetry: true})

	for i := 0; i < 2; i++ {
		if _, err := gw.Ask(context.Background(), "q"); err != nil {
			t.Fatal(err)
		}
	}
	if got := gw.Breaker("flaky").State(); got != "open" {
		t.Fatalf("flaky breaker %q after %d failures, want open", got, 2)
	}
	ans, err := gw.Ask(context.Background(), "q")
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Attempts) != 1 || !errors.Is(ans.Attempts[0].Err, ErrBreakerOpen) {
		t.Fatalf("open breaker should be skipped, trail %v", ans.Attempts)
	}

	// After the cooldown the half-open probe reaches the engine again; its
	// failure immediately reopens the breaker.
	clock = clock.Add(2 * time.Minute)
	ans, err = gw.Ask(context.Background(), "q")
	if err != nil {
		t.Fatal(err)
	}
	var pe *PanicError
	if len(ans.Attempts) != 1 || !errors.As(ans.Attempts[0].Err, &pe) {
		t.Fatalf("half-open probe should reach the engine, trail %v", ans.Attempts)
	}
	if got := gw.Breaker("flaky").State(); got != "open" {
		t.Fatalf("failed probe should reopen the breaker, got %q", got)
	}
}

func TestGatewayNoInterpretationDoesNotTripBreaker(t *testing.T) {
	db := testDB(t)
	gw := New(db, []nlq.Interpreter{
		unanswerable("limited"),
		answering("steady", "SELECT name FROM customer"),
	}, Config{BreakerThreshold: 2})
	for i := 0; i < 10; i++ {
		if _, err := gw.Ask(context.Background(), "q"); err != nil {
			t.Fatal(err)
		}
	}
	if got := gw.Breaker("limited").State(); got != "closed" {
		t.Fatalf("semantic misses must not trip the breaker; state %q", got)
	}
}

func TestGatewayDeadlineCoversInjectedSlowness(t *testing.T) {
	db := testDB(t)
	hook := func(site Site, engine string) Fault {
		return Fault{Delay: time.Second}
	}
	gw := New(db, []nlq.Interpreter{answering("slow", "SELECT name FROM customer")},
		Config{Timeout: 50 * time.Millisecond, Hook: hook})
	start := time.Now()
	_, err := gw.Ask(context.Background(), "q")
	elapsed := time.Since(start)
	if !errors.Is(err, ErrExhausted) {
		t.Fatalf("err = %v, want ErrExhausted", err)
	}
	if elapsed > 500*time.Millisecond {
		t.Fatalf("Ask took %v, deadline was 50ms", elapsed)
	}
}

// TestGatewayBudgetSurfacesInTrail: a budget overrun surfaces as the
// walk's verdict, a budget refusal that still matches ErrBudgetExceeded;
// the engine behind the greedy one is never tried.
func TestGatewayBudgetSurfacesInTrail(t *testing.T) {
	db := testDB(t)
	// Self-join on an always-true predicate: 9 join rows, budget allows 4.
	greedy := answering("greedy", "SELECT c.name FROM customer AS c JOIN customer AS d ON c.id >= d.id")
	gw := New(db, []nlq.Interpreter{greedy, answering("steady", "SELECT name FROM customer")},
		Config{Budget: sqlexec.Budget{MaxJoinRows: 4, MaxRows: -1, MaxSubqueries: -1}, NoRetry: true})
	ans, err := gw.Ask(context.Background(), "q")
	var refusal *Refusal
	if !errors.As(err, &refusal) || refusal.Outcome != "budget" {
		t.Fatalf("answer %v, err = %v, want a budget *Refusal", ans, err)
	}
	if !errors.Is(err, sqlexec.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
}

func TestGatewayParseSiteFaultInjection(t *testing.T) {
	db := testDB(t)
	hook := func(site Site, engine string) Fault {
		if site == SiteParse {
			return Fault{Err: fmt.Errorf("boom at parse")}
		}
		return Fault{}
	}
	gw := New(db, []nlq.Interpreter{answering("a", "SELECT name FROM customer")},
		Config{Hook: hook, NoRetry: true})
	_, err := gw.Ask(context.Background(), "q")
	var ce *ChainError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *ChainError", err)
	}
	if !strings.Contains(ce.Attempts[0].Err.Error(), "parse: boom at parse") {
		t.Fatalf("attempt err = %v, want parse-stage fault", ce.Attempts[0].Err)
	}
}

func TestGatewayConcurrentAsks(t *testing.T) {
	db := testDB(t)
	n := 0
	var mu sync.Mutex
	hook := func(site Site, engine string) Fault {
		mu.Lock()
		defer mu.Unlock()
		n++
		if n%7 == 0 {
			return Fault{Panic: "chaos"}
		}
		if n%5 == 0 {
			return Fault{Err: fmt.Errorf("chaos error")}
		}
		return Fault{}
	}
	gw := New(db, []nlq.Interpreter{
		panicking("bad"),
		answering("good", "SELECT name FROM customer"),
	}, Config{Hook: hook, BreakerCooldown: time.Millisecond})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				ans, err := gw.Ask(context.Background(), "all customers")
				if err == nil && ans.Result == nil {
					t.Error("answer without result")
				}
			}
		}()
	}
	wg.Wait()
}

func TestSafeInterpreterConvertsPanics(t *testing.T) {
	safe := Safe(panicking("boomer"))
	if safe.Name() != "boomer" {
		t.Fatalf("Safe must preserve the name, got %q", safe.Name())
	}
	_, err := safe.Interpret("q")
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Engine != "boomer" {
		t.Fatalf("err = %v, want *PanicError from boomer", err)
	}
}

func TestSimplifyStripsStopwords(t *testing.T) {
	got := SimplifyTokens(nlp.Tokenize("please show me all the customers in Berlin!"))
	if got != "customers in Berlin" {
		t.Fatalf("SimplifyTokens = %q", got)
	}
	if SimplifyTokens(nlp.Tokenize("show me the")) != "" {
		t.Fatal("all-stopword question should simplify to empty")
	}
}
