package resilient_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"nlidb/internal/benchdata"
	"nlidb/internal/lexicon"
	"nlidb/internal/resilient"
	"nlidb/internal/sqlexec"
)

// TestBudgetOverrunIsAVerdict: athena's correlated reading of "customers
// without orders" runs a sub-query per customer and outruns the budget.
// The walk ends there with a budget refusal naming the statement and its
// usage: no simplified retry, no later engine answering with every
// customer, and nothing charged to athena's breaker, so a join question
// after three such refusals is still athena's.
func TestBudgetOverrunIsAVerdict(t *testing.T) {
	d := benchdata.Sales(1)
	gw := resilient.New(d.DB, defaultChain(t, d.DB, lexicon.New()),
		resilient.Config{Budget: sqlexec.Budget{MaxSubqueries: 10}})
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		ans, err := gw.Ask(ctx, "customers without orders")
		var refusal *resilient.Refusal
		if !errors.As(err, &refusal) || refusal.Outcome != "budget" || !errors.Is(err, sqlexec.ErrBudgetExceeded) {
			if ans != nil {
				t.Fatalf("ask %d: answered by %s with %d rows (%s), want a budget refusal", i, ans.Engine, len(ans.Result.Rows), ans.SQL)
			}
			t.Fatalf("ask %d: error %v, want a budget refusal", i, err)
		}
		if msg := err.Error(); !strings.Contains(msg, "athena's statement SELECT") || !strings.Contains(msg, "used rows") {
			t.Fatalf("refusal %q does not name the statement and its usage", msg)
		}
	}
	if st := gw.Breaker("athena").State(); st != "closed" {
		t.Fatalf("athena's breaker is %s after budget refusals, want closed", st)
	}
	city := d.DB.Table("customer").Rows[0][2].Text()
	ans, err := gw.Ask(ctx, "orders of customers in "+city)
	if err != nil || ans.Engine != "athena" {
		t.Fatalf("join question after budget refusals: answer %v, error %v; want athena's", ans, err)
	}
}
