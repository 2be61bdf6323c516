package dialogue

import (
	"context"
	"testing"

	"nlidb/internal/athena"
	"nlidb/internal/benchdata"
	"nlidb/internal/invindex"
	"nlidb/internal/lexicon"
	"nlidb/internal/nlq"
	"nlidb/internal/resilient"
	"nlidb/internal/sqlparse"
)

func TestClassifyIntent(t *testing.T) {
	cases := []struct {
		u      string
		hasCtx bool
		want   Intent
	}{
		{"show customers in Berlin", false, IntentQuery},
		{"show customers in Berlin", true, IntentQuery},
		{"only those with credit over 5000", true, IntentRefine},
		{"just the corporate ones", true, IntentRefine},
		{"how many are there", true, IntentAggregate},
		{"count them", true, IntentAggregate},
		{"how many are there", false, IntentQuery},
		{"show their credit instead", true, IntentShift},
		{"hello", false, IntentGreeting},
		{"reset", true, IntentReset},
	}
	for _, c := range cases {
		if got := ClassifyIntent(c.u, c.hasCtx); got != c.want {
			t.Errorf("ClassifyIntent(%q, ctx=%v) = %v, want %v", c.u, c.hasCtx, got, c.want)
		}
	}
}

// testBackend builds the serving stack the managers run over in tests: a
// gateway whose chain is athena alone, without the simplified retry — the
// bare interpreter's reading, through the one request path.
func testBackend(d *benchdata.Domain, ix *invindex.Index, lex *lexicon.Lexicon) *resilient.Gateway {
	return resilient.New(d.DB, []nlq.Interpreter{athena.New(d.DB, ix, lex)}, resilient.Config{NoTrace: true, NoRetry: true})
}

func managers(t *testing.T) (*FiniteState, *Frame, *Agent, *benchdata.Domain) {
	t.Helper()
	d := benchdata.Sales(60)
	lex := lexicon.New()
	ix := invindex.Build(d.DB, lex)
	back := testBackend(d, ix, lex)
	return NewFiniteState(back), NewFrame(ix, back), NewAgent(ix, back), d
}

func TestFiniteStateGrammarGate(t *testing.T) {
	fsm, _, _, _ := managers(t)
	if _, err := fsm.Respond(context.Background(), "show customers with city Berlin"); err != nil {
		t.Fatalf("in-grammar command failed: %v", err)
	}
	if _, err := fsm.Respond(context.Background(), "only those with credit over 5000"); err == nil {
		t.Fatal("finite-state accepted a follow-up")
	}
}

func TestFrameHandlesRefineAndAggregate(t *testing.T) {
	_, frame, _, d := managers(t)
	r1, err := frame.Respond(context.Background(), "show customers with city Berlin")
	if err != nil {
		t.Fatal(err)
	}
	n1 := len(r1.Result.Rows)

	r2, err := frame.Respond(context.Background(), "only those with credit over 20000")
	if err != nil {
		t.Fatalf("frame refine: %v", err)
	}
	if len(r2.Result.Rows) > n1 {
		t.Fatal("refinement grew the result")
	}

	r3, err := frame.Respond(context.Background(), "how many are there")
	if err != nil {
		t.Fatalf("frame aggregate: %v", err)
	}
	if r3.Result.Rows[0][0].Int() != int64(len(r2.Result.Rows)) {
		t.Fatalf("count %v != rows %d", r3.Result.Rows[0][0], len(r2.Result.Rows))
	}
	_ = d
}

func TestFrameRejectsFreeShift(t *testing.T) {
	_, frame, _, _ := managers(t)
	if _, err := frame.Respond(context.Background(), "show customers with city Berlin"); err != nil {
		t.Fatal(err)
	}
	// Canonical pattern works…
	if _, err := frame.Respond(context.Background(), "show their credit instead"); err != nil {
		t.Fatalf("canonical shift failed: %v", err)
	}
	// …free phrasing does not.
	if _, err := frame.Respond(context.Background(), "what about their segment instead"); err == nil {
		t.Fatal("frame accepted free-form shift")
	}
}

func TestAgentFullConversation(t *testing.T) {
	_, _, agent, _ := managers(t)
	r1, err := agent.Respond(context.Background(), "show customers with city Berlin")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := agent.Respond(context.Background(), "only those with credit over 20000")
	if err != nil {
		t.Fatal(err)
	}
	if len(r2.Result.Rows) > len(r1.Result.Rows) {
		t.Fatal("refine grew result")
	}
	r3, err := agent.Respond(context.Background(), "how many are there")
	if err != nil {
		t.Fatal(err)
	}
	if r3.Result.Rows[0][0].Int() != int64(len(r2.Result.Rows)) {
		t.Fatal("aggregate inconsistent with refine")
	}
	// Shift after aggregate applies to the rows, not the count.
	r4, err := agent.Respond(context.Background(), "what about their segment instead")
	if err != nil {
		t.Fatalf("agent free shift: %v", err)
	}
	if len(r4.Result.Rows) != len(r2.Result.Rows) {
		t.Fatalf("shift rows = %d, want %d", len(r4.Result.Rows), len(r2.Result.Rows))
	}
}

func TestAgentGreetingAndReset(t *testing.T) {
	_, _, agent, _ := managers(t)
	r, err := agent.Respond(context.Background(), "hello")
	if err != nil || r.SQL != nil {
		t.Fatalf("greeting: %v %v", r, err)
	}
	if _, err := agent.Respond(context.Background(), "show customers with city Berlin"); err != nil {
		t.Fatal(err)
	}
	if _, err := agent.Respond(context.Background(), "reset"); err != nil {
		t.Fatal(err)
	}
	if _, err := agent.Respond(context.Background(), "how many are there"); err == nil {
		// After reset there is no context; "how many are there" becomes a
		// full query that may or may not parse — but must not use stale
		// context. Verify the context is actually empty.
		if agent.ctx.Turns > 1 {
			t.Fatal("reset did not clear context")
		}
	}
}

func TestIntentStrings(t *testing.T) {
	want := map[Intent]string{
		IntentQuery: "query", IntentRefine: "refine", IntentAggregate: "aggregate",
		IntentShift: "shift", IntentGreeting: "greeting", IntentReset: "reset",
	}
	for i, w := range want {
		if i.String() != w {
			t.Errorf("%d.String() = %q", int(i), i.String())
		}
	}
	if Intent(99).String() != "unknown" {
		t.Error("unknown intent string")
	}
}

func TestManagerResets(t *testing.T) {
	fsm, frame, agent, _ := managers(t)
	// Resets must be callable at any time and clear state.
	fsm.Reset()
	if _, err := frame.Respond(context.Background(), "show customers with city Berlin"); err != nil {
		t.Fatal(err)
	}
	frame.Reset()
	if frame.ctx.LastSQL != nil {
		t.Error("frame reset did not clear context")
	}
	if _, err := agent.Respond(context.Background(), "show customers with city Berlin"); err != nil {
		t.Fatal(err)
	}
	agent.Reset()
	if agent.ctx.LastSQL != nil {
		t.Error("agent reset did not clear state")
	}
}

// The user's judgment is execution-based: a candidate written differently
// from the gold but returning its result is chosen, a wrong one is not.
func TestUserSimValidateAndChoose(t *testing.T) {
	d := benchdata.Sales(60)
	u, err := NewUserSim(d.DB, sqlparse.MustParse("SELECT name FROM customer WHERE city = 'Berlin'"))
	if err != nil {
		t.Fatal(err)
	}
	candidates := []nlq.Interpretation{
		{SQL: sqlparse.MustParse("SELECT name FROM customer WHERE city = 'Munich'")},
		{SQL: sqlparse.MustParse("SELECT name FROM customer WHERE city IN ('Berlin')")},
	}
	if idx := u.Choose(candidates); idx != 1 {
		t.Fatalf("gold-equivalent not chosen: Choose = %d, want 1", idx)
	}
	if idx := u.Choose(candidates[:1]); idx != 0 {
		t.Fatalf("Choose of one wrong candidate = %d, want the default 0", idx)
	}
	if u.Interactions != 2 {
		t.Fatalf("interactions = %d", u.Interactions)
	}
}

func TestUserSimSetGoldAndChoose(t *testing.T) {
	d := benchdata.Sales(60)
	u, err := NewUserSim(d.DB, sqlparse.MustParse("SELECT name FROM customer WHERE city = 'Berlin'"))
	if err != nil {
		t.Fatal(err)
	}
	candidates := []nlq.Interpretation{
		{SQL: sqlparse.MustParse("SELECT name FROM customer WHERE city = 'Munich'")},
		{SQL: sqlparse.MustParse("SELECT name FROM customer WHERE city = 'Berlin'")},
	}
	if idx := u.Choose(candidates); idx != 1 {
		t.Errorf("Choose = %d, want 1", idx)
	}
	// A user for another gold flips the choice.
	u2, err := NewUserSim(d.DB, sqlparse.MustParse("SELECT name FROM customer WHERE city = 'Munich'"))
	if err != nil {
		t.Fatal(err)
	}
	if idx := u2.Choose([]nlq.Interpretation{candidates[1], candidates[0]}); idx != 1 {
		t.Errorf("Choose for the Munich gold = %d, want 1", idx)
	}
	// No candidate matches → default 0.
	none := []nlq.Interpretation{{SQL: sqlparse.MustParse("SELECT name FROM customer WHERE city = 'Hamburg'")}}
	if idx := u.Choose(none); idx != 0 {
		t.Errorf("Choose fallback = %d", idx)
	}
	if u.Interactions != 2 {
		t.Errorf("interactions = %d, want 2", u.Interactions)
	}
	if _, err := NewUserSim(d.DB, sqlparse.MustParse("SELECT nosuch FROM customer")); err == nil {
		t.Error("NewUserSim accepted an invalid gold")
	}
}

func TestManagerNames(t *testing.T) {
	fsm, frame, agent, _ := managers(t)
	if fsm.Name() != "finite-state" || frame.Name() != "frame" || agent.Name() != "agent" {
		t.Error("manager names wrong")
	}
}
