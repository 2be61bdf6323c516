package eval

import (
	"strings"
	"testing"

	"nlidb/internal/athena"
	"nlidb/internal/benchdata"
	"nlidb/internal/dataset"
	"nlidb/internal/dialogue"
	"nlidb/internal/invindex"
	"nlidb/internal/keywordnl"
	"nlidb/internal/lexicon"
	"nlidb/internal/nlq"
	"nlidb/internal/resilient"
	"nlidb/internal/sqlparse"
)

// perfect answers every question with the gold SQL; broken answers none.
type perfect struct{ set *dataset.Set }

func (p *perfect) Name() string { return "perfect" }
func (p *perfect) Interpret(q string) ([]nlq.Interpretation, error) {
	for _, pair := range p.set.Pairs {
		if pair.Question == q {
			return []nlq.Interpretation{{SQL: pair.SQL, Score: 1}}, nil
		}
	}
	return nil, nlq.ErrNoInterpretation
}

type broken struct{}

func (b *broken) Name() string { return "broken" }
func (b *broken) Interpret(string) ([]nlq.Interpretation, error) {
	return nil, nlq.ErrNoInterpretation
}

// half answers everything but is right only on Simple pairs.
type half struct{ set *dataset.Set }

func (h *half) Name() string { return "half" }
func (h *half) Interpret(q string) ([]nlq.Interpretation, error) {
	for _, pair := range h.set.Pairs {
		if pair.Question == q {
			if pair.Complexity == nlq.Simple {
				return []nlq.Interpretation{{SQL: pair.SQL, Score: 1}}, nil
			}
			return []nlq.Interpretation{{SQL: sqlparse.MustParse("SELECT id FROM customer WHERE id < 0"), Score: 1}}, nil
		}
	}
	return nil, nlq.ErrNoInterpretation
}

func corpus(t *testing.T) *dataset.Set {
	t.Helper()
	d := benchdata.Sales(42)
	set := &dataset.Set{Name: "test", DB: d.DB, Pairs: d.GeneratePairs(40, 5)}
	return set
}

func TestEvaluatePerfect(t *testing.T) {
	set := corpus(t)
	rep, err := Evaluate(&perfect{set}, set)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Overall.Accuracy() != 1 || rep.Overall.Precision() != 1 || rep.Overall.F1() != 1 {
		t.Fatalf("perfect scored %+v", rep.Overall)
	}
	if rep.Overall.ExactAccuracy() != 1 {
		t.Fatalf("perfect exact = %v", rep.Overall.ExactAccuracy())
	}
}

func TestEvaluateBroken(t *testing.T) {
	set := corpus(t)
	rep, err := Evaluate(&broken{}, set)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Overall.Accuracy() != 0 || rep.Overall.Answered != 0 {
		t.Fatalf("broken scored %+v", rep.Overall)
	}
}

func TestEvaluatePrecisionVsRecall(t *testing.T) {
	set := corpus(t)
	rep, err := Evaluate(&half{set}, set)
	if err != nil {
		t.Fatal(err)
	}
	// Answers everything → precision == recall; correct only on Simple.
	if rep.Overall.Answered != rep.Overall.Total {
		t.Fatalf("half answered %d/%d", rep.Overall.Answered, rep.Overall.Total)
	}
	simple := rep.ByClass[nlq.Simple]
	if simple == nil || simple.Accuracy() != 1 {
		t.Fatalf("simple class = %+v", simple)
	}
	// The dummy query can coincide with empty-result golds, so nested
	// accuracy is low but not necessarily zero.
	if nested := rep.ByClass[nlq.Nested]; nested != nil && nested.Accuracy() >= simple.Accuracy() {
		t.Fatalf("nested (%+v) should score below simple", nested)
	}
}

func TestReportString(t *testing.T) {
	set := corpus(t)
	rep, _ := Evaluate(&perfect{set}, set)
	s := rep.String()
	if !strings.Contains(s, "acc=1.000") || !strings.Contains(s, "simple") {
		t.Errorf("report string: %s", s)
	}
	if len(rep.Classes()) == 0 {
		t.Error("no classes")
	}
}

func TestRealInterpreterOrdering(t *testing.T) {
	// Sanity: athena must beat keyword overall on a mixed corpus.
	set := corpus(t)
	lex := lexicon.New()
	ix := invindex.Build(set.DB, lex)
	kw, err := Evaluate(keywordnl.New(set.DB, ix), set)
	if err != nil {
		t.Fatal(err)
	}
	at, err := Evaluate(athena.New(set.DB, ix, lex), set)
	if err != nil {
		t.Fatal(err)
	}
	if at.Overall.Accuracy() <= kw.Overall.Accuracy() {
		t.Errorf("athena (%.3f) did not beat keyword (%.3f)",
			at.Overall.Accuracy(), kw.Overall.Accuracy())
	}
}

func TestEvaluateConversations(t *testing.T) {
	d := benchdata.Sales(42)
	cs := benchdata.Conversations(d, 8, 3)
	lex := lexicon.New()
	ix := invindex.Build(d.DB, lex)
	back := resilient.New(d.DB, []nlq.Interpreter{athena.New(d.DB, ix, lex)}, resilient.Config{NoTrace: true, NoRetry: true})
	agent := dialogue.NewAgent(ix, back)
	rep, err := EvaluateConversations(agent, cs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Overall.Total != cs.TotalTurns() {
		t.Fatalf("turns = %d, want %d", rep.Overall.Total, cs.TotalTurns())
	}
	fsm := dialogue.NewFiniteState(back)
	frep, err := EvaluateConversations(fsm, cs)
	if err != nil {
		t.Fatal(err)
	}
	if frep.Overall.Accuracy() >= rep.Overall.Accuracy() {
		t.Errorf("finite-state (%.3f) not below agent (%.3f)",
			frep.Overall.Accuracy(), rep.Overall.Accuracy())
	}
	// Context-dependent turns must be where the finite-state manager dies.
	if c := frep.ByKind[dataset.TurnRefine]; c != nil && c.Correct != 0 {
		t.Errorf("finite-state answered a refine turn: %+v", c)
	}
	if !strings.Contains(rep.String(), "turn-acc") {
		t.Error("conv report string")
	}
}

// TestEvaluateRecords checks the per-query record rows: one per pair in
// corpus order, carrying the engine name, a positive wall time, and
// outcome flags consistent with the aggregate counts.
func TestEvaluateRecords(t *testing.T) {
	set := corpus(t)
	rep, err := Evaluate(&perfect{set}, set)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Records) != len(set.Pairs) {
		t.Fatalf("records = %d, want one per pair (%d)", len(rep.Records), len(set.Pairs))
	}
	answered, correct := 0, 0
	for i, rec := range rep.Records {
		if rec.Question != set.Pairs[i].Question {
			t.Fatalf("record %d out of corpus order: %q", i, rec.Question)
		}
		if rec.Engine != "perfect" {
			t.Errorf("record %d engine = %q, want perfect", i, rec.Engine)
		}
		if rec.Answered {
			answered++
		}
		if rec.Correct {
			correct++
		}
	}
	if answered != rep.Overall.Answered || correct != rep.Overall.Correct {
		t.Errorf("record flags (answered %d, correct %d) disagree with counts (%d, %d)",
			answered, correct, rep.Overall.Answered, rep.Overall.Correct)
	}
}

// TestEvaluateRecordsUnanswered: a broken interpreter still yields one
// record per pair, all unanswered.
func TestEvaluateRecordsUnanswered(t *testing.T) {
	set := corpus(t)
	rep, err := Evaluate(&broken{}, set)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Records) != len(set.Pairs) {
		t.Fatalf("records = %d, want %d", len(rep.Records), len(set.Pairs))
	}
	for i, rec := range rep.Records {
		if rec.Answered || rec.Correct || rec.Exact {
			t.Errorf("record %d should be fully unanswered: %+v", i, rec)
		}
	}
}
