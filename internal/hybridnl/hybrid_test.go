package hybridnl

import (
	"errors"
	"testing"

	"nlidb/internal/athena"
	"nlidb/internal/benchdata"
	"nlidb/internal/invindex"
	"nlidb/internal/lexicon"
	"nlidb/internal/nlq"
	"nlidb/internal/sqlexec"
	"nlidb/internal/sqlparse"
)

func questOverSales(t *testing.T) (*Quest, *benchdata.Domain) {
	t.Helper()
	d := benchdata.Sales(50)
	history := d.GeneratePairs(120, 7, nlq.Simple, nlq.Aggregation, nlq.Join)
	q, err := NewQuest(d.DB, invindex.Build(d.DB, lexicon.New()), history)
	if err != nil {
		t.Fatal(err)
	}
	return q, d
}

func TestQuestSimpleSelection(t *testing.T) {
	q, d := questOverSales(t)
	ins, err := q.Interpret("list customers with city Berlin")
	if err != nil {
		t.Fatal(err)
	}
	best, _ := nlq.Best(ins)
	res, err := sqlexec.New(d.DB).Run(best.SQL)
	if err != nil {
		t.Fatalf("exec %s: %v", best.SQL, err)
	}
	gold, _ := sqlexec.New(d.DB).RunSQL("SELECT name FROM customer WHERE city = 'Berlin'")
	if !res.EqualUnordered(gold) {
		t.Fatalf("result mismatch: %s", best.SQL)
	}
}

func TestQuestAggregation(t *testing.T) {
	q, d := questOverSales(t)
	ins, err := q.Interpret("how many products are there")
	if err != nil {
		t.Fatal(err)
	}
	best, _ := nlq.Best(ins)
	res, err := sqlexec.New(d.DB).Run(best.SQL)
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("count: %v %v", res, err)
	}
	if res.Rows[0][0].Int() != int64(d.DB.Table("product").Len()) {
		t.Fatalf("count = %v", res.Rows[0][0])
	}
}

func TestQuestJoin(t *testing.T) {
	q, d := questOverSales(t)
	ins, err := q.Interpret("products of the category toys")
	if err != nil {
		t.Fatal(err)
	}
	best, _ := nlq.Best(ins)
	if len(best.SQL.From.Joins) == 0 {
		t.Fatalf("no join: %s", best.SQL)
	}
	if _, err := sqlexec.New(d.DB).Run(best.SQL); err != nil {
		t.Fatalf("exec: %v", err)
	}
}

func TestQuestNoNesting(t *testing.T) {
	q, _ := questOverSales(t)
	ins, err := q.Interpret("products with price greater than the average price")
	if err != nil {
		return
	}
	for _, in := range ins {
		if len(in.SQL.Subqueries()) != 0 {
			t.Fatalf("quest nested: %s", in.SQL)
		}
	}
}

func TestQuestComparisonsAndTopK(t *testing.T) {
	q, d := questOverSales(t)
	if q.Name() != "quest" {
		t.Errorf("name = %s", q.Name())
	}
	ins, err := q.Interpret("customers with credit over 20000")
	if err != nil {
		t.Fatal(err)
	}
	best, _ := nlq.Best(ins)
	res, err := sqlexec.New(d.DB).Run(best.SQL)
	if err != nil {
		t.Fatalf("exec %s: %v", best.SQL, err)
	}
	gold, _ := sqlexec.New(d.DB).RunSQL("SELECT name FROM customer WHERE credit > 20000")
	if !res.EqualUnordered(gold) {
		t.Errorf("comparison mismatch: %s", best.SQL)
	}

	ins, err = q.Interpret("top 3 products by price")
	if err != nil {
		t.Fatal(err)
	}
	best, _ = nlq.Best(ins)
	if best.SQL.Limit != 3 || len(best.SQL.OrderBy) != 1 {
		t.Errorf("topk = %s", best.SQL)
	}
	if _, err := sqlexec.New(d.DB).Run(best.SQL); err != nil {
		t.Errorf("topk exec: %v", err)
	}
}

func TestQuestGroupBy(t *testing.T) {
	q, d := questOverSales(t)
	ins, err := q.Interpret("average credit of customers by segment")
	if err != nil {
		t.Fatal(err)
	}
	best, _ := nlq.Best(ins)
	res, err := sqlexec.New(d.DB).Run(best.SQL)
	if err != nil {
		t.Fatalf("exec %s: %v", best.SQL, err)
	}
	if len(best.SQL.GroupBy) != 1 || len(res.Rows) < 2 {
		t.Errorf("group by: %s → %d rows", best.SQL, len(res.Rows))
	}
}

func TestQuestRejectsUnrelatable(t *testing.T) {
	q, _ := questOverSales(t)
	_, err := q.Interpret("zzz qqq xxx")
	if !errors.Is(err, nlq.ErrNoInterpretation) {
		t.Fatalf("err = %v", err)
	}
}

func TestQuestTrainingRequired(t *testing.T) {
	d := benchdata.Sales(50)
	if _, err := NewQuest(d.DB, invindex.Build(d.DB, lexicon.New()), nil); err == nil {
		t.Fatal("empty history accepted")
	}
}

// stub interpreter for ensemble tests.
type stub struct {
	name string
	ins  []nlq.Interpretation
	err  error
}

func (s *stub) Name() string { return s.name }
func (s *stub) Interpret(string) ([]nlq.Interpretation, error) {
	return s.ins, s.err
}

func TestEnsembleUsesPrimaryWhenConfident(t *testing.T) {
	p := &stub{name: "p", ins: []nlq.Interpretation{{Score: 0.9, SQL: sqlparse.MustParse("SELECT a FROM t")}}}
	f := &stub{name: "f", ins: []nlq.Interpretation{{Score: 0.7, SQL: sqlparse.MustParse("SELECT b FROM t")}}}
	e := &Ensemble{Primary: p, Fallback: f, Threshold: 0.8}
	ins, err := e.Interpret("q")
	if err != nil || ins[0].SQL.String() != "SELECT a FROM t" {
		t.Fatalf("ensemble = %v, %v", ins, err)
	}
}

func TestEnsembleFallsBack(t *testing.T) {
	p := &stub{name: "p", ins: []nlq.Interpretation{{Score: 0.3, SQL: sqlparse.MustParse("SELECT a FROM t")}}}
	f := &stub{name: "f", ins: []nlq.Interpretation{{Score: 0.7, SQL: sqlparse.MustParse("SELECT b FROM t")}}}
	e := &Ensemble{Primary: p, Fallback: f, Threshold: 0.8}
	ins, err := e.Interpret("q")
	if err != nil || ins[0].SQL.String() != "SELECT b FROM t" {
		t.Fatalf("ensemble = %v, %v", ins, err)
	}
	// Primary readings stay available behind the fallback's.
	if len(ins) != 2 {
		t.Fatalf("merged readings = %d", len(ins))
	}
}

func TestEnsembleBothFail(t *testing.T) {
	p := &stub{name: "p", err: nlq.ErrNoInterpretation}
	f := &stub{name: "f", err: nlq.ErrNoInterpretation}
	e := &Ensemble{Primary: p, Fallback: f, Threshold: 0.5}
	if _, err := e.Interpret("q"); !errors.Is(err, nlq.ErrNoInterpretation) {
		t.Fatalf("err = %v", err)
	}
}

func TestEnsembleWithRealInterpreters(t *testing.T) {
	d := benchdata.Sales(50)
	lex := lexicon.New()
	ix := invindex.Build(d.DB, lex)
	primary := athena.New(d.DB, ix, lex)
	fallback := athena.New(d.DB, ix, lex) // stands in for a trained model
	e := &Ensemble{Primary: primary, Fallback: fallback, Threshold: 0.95}
	ins, err := e.Interpret("customers with credit over 10000")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sqlexec.New(d.DB).Run(ins[0].SQL); err != nil {
		t.Fatalf("exec: %v", err)
	}
	if e.Name() != "hybrid" {
		t.Errorf("name = %s", e.Name())
	}
}
