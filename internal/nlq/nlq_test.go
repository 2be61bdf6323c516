package nlq

import (
	"errors"
	"testing"

	"nlidb/internal/invindex"
	"nlidb/internal/lexicon"
	"nlidb/internal/nlp"
	"nlidb/internal/sqldata"
	"nlidb/internal/sqlparse"
)

func TestClassify(t *testing.T) {
	cases := []struct {
		sql  string
		want Complexity
	}{
		{"SELECT name FROM t WHERE a = 1", Simple},
		{"SELECT name FROM t", Simple},
		{"SELECT COUNT(*) FROM t", Aggregation},
		{"SELECT a, SUM(b) FROM t GROUP BY a", Aggregation},
		{"SELECT a FROM t ORDER BY a DESC LIMIT 3", Aggregation},
		{"SELECT a FROM t JOIN u ON t.id = u.tid", Join},
		{"SELECT a, COUNT(*) FROM t JOIN u ON t.id = u.tid GROUP BY a", Join},
		{"SELECT a FROM t WHERE b > (SELECT AVG(b) FROM t)", Nested},
		{"SELECT a, COUNT(*) FROM t GROUP BY a HAVING COUNT(*) > 2", Nested},
		{"SELECT a FROM t WHERE id IN (SELECT tid FROM u)", Nested},
		{"SELECT a FROM t JOIN u ON t.id = u.tid WHERE t.b > (SELECT MAX(b) FROM t)", Nested},
	}
	for _, c := range cases {
		got := Classify(sqlparse.MustParse(c.sql))
		if got != c.want {
			t.Errorf("Classify(%q) = %v, want %v", c.sql, got, c.want)
		}
	}
	if Classify(nil) != Simple {
		t.Error("nil should classify Simple")
	}
}

func TestBest(t *testing.T) {
	if _, err := Best(nil); !errors.Is(err, ErrNoInterpretation) {
		t.Error("Best(nil) should be ErrNoInterpretation")
	}
	ins := []Interpretation{{Score: 0.4}, {Score: 0.9}, {Score: 0.5}}
	b, err := Best(ins)
	if err != nil || b.Score != 0.9 {
		t.Errorf("Best = %+v, %v", b, err)
	}
}

func annotateDB(t testing.TB) *invindex.Index {
	t.Helper()
	db := sqldata.NewDatabase("shop")
	c, err := db.CreateTable(&sqldata.Schema{
		Name: "customer",
		Columns: []sqldata.Column{
			{Name: "id", Type: sqldata.TypeInt, PrimaryKey: true},
			{Name: "name", Type: sqldata.TypeText},
			{Name: "city", Type: sqldata.TypeText},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.MustInsert(sqldata.NewInt(1), sqldata.NewText("Alice Smith"), sqldata.NewText("New York"))
	c.MustInsert(sqldata.NewInt(2), sqldata.NewText("Bob"), sqldata.NewText("Berlin"))
	return invindex.Build(db, lexicon.New())
}

func TestMatchSpansLongestFirst(t *testing.T) {
	ix := annotateDB(t)
	toks := nlp.Tag(nlp.Tokenize("customers in New York"))
	spans := MatchSpans(toks, ix, invindex.DefaultOptions())
	if len(spans) != 2 {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[0].Best().Kind != invindex.KindTable {
		t.Errorf("first span = %+v", spans[0])
	}
	if spans[1].Text != "New York" || spans[1].Best().Value != "New York" {
		t.Errorf("multi-word value span = %+v", spans[1])
	}
}

// A multi-word span raises the caller's fuzzy threshold to 0.9; it must
// not switch fuzzy matching back on for a caller that disabled it. A
// phrase span needs a score of 0.85, which the fuzzy tier reaches only at
// similarity 1 — a different string with the same trigram set.
func TestMatchSpansKeepsFuzzyDisabledOnPhrases(t *testing.T) {
	db := sqldata.NewDatabase("menu")
	d, err := db.CreateTable(&sqldata.Schema{
		Name:    "dessert",
		Columns: []sqldata.Column{{Name: "title", Type: sqldata.TypeText}},
	})
	if err != nil {
		t.Fatal(err)
	}
	d.MustInsert(sqldata.NewText("Banana Split Sundae"))
	ix := invindex.Build(db, lexicon.New())
	toks := nlp.Tag(nlp.Tokenize("bananana split sundae")) // "ana", "nan" repeat: no new trigram

	spans := MatchSpans(toks, ix, invindex.DefaultOptions())
	if len(spans) != 1 || spans[0].Best().Via != "fuzzy" || spans[0].End-spans[0].Start != 3 {
		t.Fatalf("premise: the near-miss should match fuzzily as one phrase at the default threshold, got %+v", spans)
	}
	if spans := MatchSpans(toks, ix, invindex.LookupOptions{}); len(spans) != 0 {
		t.Errorf("FuzzyThreshold 0 disables fuzzy matching, but a phrase matched: %+v", spans)
	}
}

func TestMatchSpansSkipsNumbers(t *testing.T) {
	ix := annotateDB(t)
	toks := nlp.Tag(nlp.Tokenize("customers with id over 5"))
	spans := MatchSpans(toks, ix, invindex.DefaultOptions())
	for _, s := range spans {
		if s.Text == "5" {
			t.Error("number matched as entity span")
		}
	}
}

func TestFindComparisons(t *testing.T) {
	toks := nlp.Tag(nlp.Tokenize("products with price greater than 100"))
	cs := FindComparisons(toks)
	if len(cs) != 1 || cs[0].Op != ">" || cs[0].Value != 100 || cs[0].ColumnHint != "price" {
		t.Fatalf("comparisons = %+v", cs)
	}
	toks = nlp.Tag(nlp.Tokenize("salary at least 50000 and age under 30"))
	cs = FindComparisons(toks)
	if len(cs) != 2 {
		t.Fatalf("comparisons = %+v", cs)
	}
	if cs[0].Op != ">=" || cs[0].ColumnHint != "salary" {
		t.Errorf("first = %+v", cs[0])
	}
	if cs[1].Op != "<" || cs[1].ColumnHint != "age" {
		t.Errorf("second = %+v", cs[1])
	}
}

func TestFindComparisonsGenericComparative(t *testing.T) {
	cs := FindComparisons(nlp.Tag(nlp.Tokenize("dogs heavier than 20")))
	if len(cs) != 1 || cs[0].Op != ">" || cs[0].Value != 20 || cs[0].ColumnHint != "dogs" {
		t.Fatalf("heavier than = %+v", cs)
	}
	cs = FindComparisons(nlp.Tag(nlp.Tokenize("cats lighter than 5")))
	if len(cs) != 1 || cs[0].Op != "<" || cs[0].Value != 5 {
		t.Fatalf("lighter than = %+v", cs)
	}
	// Listed phrases must not double-fire through the generic fallback.
	cs = FindComparisons(nlp.Tag(nlp.Tokenize("salary greater than 100")))
	if len(cs) != 1 {
		t.Fatalf("double-fired: %+v", cs)
	}
}

func TestFindComparisonsBetween(t *testing.T) {
	toks := nlp.Tag(nlp.Tokenize("price between 10 and 20"))
	cs := FindComparisons(toks)
	if len(cs) != 2 || cs[0].Op != ">=" || cs[0].Value != 10 || cs[1].Op != "<=" || cs[1].Value != 20 {
		t.Fatalf("between = %+v", cs)
	}
}

func TestFindComparisonsPhrasePriority(t *testing.T) {
	// "greater than or equal to" must not double-extract "greater than".
	toks := nlp.Tag(nlp.Tokenize("price greater than or equal to 10"))
	cs := FindComparisons(toks)
	if len(cs) != 1 || cs[0].Op != ">=" {
		t.Fatalf("phrase priority = %+v", cs)
	}
}

func TestFindAggCues(t *testing.T) {
	cases := []struct {
		q    string
		want string
	}{
		{"how many customers are there", "COUNT"},
		{"number of orders", "COUNT"},
		{"total revenue of sales", "SUM"},
		{"average price of products", "AVG"},
		{"maximum salary", "MAX"},
		{"cheapest product", "MIN"},
	}
	for _, c := range cases {
		cues := FindAggCues(nlp.Tag(nlp.Tokenize(c.q)))
		if len(cues) == 0 || cues[0].Func != c.want {
			t.Errorf("FindAggCues(%q) = %+v, want %s", c.q, cues, c.want)
		}
	}
	if cues := FindAggCues(nlp.Tag(nlp.Tokenize("list the customers"))); len(cues) != 0 {
		t.Errorf("spurious agg cues: %+v", cues)
	}
}

func TestFindGroupCues(t *testing.T) {
	toks := nlp.Tag(nlp.Tokenize("total sales by region"))
	gs := FindGroupCues(toks)
	if len(gs) != 1 || toks[gs[0].TokenPos].Lower != "region" {
		t.Fatalf("group cues = %+v", gs)
	}
	toks = nlp.Tag(nlp.Tokenize("average salary per department"))
	gs = FindGroupCues(toks)
	if len(gs) != 1 || toks[gs[0].TokenPos].Lower != "department" {
		t.Fatalf("per cue = %+v", gs)
	}
	toks = nlp.Tag(nlp.Tokenize("count of orders for each customer"))
	gs = FindGroupCues(toks)
	if len(gs) != 1 || toks[gs[0].TokenPos].Lower != "customer" {
		t.Fatalf("each cue = %+v", gs)
	}
}

func TestFindTopK(t *testing.T) {
	tk := FindTopK(nlp.Tag(nlp.Tokenize("top 5 products by price")))
	if tk == nil || tk.K != 5 || !tk.Desc {
		t.Fatalf("top 5 = %+v", tk)
	}
	tk = FindTopK(nlp.Tag(nlp.Tokenize("the most expensive product")))
	if tk == nil || tk.K != 1 || !tk.Desc {
		t.Fatalf("most expensive = %+v", tk)
	}
	tk = FindTopK(nlp.Tag(nlp.Tokenize("3 cheapest hotels")))
	if tk == nil || tk.K != 3 || tk.Desc {
		t.Fatalf("3 cheapest = %+v", tk)
	}
	if tk := FindTopK(nlp.Tag(nlp.Tokenize("list all products"))); tk != nil {
		t.Fatalf("spurious topk = %+v", tk)
	}
}

func TestHasNegation(t *testing.T) {
	toks := nlp.Tag(nlp.Tokenize("departments without employees"))
	if pos, ok := HasNegation(toks); !ok || toks[pos].Lower != "without" {
		t.Errorf("negation = %d %v", pos, ok)
	}
	if _, ok := HasNegation(nlp.Tag(nlp.Tokenize("departments with employees"))); ok {
		t.Error("spurious negation")
	}
}
