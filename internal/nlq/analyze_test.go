package nlq

import (
	"testing"

	"nlidb/internal/invindex"
	"nlidb/internal/lexicon"
	"nlidb/internal/nlp"
	"nlidb/internal/sqldata"
)

func TestComplexityStrings(t *testing.T) {
	want := map[Complexity]string{Simple: "simple", Aggregation: "aggregation", Join: "join", Nested: "nested"}
	for c, w := range want {
		if c.String() != w {
			t.Errorf("%d.String() = %q", int(c), c.String())
		}
	}
	if Complexity(99).String() == "" {
		t.Error("unknown complexity should still print")
	}
}

func TestFindSubqueryComparisons(t *testing.T) {
	toks := nlp.Tag(nlp.Tokenize("employees with salary greater than the average salary"))
	scs := FindSubqueryComparisons(toks)
	if len(scs) != 1 {
		t.Fatalf("subcompares = %+v", scs)
	}
	if scs[0].Op != ">" || scs[0].AggFunc != "AVG" || scs[0].ColumnHint != "salary" {
		t.Errorf("subcompare = %+v", scs[0])
	}

	// A number right after the comparative means a plain comparison.
	toks = nlp.Tag(nlp.Tokenize("employees with salary greater than 100"))
	if scs := FindSubqueryComparisons(toks); len(scs) != 0 {
		t.Errorf("numeric comparison misread as nested: %+v", scs)
	}

	// MAX/MIN/SUM variants.
	for q, fn := range map[string]string{
		"price below the maximum price": "MAX",
		"price above the minimum price": "MIN",
		"cost over the total budget":    "SUM",
	} {
		scs := FindSubqueryComparisons(nlp.Tag(nlp.Tokenize(q)))
		if len(scs) != 1 || scs[0].AggFunc != fn {
			t.Errorf("%q → %+v, want %s", q, scs, fn)
		}
	}
}

func TestAnalyzeDropsSubAggCues(t *testing.T) {
	db := sqldata.NewDatabase("a")
	tbl, err := db.CreateTable(&sqldata.Schema{Name: "employee", Columns: []sqldata.Column{
		{Name: "id", Type: sqldata.TypeInt, PrimaryKey: true},
		{Name: "name", Type: sqldata.TypeText},
		{Name: "salary", Type: sqldata.TypeFloat},
	}})
	if err != nil {
		t.Fatal(err)
	}
	tbl.MustInsert(sqldata.NewInt(1), sqldata.NewText("ann"), sqldata.NewFloat(10))
	ix := invindex.Build(db, lexicon.New())

	a := Analyze("employees with salary above the average salary", ix, invindex.DefaultOptions())
	if len(a.SubCompares) != 1 {
		t.Fatalf("subcompares = %+v", a.SubCompares)
	}
	// "average" must not remain as an outer aggregate cue.
	for _, c := range a.AggCues {
		if c.Func == "AVG" {
			t.Errorf("sub-query AVG leaked into outer cues: %+v", a.AggCues)
		}
	}
	// SpanAt must find the employee span and miss out-of-range positions.
	if sp := a.SpanAt(0); sp == nil {
		t.Error("SpanAt(0) = nil for the table mention")
	}
	if sp := a.SpanAt(999); sp != nil {
		t.Errorf("SpanAt(999) = %+v", sp)
	}
}

func TestAnalyzeTopKSuppressedInsideSubCompare(t *testing.T) {
	db := sqldata.NewDatabase("a")
	tbl, err := db.CreateTable(&sqldata.Schema{Name: "product", Columns: []sqldata.Column{
		{Name: "id", Type: sqldata.TypeInt, PrimaryKey: true},
		{Name: "name", Type: sqldata.TypeText},
		{Name: "price", Type: sqldata.TypeFloat},
	}})
	if err != nil {
		t.Fatal(err)
	}
	tbl.MustInsert(sqldata.NewInt(1), sqldata.NewText("w"), sqldata.NewFloat(3))
	ix := invindex.Build(db, lexicon.New())
	a := Analyze("products with price below the maximum price", ix, invindex.DefaultOptions())
	if a.TopK != nil {
		t.Errorf("superlative inside sub-compare drove TopK: %+v", a.TopK)
	}
}

func TestPreferMentionedColumnsReordering(t *testing.T) {
	// Two columns share the value "berlin"; mentioning "origin" must pull
	// the origin reading ahead of the (alphabetically earlier) destination.
	db := sqldata.NewDatabase("fl")
	tbl, err := db.CreateTable(&sqldata.Schema{Name: "flight", Columns: []sqldata.Column{
		{Name: "id", Type: sqldata.TypeInt, PrimaryKey: true},
		{Name: "origin", Type: sqldata.TypeText},
		{Name: "destination", Type: sqldata.TypeText},
	}})
	if err != nil {
		t.Fatal(err)
	}
	tbl.MustInsert(sqldata.NewInt(1), sqldata.NewText("Berlin"), sqldata.NewText("Munich"))
	tbl.MustInsert(sqldata.NewInt(2), sqldata.NewText("Munich"), sqldata.NewText("Berlin"))
	ix := invindex.Build(db, lexicon.New())

	toks := nlp.Tag(nlp.Tokenize("flights with origin Berlin"))
	spans := MatchSpans(toks, ix, invindex.DefaultOptions())
	var berlin *SpanMatch
	for i := range spans {
		if spans[i].Text == "Berlin" {
			berlin = &spans[i]
		}
	}
	if berlin == nil {
		t.Fatal("Berlin span missing")
	}
	if got := berlin.Best(); got.Column != "origin" {
		t.Errorf("mentioned column not preferred: best = %+v", got)
	}
}

// ordersIndex indexes a customer ← orders schema whose orders carry a
// column named "total", or, with noTotal, one named "amount" instead.
func ordersIndex(t *testing.T, noTotal bool) *invindex.Index {
	t.Helper()
	money := "total"
	if noTotal {
		money = "amount"
	}
	db := sqldata.NewDatabase("shop")
	cust, err := db.CreateTable(&sqldata.Schema{Name: "customer", Columns: []sqldata.Column{
		{Name: "id", Type: sqldata.TypeInt, PrimaryKey: true},
		{Name: "name", Type: sqldata.TypeText},
	}})
	if err != nil {
		t.Fatal(err)
	}
	cust.MustInsert(sqldata.NewInt(1), sqldata.NewText("Ivan"))
	ord, err := db.CreateTable(&sqldata.Schema{
		Name: "orders",
		Columns: []sqldata.Column{
			{Name: "id", Type: sqldata.TypeInt, PrimaryKey: true},
			{Name: "customer_id", Type: sqldata.TypeInt},
			{Name: "quantity", Type: sqldata.TypeInt},
			{Name: money, Type: sqldata.TypeFloat},
		},
		ForeignKeys: []sqldata.ForeignKey{{Column: "customer_id", RefTable: "customer", RefColumn: "id"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ord.MustInsert(sqldata.NewInt(1), sqldata.NewInt(1), sqldata.NewInt(2), sqldata.NewFloat(9.5))
	return invindex.Build(db, lexicon.New())
}

// TestAnalyzeCueNamingColumnIsTarget: an aggregate cue word right after
// another cue that names a column is the first cue's target, not a second
// aggregate; alone, or when no column carries its name, it stays a cue.
func TestAnalyzeCueNamingColumnIsTarget(t *testing.T) {
	withTotal, noTotal := ordersIndex(t, false), ordersIndex(t, true)
	cases := []struct {
		ix   *invindex.Index
		q    string
		want []AggCue
	}{
		{withTotal, "total total of orders of the customer Ivan", []AggCue{{"SUM", 0}}},
		{withTotal, "average total of orders of the customer Ivan", []AggCue{{"AVG", 0}}},
		// "lowest" drives top-k, which claims its MIN cue as well.
		{withTotal, "lowest total of orders of the customer Ivan", nil},
		{withTotal, "total quantity of orders of the customer Ivan", []AggCue{{"SUM", 0}}},
		{withTotal, "total of orders of the customer Ivan", []AggCue{{"SUM", 0}}},
		{noTotal, "average total quantity of orders", []AggCue{{"AVG", 0}, {"SUM", 1}}},
	}
	for _, c := range cases {
		a := Analyze(c.q, c.ix, invindex.DefaultOptions())
		if len(a.AggCues) != len(c.want) {
			t.Errorf("%q: cues %+v, want %+v", c.q, a.AggCues, c.want)
			continue
		}
		for i := range c.want {
			if a.AggCues[i] != c.want[i] {
				t.Errorf("%q: cues %+v, want %+v", c.q, a.AggCues, c.want)
				break
			}
		}
	}
	// The top-k superlative before "total" orders by that column.
	a := Analyze("lowest total of orders of the customer Ivan", withTotal, invindex.DefaultOptions())
	if a.TopK == nil || a.TopK.TokenPos != 0 || a.TopK.Desc {
		t.Errorf("lowest total: TopK %+v, want ascending at 0", a.TopK)
	}
}
