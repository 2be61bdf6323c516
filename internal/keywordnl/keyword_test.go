package keywordnl

import (
	"errors"
	"strings"
	"testing"

	"nlidb/internal/invindex"
	"nlidb/internal/lexicon"
	"nlidb/internal/nlq"
	"nlidb/internal/sqldata"
	"nlidb/internal/sqlexec"
)

func shopDB(t testing.TB) *sqldata.Database {
	t.Helper()
	db := sqldata.NewDatabase("shop")
	c, err := db.CreateTable(&sqldata.Schema{
		Name:     "customer",
		Synonyms: []string{"client"},
		Columns: []sqldata.Column{
			{Name: "id", Type: sqldata.TypeInt, PrimaryKey: true},
			{Name: "name", Type: sqldata.TypeText},
			{Name: "city", Type: sqldata.TypeText},
			{Name: "segment", Type: sqldata.TypeText},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.MustInsert(sqldata.NewInt(1), sqldata.NewText("Alice"), sqldata.NewText("Berlin"), sqldata.NewText("retail"))
	c.MustInsert(sqldata.NewInt(2), sqldata.NewText("Bob"), sqldata.NewText("Munich"), sqldata.NewText("corporate"))
	c.MustInsert(sqldata.NewInt(3), sqldata.NewText("Carol"), sqldata.NewText("Berlin"), sqldata.NewText("corporate"))

	p, err := db.CreateTable(&sqldata.Schema{
		Name: "product",
		Columns: []sqldata.Column{
			{Name: "id", Type: sqldata.TypeInt, PrimaryKey: true},
			{Name: "name", Type: sqldata.TypeText},
			{Name: "price", Type: sqldata.TypeFloat},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	p.MustInsert(sqldata.NewInt(1), sqldata.NewText("Widget"), sqldata.NewFloat(10))
	return db
}

func TestSimpleValueFilter(t *testing.T) {
	db := shopDB(t)
	k := New(db, invindex.Build(db, lexicon.New()))
	ins, err := k.Interpret("customers in Berlin")
	if err != nil {
		t.Fatal(err)
	}
	best, _ := nlq.Best(ins)
	res, err := sqlexec.New(db).Run(best.SQL)
	if err != nil {
		t.Fatalf("exec %s: %v", best.SQL, err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d for %s", len(res.Rows), best.SQL)
	}
}

func TestColumnProjection(t *testing.T) {
	db := shopDB(t)
	k := New(db, invindex.Build(db, lexicon.New()))
	ins, err := k.Interpret("city of customer Alice")
	if err != nil {
		t.Fatal(err)
	}
	best, _ := nlq.Best(ins)
	sql := best.SQL.String()
	if !strings.Contains(sql, "city") || !strings.Contains(strings.ToLower(sql), "alice") {
		t.Fatalf("sql = %s", sql)
	}
	res, err := sqlexec.New(db).Run(best.SQL)
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].Text() != "Berlin" {
		t.Fatalf("res = %v, %v", res, err)
	}
}

func TestSynonymTableLookup(t *testing.T) {
	db := shopDB(t)
	k := New(db, invindex.Build(db, lexicon.New()))
	ins, err := k.Interpret("list the clients from Munich")
	if err != nil {
		t.Fatal(err)
	}
	best, _ := nlq.Best(ins)
	if best.SQL.From.First.Name != "customer" {
		t.Fatalf("anchor = %s", best.SQL.From.First.Name)
	}
}

func TestKeywordIgnoresAggregation(t *testing.T) {
	// The defining limitation: "how many customers in Berlin" still
	// produces a plain selection, not COUNT.
	db := shopDB(t)
	k := New(db, invindex.Build(db, lexicon.New()))
	ins, err := k.Interpret("how many customers in Berlin")
	if err != nil {
		t.Fatal(err)
	}
	best, _ := nlq.Best(ins)
	if best.SQL.HasAggregate() {
		t.Fatalf("keyword system aggregated: %s", best.SQL)
	}
	if nlq.Classify(best.SQL) != nlq.Simple {
		t.Fatalf("class = %v", nlq.Classify(best.SQL))
	}
}

func TestKeywordSingleTableOnly(t *testing.T) {
	db := shopDB(t)
	k := New(db, invindex.Build(db, lexicon.New()))
	ins, err := k.Interpret("customers who bought the product Widget")
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range ins {
		if len(in.SQL.From.Joins) != 0 {
			t.Fatalf("keyword system joined: %s", in.SQL)
		}
	}
}

func TestNoInterpretation(t *testing.T) {
	db := shopDB(t)
	k := New(db, invindex.Build(db, lexicon.New()))
	_, err := k.Interpret("quantum flux capacitors")
	if !errors.Is(err, nlq.ErrNoInterpretation) {
		t.Fatalf("err = %v", err)
	}
}

func TestMultipleCandidates(t *testing.T) {
	db := shopDB(t)
	k := New(db, invindex.Build(db, lexicon.New()))
	// "name" exists on both tables → both anchors are plausible.
	ins, err := k.Interpret("name of products and customers")
	if err != nil {
		t.Fatal(err)
	}
	if len(ins) < 2 {
		t.Fatalf("want multiple candidates, got %d", len(ins))
	}
	// Ranked: scores non-increasing is not required (Best handles it),
	// but all must execute.
	for _, in := range ins {
		if _, err := sqlexec.New(db).Run(in.SQL); err != nil {
			t.Errorf("candidate does not execute: %s: %v", in.SQL, err)
		}
	}
}

func TestDisjunctionMergesToIN(t *testing.T) {
	db := shopDB(t)
	k := New(db, invindex.Build(db, lexicon.New()))
	ins, err := k.Interpret("customers in Berlin or Munich")
	if err != nil {
		t.Fatal(err)
	}
	best, _ := nlq.Best(ins)
	sql := best.SQL.String()
	if !strings.Contains(sql, "IN (") {
		t.Fatalf("disjunction not merged: %s", sql)
	}
	res, err := sqlexec.New(db).Run(best.SQL)
	if err != nil || len(res.Rows) != 3 {
		t.Fatalf("rows = %v, %v (%s)", res, err, sql)
	}
}

func TestConjunctionWithoutOrStaysAND(t *testing.T) {
	db := shopDB(t)
	k := New(db, invindex.Build(db, lexicon.New()))
	// Same column, no "or": naive keyword conjunction (unsatisfiable).
	ins, err := k.Interpret("customers Berlin Munich")
	if err != nil {
		t.Fatal(err)
	}
	best, _ := nlq.Best(ins)
	if strings.Contains(best.SQL.String(), "IN (") {
		t.Fatalf("AND reading lost: %s", best.SQL)
	}
	res, err := sqlexec.New(db).Run(best.SQL)
	if err != nil || len(res.Rows) != 0 {
		t.Fatalf("conjunction over one column should be empty: %v", res)
	}
}

func TestDeterminism(t *testing.T) {
	db := shopDB(t)
	k := New(db, invindex.Build(db, lexicon.New()))
	a, err := k.Interpret("corporate customers in Berlin")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := k.Interpret("corporate customers in Berlin")
	if len(a) != len(b) || a[0].SQL.String() != b[0].SQL.String() {
		t.Fatal("nondeterministic interpretation")
	}
	// Two value filters conjoin.
	if !strings.Contains(a[0].SQL.String(), "AND") {
		t.Fatalf("expected two filters: %s", a[0].SQL)
	}
}
