package patternnl

import (
	"strings"
	"testing"

	"nlidb/internal/invindex"
	"nlidb/internal/lexicon"
	"nlidb/internal/nlq"
	"nlidb/internal/sqldata"
	"nlidb/internal/sqlexec"
)

func hrDB(t testing.TB) *sqldata.Database {
	t.Helper()
	db := sqldata.NewDatabase("hr")
	e, err := db.CreateTable(&sqldata.Schema{
		Name: "employee",
		Columns: []sqldata.Column{
			{Name: "id", Type: sqldata.TypeInt, PrimaryKey: true},
			{Name: "name", Type: sqldata.TypeText},
			{Name: "salary", Type: sqldata.TypeFloat, Synonyms: []string{"pay"}},
			{Name: "dept", Type: sqldata.TypeText, Synonyms: []string{"department"}},
			{Name: "age", Type: sqldata.TypeInt},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := []struct {
		id   int64
		name string
		sal  float64
		dept string
		age  int64
	}{
		{1, "ann", 120, "eng", 34},
		{2, "bob", 80, "eng", 28},
		{3, "cyd", 60, "sales", 45},
		{4, "dee", 90, "sales", 31},
		{5, "eli", 70, "hr", 52},
	}
	for _, r := range rows {
		e.MustInsert(sqldata.NewInt(r.id), sqldata.NewText(r.name), sqldata.NewFloat(r.sal), sqldata.NewText(r.dept), sqldata.NewInt(r.age))
	}
	return db
}

func interpret(t *testing.T, db *sqldata.Database, q string) *sqldata.Result {
	t.Helper()
	in := New(db, invindex.Build(db, lexicon.New()))
	ins, err := in.Interpret(q)
	if err != nil {
		t.Fatalf("Interpret(%q): %v", q, err)
	}
	best, _ := nlq.Best(ins)
	t.Logf("%q → %s", q, best.SQL)
	res, err := sqlexec.New(db).Run(best.SQL)
	if err != nil {
		t.Fatalf("exec %s: %v", best.SQL, err)
	}
	return res
}

func TestCountPattern(t *testing.T) {
	db := hrDB(t)
	res := interpret(t, db, "how many employees are there")
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 5 {
		t.Fatalf("count = %v", res.Rows)
	}
}

func TestAvgPattern(t *testing.T) {
	db := hrDB(t)
	res := interpret(t, db, "what is the average salary of employees")
	if len(res.Rows) != 1 || res.Rows[0][0].Float() != 84 {
		t.Fatalf("avg = %v", res.Rows)
	}
}

func TestSumGroupByPattern(t *testing.T) {
	db := hrDB(t)
	res := interpret(t, db, "total salary of employees by dept")
	if len(res.Rows) != 3 {
		t.Fatalf("groups = %v", res.Rows)
	}
	var engTotal float64
	for _, r := range res.Rows {
		if r[0].Text() == "eng" {
			engTotal = r[1].Float()
		}
	}
	if engTotal != 200 {
		t.Fatalf("eng total = %v", engTotal)
	}
}

func TestGroupBySynonym(t *testing.T) {
	db := hrDB(t)
	res := interpret(t, db, "average pay per department")
	if len(res.Rows) != 3 {
		t.Fatalf("groups = %v", res.Rows)
	}
}

func TestMaxAggregate(t *testing.T) {
	db := hrDB(t)
	res := interpret(t, db, "what is the highest salary")
	if len(res.Rows) != 1 || res.Rows[0][0].Float() != 120 {
		t.Fatalf("max = %v", res.Rows)
	}
}

func TestTopKOrdering(t *testing.T) {
	db := hrDB(t)
	res := interpret(t, db, "top 2 employees by salary")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestSuperlativeAfterEntityIsOrdering(t *testing.T) {
	db := hrDB(t)
	in := New(db, invindex.Build(db, lexicon.New()))
	ins, err := in.Interpret("employees with the highest salary")
	if err != nil {
		t.Fatal(err)
	}
	best, _ := nlq.Best(ins)
	if best.SQL.HasAggregate() {
		t.Fatalf("should order, not aggregate: %s", best.SQL)
	}
	if len(best.SQL.OrderBy) != 1 || !best.SQL.OrderBy[0].Desc || best.SQL.Limit != 1 {
		t.Fatalf("ordering = %s", best.SQL)
	}
}

func TestComparisonPattern(t *testing.T) {
	db := hrDB(t)
	res := interpret(t, db, "employees with salary over 85")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestComparisonWithSynonymHint(t *testing.T) {
	db := hrDB(t)
	res := interpret(t, db, "employees with pay under 75")
	if len(res.Rows) != 2 { // cyd 60, eli 70
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestBetweenPattern(t *testing.T) {
	db := hrDB(t)
	res := interpret(t, db, "employees with age between 30 and 50")
	if len(res.Rows) != 3 { // ann 34, cyd 45, dee 31
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestValueAndComparisonCombined(t *testing.T) {
	db := hrDB(t)
	res := interpret(t, db, "eng employees with salary over 100")
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestCountWithFilter(t *testing.T) {
	db := hrDB(t)
	res := interpret(t, db, "how many employees in sales")
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 2 {
		t.Fatalf("count = %v", res.Rows)
	}
}

func TestPatternStaysSingleTable(t *testing.T) {
	db := hrDB(t)
	in := New(db, invindex.Build(db, lexicon.New()))
	ins, err := in.Interpret("average salary of employees by dept")
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range ins {
		if len(i.SQL.From.Joins) != 0 {
			t.Fatalf("pattern system joined: %s", i.SQL)
		}
		if len(i.SQL.Subqueries()) != 0 {
			t.Fatalf("pattern system nested: %s", i.SQL)
		}
	}
}

func TestCheapestSuperlative(t *testing.T) {
	db := hrDB(t)
	// "lowest paid employee" — superlative before column, after nothing.
	in := New(db, invindex.Build(db, lexicon.New()))
	ins, err := in.Interpret("employee with the lowest salary")
	if err != nil {
		t.Fatal(err)
	}
	best, _ := nlq.Best(ins)
	res, err := sqlexec.New(db).Run(best.SQL)
	if err != nil {
		t.Fatalf("exec: %v", err)
	}
	found := false
	for _, r := range res.Rows {
		for _, v := range r {
			if !v.Null && v.T == sqldata.TypeText && v.Text() == "cyd" {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("cyd not in result: %s → %v", best.SQL, res.Rows)
	}
}

func TestExplanationPresent(t *testing.T) {
	db := hrDB(t)
	in := New(db, invindex.Build(db, lexicon.New()))
	ins, err := in.Interpret("total salary by dept")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ins[0].Explanation, "aggregate") {
		t.Errorf("explanation = %q", ins[0].Explanation)
	}
}
