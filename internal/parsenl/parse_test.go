package parsenl

import (
	"strings"
	"testing"

	"nlidb/internal/invindex"
	"nlidb/internal/lexicon"
	"nlidb/internal/nlq"
	"nlidb/internal/sqldata"
	"nlidb/internal/sqlexec"
)

// corpDB: department ← employee, plus project ← assignment → employee.
func corpDB(t testing.TB) *sqldata.Database {
	t.Helper()
	db := sqldata.NewDatabase("corp")
	mk := func(s *sqldata.Schema) *sqldata.Table {
		tbl, err := db.CreateTable(s)
		if err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	dept := mk(&sqldata.Schema{Name: "department", Synonyms: []string{"dept"}, Columns: []sqldata.Column{
		{Name: "id", Type: sqldata.TypeInt, PrimaryKey: true},
		{Name: "name", Type: sqldata.TypeText},
		{Name: "budget", Type: sqldata.TypeFloat},
	}})
	emp := mk(&sqldata.Schema{Name: "employee", Columns: []sqldata.Column{
		{Name: "id", Type: sqldata.TypeInt, PrimaryKey: true},
		{Name: "name", Type: sqldata.TypeText},
		{Name: "salary", Type: sqldata.TypeFloat},
		{Name: "dept_id", Type: sqldata.TypeInt},
	}, ForeignKeys: []sqldata.ForeignKey{{Column: "dept_id", RefTable: "department", RefColumn: "id"}}})
	proj := mk(&sqldata.Schema{Name: "project", Columns: []sqldata.Column{
		{Name: "id", Type: sqldata.TypeInt, PrimaryKey: true},
		{Name: "title", Type: sqldata.TypeText},
	}})
	asg := mk(&sqldata.Schema{Name: "assignment", Columns: []sqldata.Column{
		{Name: "id", Type: sqldata.TypeInt, PrimaryKey: true},
		{Name: "employee_id", Type: sqldata.TypeInt},
		{Name: "project_id", Type: sqldata.TypeInt},
		{Name: "hours", Type: sqldata.TypeInt},
	}, ForeignKeys: []sqldata.ForeignKey{
		{Column: "employee_id", RefTable: "employee", RefColumn: "id"},
		{Column: "project_id", RefTable: "project", RefColumn: "id"},
	}})

	dept.MustInsert(sqldata.NewInt(1), sqldata.NewText("engineering"), sqldata.NewFloat(900))
	dept.MustInsert(sqldata.NewInt(2), sqldata.NewText("marketing"), sqldata.NewFloat(300))
	emp.MustInsert(sqldata.NewInt(1), sqldata.NewText("ann"), sqldata.NewFloat(120), sqldata.NewInt(1))
	emp.MustInsert(sqldata.NewInt(2), sqldata.NewText("bob"), sqldata.NewFloat(80), sqldata.NewInt(1))
	emp.MustInsert(sqldata.NewInt(3), sqldata.NewText("cyd"), sqldata.NewFloat(60), sqldata.NewInt(2))
	proj.MustInsert(sqldata.NewInt(1), sqldata.NewText("apollo"))
	proj.MustInsert(sqldata.NewInt(2), sqldata.NewText("zephyr"))
	asg.MustInsert(sqldata.NewInt(1), sqldata.NewInt(1), sqldata.NewInt(1), sqldata.NewInt(30))
	asg.MustInsert(sqldata.NewInt(2), sqldata.NewInt(2), sqldata.NewInt(1), sqldata.NewInt(20))
	asg.MustInsert(sqldata.NewInt(3), sqldata.NewInt(3), sqldata.NewInt(2), sqldata.NewInt(10))
	return db
}

func run(t *testing.T, db *sqldata.Database, q string) *sqldata.Result {
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

func TestJoinThroughValueFilter(t *testing.T) {
	db := corpDB(t)
	res := run(t, db, "employees in the engineering department")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestJoinGeneratesJoinSQL(t *testing.T) {
	db := corpDB(t)
	in := New(db, invindex.Build(db, lexicon.New()))
	ins, err := in.Interpret("employees in the engineering department")
	if err != nil {
		t.Fatal(err)
	}
	best, _ := nlq.Best(ins)
	if len(best.SQL.From.Joins) == 0 {
		t.Fatalf("no join inferred: %s", best.SQL)
	}
	if nlq.Classify(best.SQL) != nlq.Join {
		t.Fatalf("class = %v", nlq.Classify(best.SQL))
	}
}

func TestTwoHopJoin(t *testing.T) {
	db := corpDB(t)
	// employee—assignment—project path.
	res := run(t, db, "employees on the project apollo")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestAggregationOverJoin(t *testing.T) {
	db := corpDB(t)
	res := run(t, db, "average salary of employees in the engineering department")
	if len(res.Rows) != 1 || res.Rows[0][0].Float() != 100 {
		t.Fatalf("avg = %v", res.Rows)
	}
}

func TestGroupByJoinedTable(t *testing.T) {
	db := corpDB(t)
	res := run(t, db, "count of employees per department")
	if len(res.Rows) != 2 {
		t.Fatalf("groups = %v", res.Rows)
	}
}

func TestSingleTableStillWorks(t *testing.T) {
	db := corpDB(t)
	res := run(t, db, "employees with salary over 100")
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestNoNesting(t *testing.T) {
	db := corpDB(t)
	in := New(db, invindex.Build(db, lexicon.New()))
	// A question that truly needs nesting; parse family must not nest.
	ins, err := in.Interpret("employees with salary above the average salary")
	if err != nil {
		return // refusing is acceptable for the class-3 family
	}
	for _, i := range ins {
		if len(i.SQL.Subqueries()) != 0 {
			t.Fatalf("parse family nested: %s", i.SQL)
		}
	}
}

func TestClarificationOnAmbiguity(t *testing.T) {
	db := corpDB(t)
	// Add an ambiguous value: a project titled "ann" (same as employee name).
	db.Table("project").MustInsert(sqldata.NewInt(3), sqldata.NewText("ann"))
	in := New(db, invindex.Build(db, lexicon.New()))
	ins, err := in.Interpret("show ann")
	if err != nil {
		t.Fatal(err)
	}
	if len(ins) < 2 {
		t.Fatalf("ambiguity not surfaced: %d readings", len(ins))
	}
	if ins[0].Clarification == nil || len(ins[0].Clarification.Options) < 2 {
		t.Fatalf("no clarification: %+v", ins[0])
	}
}

func TestQueryLogPriors(t *testing.T) {
	db := corpDB(t)
	in := New(db, invindex.Build(db, lexicon.New()))
	if in.Graph() == nil {
		t.Fatal("graph not exposed")
	}
	// Priors must not break interpretation.
	in.Graph().ApplyQueryLog(nil, 0.5, 0.1)
	if _, err := in.Interpret("employees in the engineering department"); err != nil {
		t.Fatal(err)
	}
}

func TestTopKOverJoin(t *testing.T) {
	db := corpDB(t)
	in := New(db, invindex.Build(db, lexicon.New()))
	ins, err := in.Interpret("top 2 employees by salary")
	if err != nil {
		t.Fatal(err)
	}
	best, _ := nlq.Best(ins)
	if best.SQL.Limit != 2 || len(best.SQL.OrderBy) != 1 {
		t.Fatalf("topk = %s", best.SQL)
	}
	res, err := sqlexec.New(db).Run(best.SQL)
	if err != nil || len(res.Rows) != 2 {
		t.Fatalf("res = %v, %v", res, err)
	}
}

func TestJoinAlternativesExpand(t *testing.T) {
	// Parallel FKs (hop → airport twice) must yield alternative readings
	// with a relationship clarification.
	db := sqldata.NewDatabase("air")
	mk := func(s *sqldata.Schema) *sqldata.Table {
		tbl, err := db.CreateTable(s)
		if err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	ap := mk(&sqldata.Schema{Name: "airport", Columns: []sqldata.Column{
		{Name: "id", Type: sqldata.TypeInt, PrimaryKey: true},
		{Name: "name", Type: sqldata.TypeText},
	}})
	hop := mk(&sqldata.Schema{Name: "hop", Columns: []sqldata.Column{
		{Name: "id", Type: sqldata.TypeInt, PrimaryKey: true},
		{Name: "code", Type: sqldata.TypeText},
		{Name: "origin_id", Type: sqldata.TypeInt},
		{Name: "dest_id", Type: sqldata.TypeInt},
	}, ForeignKeys: []sqldata.ForeignKey{
		{Column: "origin_id", RefTable: "airport", RefColumn: "id"},
		{Column: "dest_id", RefTable: "airport", RefColumn: "id"},
	}})
	ap.MustInsert(sqldata.NewInt(1), sqldata.NewText("tegel"))
	ap.MustInsert(sqldata.NewInt(2), sqldata.NewText("riem"))
	hop.MustInsert(sqldata.NewInt(1), sqldata.NewText("h1"), sqldata.NewInt(1), sqldata.NewInt(2))

	in := New(db, invindex.Build(db, lexicon.New()))
	if in.Name() != "parse" {
		t.Errorf("name = %s", in.Name())
	}
	ins, err := in.Interpret("hops of the airport tegel")
	if err != nil {
		t.Fatal(err)
	}
	if len(ins) < 2 {
		t.Fatalf("parallel-FK ambiguity not expanded: %d readings", len(ins))
	}
	if ins[0].Clarification == nil || len(ins[0].Clarification.Options) < 2 {
		t.Fatalf("relationship clarification missing: %+v", ins[0])
	}
	// The two readings must use different join columns.
	a, b := ins[0].SQL.String(), ins[1].SQL.String()
	if a == b {
		t.Fatalf("alternative readings identical: %s", a)
	}
	for _, i := range ins[:2] {
		if _, err := sqlexec.New(db).Run(i.SQL); err != nil {
			t.Errorf("reading fails to execute: %s: %v", i.SQL, err)
		}
	}
}

func TestLeadingKExtraction(t *testing.T) {
	db := corpDB(t)
	in := New(db, invindex.Build(db, lexicon.New()))
	ins, err := in.Interpret("3 employees with the highest salary")
	if err != nil {
		t.Fatal(err)
	}
	best, _ := nlq.Best(ins)
	if best.SQL.Limit != 3 {
		t.Fatalf("leading K not extracted: %s", best.SQL)
	}
}

func TestExplanations(t *testing.T) {
	db := corpDB(t)
	in := New(db, invindex.Build(db, lexicon.New()))
	ins, err := in.Interpret("employees in the engineering department")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ins[0].Explanation, "focus") {
		t.Errorf("explanation = %q", ins[0].Explanation)
	}
}
