package sqlexec

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"nlidb/internal/qcache"
	"nlidb/internal/sqldata"
	"nlidb/internal/sqlparse"
)

// corpDB builds the shared fixture: departments and employees.
func corpDB(t testing.TB) *sqldata.Database {
	t.Helper()
	db := sqldata.NewDatabase("corp")
	dept, err := db.CreateTable(&sqldata.Schema{
		Name: "department",
		Columns: []sqldata.Column{
			{Name: "id", Type: sqldata.TypeInt, PrimaryKey: true},
			{Name: "name", Type: sqldata.TypeText},
			{Name: "budget", Type: sqldata.TypeFloat},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	dept.MustInsert(sqldata.NewInt(1), sqldata.NewText("engineering"), sqldata.NewFloat(500000))
	dept.MustInsert(sqldata.NewInt(2), sqldata.NewText("sales"), sqldata.NewFloat(300000))
	dept.MustInsert(sqldata.NewInt(3), sqldata.NewText("hr"), sqldata.NewFloat(100000))
	dept.MustInsert(sqldata.NewInt(4), sqldata.NewText("empty_dept"), sqldata.NewFloat(50000))

	emp, err := db.CreateTable(&sqldata.Schema{
		Name: "employee",
		Columns: []sqldata.Column{
			{Name: "id", Type: sqldata.TypeInt, PrimaryKey: true},
			{Name: "name", Type: sqldata.TypeText},
			{Name: "salary", Type: sqldata.TypeFloat},
			{Name: "dept_id", Type: sqldata.TypeInt},
			{Name: "hired", Type: sqldata.TypeDate},
		},
		ForeignKeys: []sqldata.ForeignKey{{Column: "dept_id", RefTable: "department", RefColumn: "id"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ins := func(id int64, name string, sal float64, dept int64, hired string) {
		d, err := sqldata.ParseDate(hired)
		if err != nil {
			t.Fatal(err)
		}
		emp.MustInsert(sqldata.NewInt(id), sqldata.NewText(name), sqldata.NewFloat(sal), sqldata.NewInt(dept), d)
	}
	ins(1, "alice", 120000, 1, "2015-02-10")
	ins(2, "bob", 95000, 1, "2017-06-01")
	ins(3, "carol", 105000, 1, "2019-09-15")
	ins(4, "dan", 60000, 2, "2018-01-20")
	ins(5, "erin", 72000, 2, "2020-11-05")
	ins(6, "frank", 50000, 3, "2012-03-30")
	// One employee with NULL salary and no department.
	emp.MustInsert(sqldata.NewInt(7), sqldata.NewText("grace"), sqldata.NullValue(), sqldata.NullValue(), sqldata.NewDate(2021, 1, 1))
	return db
}

func runQ(t testing.TB, db *sqldata.Database, sql string) *sqldata.Result {
	t.Helper()
	res, err := New(db).RunSQL(sql)
	if err != nil {
		t.Fatalf("RunSQL(%q): %v", sql, err)
	}
	return res
}

func ints(res *sqldata.Result) []int64 {
	var out []int64
	for _, r := range res.Rows {
		out = append(out, r[0].Int())
	}
	return out
}

func texts(res *sqldata.Result) []string {
	var out []string
	for _, r := range res.Rows {
		out = append(out, r[0].String())
	}
	return out
}

func TestSimpleSelection(t *testing.T) {
	db := corpDB(t)
	res := runQ(t, db, "SELECT name FROM employee WHERE salary > 90000")
	got := texts(res)
	if len(got) != 3 {
		t.Fatalf("rows = %v", got)
	}
	want := map[string]bool{"alice": true, "bob": true, "carol": true}
	for _, n := range got {
		if !want[n] {
			t.Errorf("unexpected row %q", n)
		}
	}
}

func TestProjectionAndStar(t *testing.T) {
	db := corpDB(t)
	res := runQ(t, db, "SELECT * FROM department")
	if len(res.Columns) != 3 || len(res.Rows) != 4 {
		t.Fatalf("star: %d cols %d rows", len(res.Columns), len(res.Rows))
	}
	res = runQ(t, db, "SELECT e.* FROM employee AS e WHERE e.id = 1")
	if len(res.Columns) != 5 || res.Rows[0][1].Text() != "alice" {
		t.Fatalf("qualified star: %v", res)
	}
	res = runQ(t, db, "SELECT salary * 2 AS double_pay FROM employee WHERE id = 1")
	if res.Columns[0] != "double_pay" || res.Rows[0][0].Float() != 240000 {
		t.Fatalf("arithmetic projection: %v", res)
	}
}

func TestWherePredicates(t *testing.T) {
	db := corpDB(t)
	cases := []struct {
		sql  string
		want int
	}{
		{"SELECT id FROM employee WHERE name LIKE 'a%'", 1},
		{"SELECT id FROM employee WHERE name LIKE '%a%'", 5}, // alice carol dan frank grace
		{"SELECT id FROM employee WHERE name NOT LIKE '%a%'", 2},
		{"SELECT id FROM employee WHERE salary BETWEEN 60000 AND 100000", 3},
		{"SELECT id FROM employee WHERE salary NOT BETWEEN 60000 AND 100000", 3}, // NULL excluded
		{"SELECT id FROM employee WHERE dept_id IN (1, 3)", 4},
		{"SELECT id FROM employee WHERE dept_id NOT IN (1, 3)", 2},
		{"SELECT id FROM employee WHERE salary IS NULL", 1},
		{"SELECT id FROM employee WHERE salary IS NOT NULL", 6},
		{"SELECT id FROM employee WHERE NOT (salary > 90000)", 3}, // NULL row drops
		{"SELECT id FROM employee WHERE salary > 90000 AND dept_id = 1", 3},
		{"SELECT id FROM employee WHERE salary < 60000 OR salary > 110000", 2},
		{"SELECT id FROM employee WHERE hired > '2018-01-01'", 4}, // text coerces to date
	}
	for _, c := range cases {
		res := runQ(t, db, c.sql)
		if len(res.Rows) != c.want {
			t.Errorf("%q: got %d rows, want %d", c.sql, len(res.Rows), c.want)
		}
	}
}

func TestDateComparisons(t *testing.T) {
	db := corpDB(t)
	res := runQ(t, db, "SELECT id FROM employee WHERE hired BETWEEN '2017-01-01' AND '2019-12-31'")
	got := ints(res)
	if len(got) != 3 { // bob, carol, dan
		t.Fatalf("date BETWEEN = %v", got)
	}
	res = runQ(t, db, "SELECT id FROM employee WHERE hired = '2015-02-10'")
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 1 {
		t.Errorf("date equality = %v", res.Rows)
	}
}

func TestAggregatesGlobal(t *testing.T) {
	db := corpDB(t)
	res := runQ(t, db, "SELECT COUNT(*), COUNT(salary), SUM(salary), AVG(salary), MIN(salary), MAX(salary) FROM employee")
	r := res.Rows[0]
	if r[0].Int() != 7 {
		t.Errorf("COUNT(*) = %v", r[0])
	}
	if r[1].Int() != 6 {
		t.Errorf("COUNT(salary) = %v (NULL must be skipped)", r[1])
	}
	if r[2].Float() != 502000 {
		t.Errorf("SUM = %v", r[2])
	}
	if got := r[3].Float(); got < 83666 || got > 83667 {
		t.Errorf("AVG = %v", r[3])
	}
	if r[4].Float() != 50000 || r[5].Float() != 120000 {
		t.Errorf("MIN/MAX = %v/%v", r[4], r[5])
	}
}

func TestAggregateEmptyInput(t *testing.T) {
	db := corpDB(t)
	res := runQ(t, db, "SELECT COUNT(*), SUM(salary) FROM employee WHERE id > 999")
	if res.Rows[0][0].Int() != 0 {
		t.Errorf("COUNT(*) over empty = %v", res.Rows[0][0])
	}
	if !res.Rows[0][1].Null {
		t.Errorf("SUM over empty = %v, want NULL", res.Rows[0][1])
	}
}

func TestCountDistinct(t *testing.T) {
	db := corpDB(t)
	res := runQ(t, db, "SELECT COUNT(DISTINCT dept_id) FROM employee")
	if res.Rows[0][0].Int() != 3 {
		t.Errorf("COUNT(DISTINCT dept_id) = %v, want 3", res.Rows[0][0])
	}
}

func TestGroupByHavingOrder(t *testing.T) {
	db := corpDB(t)
	res := runQ(t, db, `SELECT dept_id, COUNT(*) AS n, AVG(salary) AS avg_sal
		FROM employee WHERE dept_id IS NOT NULL
		GROUP BY dept_id HAVING COUNT(*) >= 2 ORDER BY avg_sal DESC`)
	if len(res.Rows) != 2 {
		t.Fatalf("groups = %d, want 2: %v", len(res.Rows), res)
	}
	if res.Rows[0][0].Int() != 1 || res.Rows[1][0].Int() != 2 {
		t.Errorf("order by avg desc wrong: %v", res)
	}
	if res.Rows[0][1].Int() != 3 {
		t.Errorf("count for dept 1 = %v", res.Rows[0][1])
	}
}

func TestOrderByWithNullsAndLimit(t *testing.T) {
	db := corpDB(t)
	res := runQ(t, db, "SELECT id FROM employee ORDER BY salary ASC")
	got := ints(res)
	if got[0] != 7 { // NULL sorts first ascending
		t.Errorf("NULL should sort first asc: %v", got)
	}
	res = runQ(t, db, "SELECT id FROM employee ORDER BY salary DESC LIMIT 2")
	got = ints(res)
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("top-2 by salary = %v", got)
	}
}

func TestOrderByMultipleKeys(t *testing.T) {
	db := corpDB(t)
	res := runQ(t, db, "SELECT id FROM employee WHERE dept_id IS NOT NULL ORDER BY dept_id ASC, salary DESC")
	got := ints(res)
	want := []int64{1, 3, 2, 5, 4, 6}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("multi-key order = %v, want %v", got, want)
		}
	}
}

func TestDistinct(t *testing.T) {
	db := corpDB(t)
	res := runQ(t, db, "SELECT DISTINCT dept_id FROM employee WHERE dept_id IS NOT NULL")
	if len(res.Rows) != 3 {
		t.Errorf("distinct dept_id = %d rows", len(res.Rows))
	}
}

func TestInnerJoin(t *testing.T) {
	db := corpDB(t)
	res := runQ(t, db, `SELECT e.name, d.name FROM employee AS e
		JOIN department AS d ON e.dept_id = d.id WHERE d.name = 'engineering'`)
	if len(res.Rows) != 3 {
		t.Fatalf("join rows = %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r[1].Text() != "engineering" {
			t.Errorf("wrong dept: %v", r)
		}
	}
}

func TestLeftJoin(t *testing.T) {
	db := corpDB(t)
	res := runQ(t, db, `SELECT d.name, e.name FROM department AS d
		LEFT JOIN employee AS e ON e.dept_id = d.id ORDER BY d.id ASC`)
	// engineering×3 + sales×2 + hr×1 + empty_dept×1(padded) = 7
	if len(res.Rows) != 7 {
		t.Fatalf("left join rows = %d", len(res.Rows))
	}
	last := res.Rows[6]
	if last[0].Text() != "empty_dept" || !last[1].Null {
		t.Errorf("unmatched left row not NULL-padded: %v", last)
	}
}

func TestCommaJoin(t *testing.T) {
	db := corpDB(t)
	res := runQ(t, db, "SELECT e.name FROM employee e, department d WHERE e.dept_id = d.id AND d.name = 'sales'")
	if len(res.Rows) != 2 {
		t.Errorf("comma join rows = %d", len(res.Rows))
	}
}

func TestThreeWayJoin(t *testing.T) {
	db := corpDB(t)
	// Self-join through department: peers in the same dept as alice.
	res := runQ(t, db, `SELECT p.name FROM employee AS e
		JOIN department AS d ON e.dept_id = d.id
		JOIN employee AS p ON p.dept_id = d.id
		WHERE e.name = 'alice' AND p.name != 'alice'`)
	got := texts(res)
	if len(got) != 2 {
		t.Fatalf("peers = %v", got)
	}
}

func TestScalarSubquery(t *testing.T) {
	db := corpDB(t)
	res := runQ(t, db, "SELECT name FROM employee WHERE salary > (SELECT AVG(salary) FROM employee)")
	got := texts(res)
	if len(got) != 3 {
		t.Fatalf("above-average = %v", got)
	}
}

func TestInSubquery(t *testing.T) {
	db := corpDB(t)
	res := runQ(t, db, "SELECT name FROM employee WHERE dept_id IN (SELECT id FROM department WHERE budget > 250000)")
	if len(res.Rows) != 5 {
		t.Fatalf("in-subquery rows = %d", len(res.Rows))
	}
	res = runQ(t, db, "SELECT name FROM department WHERE id NOT IN (SELECT dept_id FROM employee WHERE dept_id IS NOT NULL)")
	got := texts(res)
	if len(got) != 1 || got[0] != "empty_dept" {
		t.Fatalf("not-in = %v", got)
	}
}

func TestCorrelatedExists(t *testing.T) {
	db := corpDB(t)
	res := runQ(t, db, `SELECT d.name FROM department AS d WHERE EXISTS
		(SELECT id FROM employee WHERE employee.dept_id = d.id AND employee.salary > 100000)`)
	got := texts(res)
	if len(got) != 1 || got[0] != "engineering" {
		t.Fatalf("correlated exists = %v", got)
	}
	res = runQ(t, db, `SELECT d.name FROM department AS d WHERE NOT EXISTS
		(SELECT id FROM employee WHERE employee.dept_id = d.id)`)
	got = texts(res)
	if len(got) != 1 || got[0] != "empty_dept" {
		t.Fatalf("not exists = %v", got)
	}
}

func TestCorrelatedScalarSubquery(t *testing.T) {
	db := corpDB(t)
	// Employees earning above their own department's average.
	res := runQ(t, db, `SELECT e.name FROM employee AS e WHERE e.salary >
		(SELECT AVG(salary) FROM employee WHERE employee.dept_id = e.dept_id)`)
	got := texts(res)
	want := map[string]bool{"alice": true, "erin": true}
	if len(got) != 2 || !want[got[0]] || !want[got[1]] {
		t.Fatalf("above own dept average = %v", got)
	}
}

func TestNestedTwoLevels(t *testing.T) {
	db := corpDB(t)
	res := runQ(t, db, `SELECT name FROM department WHERE id IN
		(SELECT dept_id FROM employee WHERE salary >
			(SELECT AVG(salary) FROM employee))`)
	got := texts(res)
	if len(got) != 1 || got[0] != "engineering" {
		t.Fatalf("two-level nesting = %v", got)
	}
}

func TestScalarFunctions(t *testing.T) {
	db := corpDB(t)
	res := runQ(t, db, "SELECT UPPER(name), LOWER(name), ABS(salary - 100000), YEAR(hired) FROM employee WHERE id = 2")
	r := res.Rows[0]
	if r[0].Text() != "BOB" || r[1].Text() != "bob" || r[2].Float() != 5000 || r[3].Int() != 2017 {
		t.Fatalf("scalar funcs = %v", r)
	}
}

func TestGroupByExpression(t *testing.T) {
	db := corpDB(t)
	res := runQ(t, db, "SELECT YEAR(hired), COUNT(*) FROM employee GROUP BY YEAR(hired) ORDER BY YEAR(hired) ASC")
	if len(res.Rows) != 7 {
		t.Fatalf("group by expr rows = %d", len(res.Rows))
	}
	if res.Rows[0][0].Int() != 2012 {
		t.Errorf("first year = %v", res.Rows[0][0])
	}
}

func TestErrors(t *testing.T) {
	db := corpDB(t)
	bad := []string{
		"SELECT x FROM nosuch",
		"SELECT nosuch FROM employee",
		"SELECT name FROM employee WHERE salary + name > 1",
		"SELECT name FROM employee HAVING COUNT(*) > 1 WHERE id = 1", // clause order
		"SELECT id FROM employee JOIN employee ON 1 = 1",             // dup name, no alias
		"SELECT SUM(*) FROM employee",
		"SELECT name FROM employee WHERE id IN (SELECT id, name FROM employee)",
		"SELECT name FROM employee WHERE salary > (SELECT salary FROM employee)", // >1 row
		"SELECT id FROM employee, department WHERE id = 1",                       // ambiguous id
	}
	for _, sql := range bad {
		if _, err := New(db).RunSQL(sql); err == nil {
			t.Errorf("%q: expected error", sql)
		}
	}
}

func TestDivisionByZeroYieldsNull(t *testing.T) {
	db := corpDB(t)
	res := runQ(t, db, "SELECT salary / 0 FROM employee WHERE id = 1")
	if !res.Rows[0][0].Null {
		t.Errorf("x/0 = %v, want NULL", res.Rows[0][0])
	}
}

// Property: LIMIT n never yields more than n rows and is a prefix of the
// unlimited ordered result.
func TestPropertyLimitPrefix(t *testing.T) {
	db := corpDB(t)
	eng := New(db)
	f := func(nRaw uint8) bool {
		n := int(nRaw % 10)
		full, err := eng.RunSQL("SELECT id FROM employee ORDER BY id ASC")
		if err != nil {
			return false
		}
		limited, err := eng.RunSQL(sqlparse.MustParse("SELECT id FROM employee ORDER BY id ASC").String() + " LIMIT " + string(rune('0'+n)))
		if err != nil {
			return false
		}
		if len(limited.Rows) > n {
			return false
		}
		for i := range limited.Rows {
			if limited.Rows[i][0].Int() != full.Rows[i][0].Int() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: WHERE with a randomly generated conjunction returns a subset of
// the unfiltered rows, and adding conjuncts never grows the result.
func TestPropertyFilterMonotone(t *testing.T) {
	db := corpDB(t)
	eng := New(db)
	conds := []string{
		"salary > 60000", "salary < 100000", "dept_id = 1", "dept_id != 2",
		"name LIKE '%a%'", "id <= 5", "salary IS NOT NULL",
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 1 + r.Intn(3)
		picked := make([]string, 0, k)
		for i := 0; i < k; i++ {
			picked = append(picked, conds[r.Intn(len(conds))])
		}
		q1 := "SELECT id FROM employee WHERE " + strings.Join(picked, " AND ")
		res1, err := eng.RunSQL(q1)
		if err != nil {
			return false
		}
		q2 := q1 + " AND id < 4"
		res2, err := eng.RunSQL(q2)
		if err != nil {
			return false
		}
		return len(res2.Rows) <= len(res1.Rows)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: GROUP BY COUNT(*) sums to the filtered row count.
func TestPropertyGroupCountsSum(t *testing.T) {
	db := corpDB(t)
	eng := New(db)
	res, err := eng.RunSQL("SELECT dept_id, COUNT(*) FROM employee GROUP BY dept_id")
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, r := range res.Rows {
		sum += r[1].Int()
	}
	if sum != 7 {
		t.Errorf("group counts sum to %d, want 7", sum)
	}
}

// TestPlanCacheKeysOnExactStatement: statements that differ only in the
// case of an alias or a column name are one statement to the canonical
// form but carry different output headers, so each gets its own plan;
// asking one again still hits.
func TestPlanCacheKeysOnExactStatement(t *testing.T) {
	db := corpDB(t)
	e := NewWithPlanCache(db, qcache.New(qcache.Config{MaxEntries: 16}))
	for _, sqls := range [][]string{
		{"SELECT COUNT(*) AS Total FROM employee", "SELECT COUNT(*) AS total FROM employee"},
		{"SELECT Name FROM employee", "SELECT name FROM employee"},
	} {
		for round := 0; round < 2; round++ {
			for _, sql := range sqls {
				stmt := sqlparse.MustParse(sql)
				p, hit, err := e.PrepareCached(stmt)
				if err != nil {
					t.Fatal(err)
				}
				if hit != (round == 1) {
					t.Errorf("%s: round %d hit = %v", sql, round, hit)
				}
				fresh, err := e.Prepare(stmt)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := p.Columns(), fresh.Columns(); !reflect.DeepEqual(got, want) {
					t.Errorf("%s: cached plan's header %v, a fresh plan's %v", sql, got, want)
				}
			}
		}
	}
}
