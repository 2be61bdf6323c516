package sqlexec

import (
	"context"
	"strings"
	"testing"

	"nlidb/internal/sqlparse"
)

func TestExplainSimple(t *testing.T) {
	db := corpDB(t)
	eng := New(db)
	plan, err := eng.Explain(sqlparse.MustParse("SELECT name FROM employee WHERE salary > 100"))
	if err != nil {
		t.Fatal(err)
	}
	// salary > 100 is statically safe, so the planner pushes it into the scan.
	for _, frag := range []string{"Project [name]", "Scan employee (7 rows) [filter: salary > 100]"} {
		if !strings.Contains(plan, frag) {
			t.Errorf("plan missing %q:\n%s", frag, plan)
		}
	}
}

func TestExplainFullPipeline(t *testing.T) {
	db := corpDB(t)
	eng := New(db)
	plan, err := eng.Explain(sqlparse.MustParse(
		`SELECT dept_id, COUNT(*) FROM employee WHERE salary > 1
		 GROUP BY dept_id HAVING COUNT(*) > 1 ORDER BY dept_id ASC LIMIT 3`))
	if err != nil {
		t.Fatal(err)
	}
	// Physical order, outermost first; the WHERE conjunct is pushed into
	// the scan rather than appearing as a separate Filter.
	order := []string{"Limit 3", "Sort", "Project", "Having", "HashGroupBy", "Scan", "[filter: salary > 1]"}
	last := -1
	for _, frag := range order {
		idx := strings.Index(plan, frag)
		if idx < 0 {
			t.Fatalf("plan missing %q:\n%s", frag, plan)
		}
		if idx < last {
			t.Fatalf("operator %q out of order:\n%s", frag, plan)
		}
		last = idx
	}
}

func TestExplainJoinAndSubquery(t *testing.T) {
	db := corpDB(t)
	eng := New(db)
	plan, err := eng.Explain(sqlparse.MustParse(
		`SELECT e.name FROM employee AS e JOIN department AS d ON e.dept_id = d.id
		 WHERE e.salary > (SELECT AVG(salary) FROM employee)`))
	if err != nil {
		t.Fatal(err)
	}
	// dept_id = id is an INT/INT equi-pair, so the join runs as a hash
	// join; the sub-query conjunct is unsafe to push and stays a Filter.
	for _, frag := range []string{"HashJoin", "Scan employee", "Scan department",
		"Filter (e.salary > (SELECT AVG(salary) FROM employee))", "Subquery 1:", "Aggregate (global)"} {
		if !strings.Contains(plan, frag) {
			t.Errorf("plan missing %q:\n%s", frag, plan)
		}
	}
}

func TestExplainLeftJoinAndErrors(t *testing.T) {
	db := corpDB(t)
	eng := New(db)
	plan, err := eng.Explain(sqlparse.MustParse(
		"SELECT d.name FROM department AS d LEFT JOIN employee AS e ON e.dept_id = d.id"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "HashLeftJoin") {
		t.Errorf("left join not shown:\n%s", plan)
	}
	if _, err := eng.Explain(nil); err == nil {
		t.Error("nil statement accepted")
	}
	if _, err := eng.Explain(sqlparse.MustParse("SELECT x FROM nope")); err == nil {
		t.Error("unknown table accepted")
	}
}

func TestExplainNonEquiJoinFallsBack(t *testing.T) {
	db := corpDB(t)
	eng := New(db)
	plan, err := eng.Explain(sqlparse.MustParse(
		"SELECT e.name FROM employee AS e JOIN department AS d ON e.salary > d.budget"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "NestedLoopJoin (e.salary > d.budget)") {
		t.Errorf("non-equi join should fall back to nested loop:\n%s", plan)
	}
}

func TestExplainAnalyzeRowCounts(t *testing.T) {
	db := corpDB(t)
	eng := New(db)
	stmt := sqlparse.MustParse(
		"SELECT e.name FROM employee AS e JOIN department AS d ON e.dept_id = d.id WHERE e.salary > 100")
	plan, res, err := eng.ExplainAnalyze(context.Background(), stmt, DefaultBudget())
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || len(res.Rows) == 0 {
		t.Fatalf("no result rows: %v", res)
	}
	for _, frag := range []string{"HashJoin", "rows="} {
		if !strings.Contains(plan, frag) {
			t.Errorf("analyze output missing %q:\n%s", frag, plan)
		}
	}
	// The join's observed output must appear as a rows= annotation on the
	// HashJoin line.
	for _, line := range strings.Split(plan, "\n") {
		if strings.Contains(line, "HashJoin") && !strings.Contains(line, "rows=") {
			t.Errorf("HashJoin line lacks rows=: %q", line)
		}
	}
}

// TestExplainNamesWhatRuns: a bounded ORDER BY says topk=<k> on its Sort
// line (a DISTINCT one does not: it sorts everything), a vectorized
// plan's group and join lines name the word each key is hashed as, its
// filtered scans say how many conjuncts are compiled kernels, and EXPLAIN
// ANALYZE says agg=fused on a join that aggregated as it probed.
func TestExplainNamesWhatRuns(t *testing.T) {
	eng := New(corpDB(t))
	cases := []struct {
		sql      string
		want     []string
		wantNone []string
	}{
		{
			sql:  "SELECT name, COUNT(*) FROM employee GROUP BY name ORDER BY COUNT(*) DESC LIMIT 3",
			want: []string{"Sort [COUNT(*) DESC] topk=3", "HashGroupBy [name] keys=code"},
		},
		{
			sql:  "SELECT d.name, e.salary, COUNT(*) FROM employee AS e JOIN department AS d ON e.dept_id = d.id GROUP BY d.name, e.salary",
			want: []string{"HashGroupBy [d.name, e.salary] keys=fold(code,float)", "HashJoin (e.dept_id = d.id) keys=int"},
		},
		{
			sql:  "SELECT e.name FROM employee AS e JOIN department AS d ON e.salary = d.id ORDER BY e.name",
			want: []string{"HashJoin (e.salary = d.id) keys=int", "Sort [e.name ASC]"},
			// No LIMIT: a full sort.
			wantNone: []string{"topk="},
		},
		{
			sql:      "SELECT DISTINCT dept_id FROM employee ORDER BY dept_id LIMIT 2",
			want:     []string{"Sort [dept_id ASC]"},
			wantNone: []string{"topk="},
		},
		{
			// Column-vs-literal conjuncts of every shape are kernels, on
			// either side of a join; arithmetic on the column is not.
			sql: "SELECT e.name FROM employee AS e JOIN department AS d ON e.dept_id = d.id " +
				"WHERE 100 < e.salary AND e.name LIKE 'a%' AND e.dept_id IN (1, 2) AND e.salary + 1 > 5 AND d.name != 'hr' AND d.budget IS NOT NULL",
			want: []string{
				"[filter: 100 < e.salary AND e.name LIKE 'a%' AND e.dept_id IN (1, 2) AND (e.salary + 1) > 5] kernel=3/4",
				"[filter: d.name != 'hr' AND d.budget IS NOT NULL] kernel=2/2",
			},
		},
		{
			// A sub-query keeps the statement on the row executor, whose
			// keys are strings and whose filters are interpreted: neither
			// is claimed.
			sql:      "SELECT dept_id, COUNT(*) FROM employee WHERE dept_id > 1 AND salary > (SELECT AVG(salary) FROM employee) GROUP BY dept_id",
			want:     []string{"HashGroupBy [dept_id]", "[filter: dept_id > 1]"},
			wantNone: []string{"keys=", "kernel="},
		},
	}
	for _, tc := range cases {
		plan, err := eng.Explain(sqlparse.MustParse(tc.sql))
		if err != nil {
			t.Fatal(err)
		}
		for _, frag := range tc.want {
			if !strings.Contains(plan, frag) {
				t.Errorf("%s\nplan missing %q:\n%s", tc.sql, frag, plan)
			}
		}
		for _, frag := range tc.wantNone {
			if strings.Contains(plan, frag) {
				t.Errorf("%s\nplan must not contain %q:\n%s", tc.sql, frag, plan)
			}
		}
	}
	// EXPLAIN ANALYZE keeps rows= after the representation.
	plan, _, err := eng.ExplainAnalyze(context.Background(),
		sqlparse.MustParse("SELECT name FROM employee ORDER BY salary DESC LIMIT 2"), DefaultBudget())
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"Limit 2 rows=2", "topk=2", "Project [name] rows=7"} {
		if !strings.Contains(plan, frag) {
			t.Errorf("analyze output missing %q:\n%s", frag, plan)
		}
	}
	// EXPLAIN ANALYZE marks a join that aggregated as it probed, in either
	// orientation; a LEFT JOIN never does, and plain EXPLAIN, which ran
	// nothing, claims it for none.
	for _, tc := range []struct {
		sql, want string
	}{
		{"SELECT d.name, COUNT(*), AVG(e.salary) FROM department AS d JOIN employee AS e ON d.id = e.dept_id GROUP BY d.name",
			"HashJoin (d.id = e.dept_id) keys=int agg=fused rows=6"},
		{"SELECT d.name, MAX(e.hired) FROM employee AS e JOIN department AS d ON e.dept_id = d.id GROUP BY d.name",
			"HashJoin (e.dept_id = d.id) keys=int agg=fused rows=6"},
		{"SELECT d.name, COUNT(e.id) FROM department AS d LEFT JOIN employee AS e ON d.id = e.dept_id GROUP BY d.name", ""},
	} {
		stmt := sqlparse.MustParse(tc.sql)
		plan, _, err := eng.ExplainAnalyze(context.Background(), stmt, DefaultBudget())
		if err != nil {
			t.Fatal(err)
		}
		if tc.want != "" && !strings.Contains(plan, tc.want) {
			t.Errorf("%s\nanalyze output missing %q:\n%s", tc.sql, tc.want, plan)
		}
		if tc.want == "" && strings.Contains(plan, "agg=") {
			t.Errorf("%s\nanalyze output claims a fused join:\n%s", tc.sql, plan)
		}
		if plain, err := eng.Explain(stmt); err != nil || strings.Contains(plain, "agg=") {
			t.Errorf("%s\nplain EXPLAIN claims a fused join (err %v):\n%s", tc.sql, err, plain)
		}
	}
}
