package plan

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"nlidb/internal/sqldata"
	"nlidb/internal/sqlparse"
)

func mustPrepare(t testing.TB, db *sqldata.Database, sql string) *Plan {
	t.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	p, err := Prepare(db, stmt)
	if err != nil {
		t.Fatalf("prepare %q: %v", sql, err)
	}
	return p
}

// mustPrepareRow is mustPrepare without the compiled vectorized form: the
// plan runs on the row-at-a-time executor.
func mustPrepareRow(t testing.TB, db *sqldata.Database, sql string) *Plan {
	t.Helper()
	p := mustPrepare(t, db, sql)
	p.vec = nil
	return p
}

// TestVectorizedEligibility pins which plan shapes compile to the
// vectorized engine and which fall back to the row executor.
func TestVectorizedEligibility(t *testing.T) {
	db := fuzzDB()
	vectorized := []string{
		"SELECT name FROM customer WHERE city = 'Berlin'",
		"SELECT * FROM orders WHERE total > 100.5 AND status != 'done'",
		"SELECT city, COUNT(*) FROM customer GROUP BY city ORDER BY COUNT(*) DESC LIMIT 3",
		"SELECT AVG(total) FROM orders",
		"SELECT customer.name, SUM(orders.total) FROM customer JOIN orders ON customer.id = orders.customer_id GROUP BY customer.name",
		"SELECT p.name FROM product AS p LEFT JOIN category AS c ON p.category_id = c.id WHERE c.name IS NOT NULL",
		"SELECT DISTINCT LOWER(name) FROM customer WHERE name LIKE 'a%' OR credit BETWEEN 1 AND 2",
		"SELECT status, COUNT(DISTINCT customer_id) FROM orders GROUP BY status ORDER BY status",
	}
	for _, sql := range vectorized {
		if p := mustPrepare(t, db, sql); !p.Vectorized() {
			t.Errorf("expected vectorized plan for %q", sql)
		}
	}
	fallback := []string{
		// Subqueries always run on the row executor.
		"SELECT name FROM customer WHERE id IN (SELECT customer_id FROM orders)",
		"SELECT name FROM customer WHERE EXISTS (SELECT id FROM orders WHERE orders.customer_id = customer.id)",
		// Non-equi join: nested loop, not vectorizable.
		"SELECT c.name FROM customer AS c JOIN orders AS o ON c.credit > o.total",
	}
	for _, sql := range fallback {
		if p := mustPrepare(t, db, sql); p.Vectorized() {
			t.Errorf("expected row-executor fallback for %q", sql)
		}
	}
}

// TestVectorizedDifferential runs representative statements through both
// executors and requires identical results, usage metering, and operator
// statistics.
func TestVectorizedDifferential(t *testing.T) {
	db := fuzzDB()
	ctx := context.Background()
	queries := []string{
		"SELECT name, credit FROM customer",
		"SELECT name FROM customer WHERE city = 'Berlin' AND credit > 100",
		"SELECT name, credit * 2 FROM customer WHERE credit BETWEEN 0 AND 1000 ORDER BY credit DESC",
		"SELECT UPPER(city) FROM customer WHERE city IS NOT NULL ORDER BY city",
		"SELECT name FROM customer WHERE city IN ('Berlin', 'Oslo') OR credit < 0",
		"SELECT COUNT(*), SUM(credit), MIN(credit), MAX(credit), AVG(credit) FROM customer",
		"SELECT city, COUNT(*), AVG(credit) FROM customer GROUP BY city ORDER BY city",
		"SELECT c.name, o.total FROM customer AS c JOIN orders AS o ON c.id = o.customer_id WHERE o.total > 50 ORDER BY o.total",
		"SELECT c.name, o.total FROM customer AS c LEFT JOIN orders AS o ON c.id = o.customer_id ORDER BY c.name",
		"SELECT c.city, SUM(o.total) FROM customer AS c JOIN orders AS o ON c.id = o.customer_id GROUP BY c.city HAVING SUM(o.total) > 10 ORDER BY c.city",
		"SELECT COUNT(*) FROM customer AS c JOIN orders AS o ON c.id = o.customer_id JOIN product AS p ON o.id = p.id",
		"SELECT status, COUNT(DISTINCT customer_id) FROM orders GROUP BY status ORDER BY status",
		"SELECT DISTINCT city FROM customer ORDER BY city LIMIT 2",
		"SELECT name FROM customer WHERE name LIKE '%a%' ORDER BY name",
	}
	for _, sql := range queries {
		vp := mustPrepare(t, db, sql)
		rp := mustPrepareRow(t, db, sql)
		if !vp.Vectorized() {
			t.Errorf("expected vectorized plan for %q", sql)
			continue
		}
		vRes, vu, vStats, vErr := vp.RunStats(ctx, DefaultBudget())
		rRes, ru, _, rErr := rp.RunStats(ctx, DefaultBudget())
		if vErr != nil || rErr != nil {
			t.Errorf("%q: vec err=%v row err=%v", sql, vErr, rErr)
			continue
		}
		if !sameResult(vRes, rRes) {
			t.Errorf("result mismatch for %q:\nrow: %v\nvec: %v", sql, rRes.Rows, vRes.Rows)
		}
		if vu != ru {
			t.Errorf("usage mismatch for %q: row %+v vec %+v", sql, ru, vu)
		}
		if vStats == nil {
			t.Errorf("%q: RunStats returned nil stats", sql)
		}
	}
}

// TestVecSumOverflowPromotes exercises the integer-SUM overflow
// promotion (satellite fix) on the vectorized aggregate path: sums that
// exceed int64 range must promote to float instead of wrapping, while
// sums that land exactly on the boundary stay exact integers.
func TestVecSumOverflowPromotes(t *testing.T) {
	db := sqldata.NewDatabase("ovf")
	tab, err := db.CreateTable(&sqldata.Schema{
		Name: "t",
		Columns: []sqldata.Column{
			{Name: "g", Type: sqldata.TypeInt},
			{Name: "x", Type: sqldata.TypeInt},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Group 1 overflows (MaxInt64 + 10); group 2 lands exactly on
	// MaxInt64; group 3 cancels back into range after an intermediate
	// overflow.
	tab.MustInsert(sqldata.NewInt(1), sqldata.NewInt(math.MaxInt64))
	tab.MustInsert(sqldata.NewInt(1), sqldata.NewInt(10))
	tab.MustInsert(sqldata.NewInt(2), sqldata.NewInt(math.MaxInt64-5))
	tab.MustInsert(sqldata.NewInt(2), sqldata.NewInt(5))
	tab.MustInsert(sqldata.NewInt(3), sqldata.NewInt(math.MaxInt64))
	tab.MustInsert(sqldata.NewInt(3), sqldata.NewInt(math.MaxInt64))
	tab.MustInsert(sqldata.NewInt(3), sqldata.NewInt(math.MinInt64))

	ctx := context.Background()
	sql := "SELECT g, SUM(x) FROM t GROUP BY g ORDER BY g"
	vp := mustPrepare(t, db, sql)
	if !vp.Vectorized() {
		t.Fatalf("expected vectorized plan for %q", sql)
	}
	vRes, _, vErr := vp.Run(ctx, DefaultBudget())
	if vErr != nil {
		t.Fatal(vErr)
	}
	rp := mustPrepareRow(t, db, sql)
	rRes, _, rErr := rp.Run(ctx, DefaultBudget())
	if rErr != nil {
		t.Fatal(rErr)
	}
	if !sameResult(vRes, rRes) {
		t.Fatalf("overflow semantics diverge:\nrow: %v\nvec: %v", rRes.Rows, vRes.Rows)
	}

	want := []sqldata.Value{
		sqldata.NewFloat(float64(math.MaxInt64) + 10), // promoted
		sqldata.NewInt(math.MaxInt64),                 // exact boundary stays int
		sqldata.NewInt(math.MaxInt64 - 1),             // intermediate overflow cancels
	}
	if len(vRes.Rows) != len(want) {
		t.Fatalf("got %d groups, want %d: %v", len(vRes.Rows), len(want), vRes.Rows)
	}
	for i, w := range want {
		got := vRes.Rows[i][1]
		if got.Null || got.T != w.T || got.Key() != w.Key() {
			t.Errorf("group %d: SUM = %v (type %v), want %v", i+1, got, got.T, w)
		}
	}
}

// TestVecExplainAnalyze checks that EXPLAIN ANALYZE output pairs actual
// row counts with the cost model's estimates.
func TestVecExplainAnalyze(t *testing.T) {
	db := fuzzDB()
	sql := "SELECT city, COUNT(*) FROM customer WHERE credit > 0 GROUP BY city"
	p := mustPrepare(t, db, sql)
	_, _, stats, err := p.RunStats(context.Background(), DefaultBudget())
	if err != nil {
		t.Fatal(err)
	}
	out := p.ExplainStats(stats)
	if !strings.Contains(out, "rows=") {
		t.Fatalf("ExplainStats missing actual row counts:\n%s", out)
	}
	if !strings.Contains(out, "est=") {
		t.Fatalf("ExplainStats missing cost estimates:\n%s", out)
	}
	// Plain EXPLAIN must not grow est=/rows= annotations.
	plain := p.Explain()
	if strings.Contains(plain, "est=") || strings.Contains(plain, "rows=") {
		t.Fatalf("Explain must not carry runtime annotations:\n%s", plain)
	}
}

// TestVecBudgetParity requires the vectorized executor to trip the same
// budgets the row executor does.
func TestVecBudgetParity(t *testing.T) {
	db := fuzzDB()
	ctx := context.Background()
	cases := []struct {
		sql string
		b   Budget
	}{
		{"SELECT name FROM customer", Budget{MaxRows: 3}},
		{"SELECT c.name, o.total FROM customer AS c JOIN orders AS o ON c.id = o.customer_id", Budget{MaxRows: 1 << 20, MaxJoinRows: 2}},
		// fused joins charge their rows before aggregating, in either orientation
		{"SELECT c.name, COUNT(*) FROM customer AS c JOIN orders AS o ON c.id = o.customer_id GROUP BY c.name", Budget{MaxRows: 1 << 20, MaxJoinRows: 2}},
		{"SELECT c.name, SUM(o.total) FROM orders AS o JOIN customer AS c ON o.customer_id = c.id GROUP BY c.name", Budget{MaxRows: 1 << 20, MaxJoinRows: 2}},
	}
	for _, tc := range cases {
		vp := mustPrepare(t, db, tc.sql)
		if !vp.Vectorized() {
			t.Fatalf("expected vectorized plan for %q", tc.sql)
		}
		_, _, vErr := vp.Run(ctx, tc.b)
		rp := mustPrepareRow(t, db, tc.sql)
		_, _, rErr := rp.Run(ctx, tc.b)
		vb, vOK := vErr.(*BudgetError)
		rb, rOK := rErr.(*BudgetError)
		if !vOK || !rOK {
			t.Fatalf("%q: expected budget errors, got vec=%v row=%v", tc.sql, vErr, rErr)
		}
		if vb.Resource != rb.Resource {
			t.Errorf("%q: budget resource mismatch vec=%s row=%s", tc.sql, vb.Resource, rb.Resource)
		}
	}
}

// TestVecWrittenJoinOrder runs a global aggregate over a three-table chain
// whose last join is by far the most selective (c keeps one row), so
// joining c first would charge 21 join rows where the written order
// charges 420. Both executors must join in the written order: the same
// rows, the same Usage, and under a join budget between the two figures
// the same refusal.
func TestVecWrittenJoinOrder(t *testing.T) {
	db := sqldata.NewDatabase("chain")
	mk := func(name string, cols ...string) *sqldata.Table {
		s := &sqldata.Schema{Name: name}
		for _, c := range cols {
			s.Columns = append(s.Columns, sqldata.Column{Name: c, Type: sqldata.TypeInt})
		}
		tab, err := db.CreateTable(s)
		if err != nil {
			t.Fatal(err)
		}
		return tab
	}
	a, b, c := mk("a", "x", "y"), mk("b", "x"), mk("c", "y", "flag")
	for i := int64(0); i < 20; i++ {
		a.MustInsert(sqldata.NewInt(i%2), sqldata.NewInt(i))
		c.MustInsert(sqldata.NewInt(i), sqldata.NewInt(int64(b2i(i == 7))))
	}
	for i := int64(0); i < 40; i++ {
		b.MustInsert(sqldata.NewInt(i % 2))
	}
	const sql = "SELECT COUNT(*) FROM a JOIN b ON a.x = b.x JOIN c ON a.y = c.y WHERE c.flag = 1"
	ctx := context.Background()
	vp := mustPrepare(t, db, sql)
	if !vp.Vectorized() {
		t.Fatalf("expected vectorized plan for %q", sql)
	}
	rp := mustPrepareRow(t, db, sql)

	vRes, vu, vErr := vp.Run(ctx, DefaultBudget())
	rRes, ru, rErr := rp.Run(ctx, DefaultBudget())
	if vErr != nil || rErr != nil {
		t.Fatalf("vec err %v, row err %v", vErr, rErr)
	}
	if !sameResult(vRes, rRes) || len(vRes.Rows) != 1 || vRes.Rows[0][0].Int() != 20 {
		t.Fatalf("rows differ or wrong: vec %v row %v, want [[20]]", vRes.Rows, rRes.Rows)
	}
	if vu != ru || vu.JoinRows != 420 {
		t.Fatalf("usage vec %+v row %+v, want equal with 420 join rows", vu, ru)
	}

	b100 := Budget{MaxJoinRows: 100}
	_, _, vErr = vp.Run(ctx, b100)
	_, _, rErr = rp.Run(ctx, b100)
	var vb, rb *BudgetError
	if !errors.As(vErr, &vb) || !errors.As(rErr, &rb) || *vb != *rb {
		t.Fatalf("under %+v: vec %v, row %v; want the same budget refusal", b100, vErr, rErr)
	}
	if vb.Resource != "join rows" || vb.Limit != 100 {
		t.Fatalf("refusal %v, want join rows limit 100", vb)
	}
}

// TestVecStatsDrivenChoices sanity-checks the cost model's planner
// outputs on a skewed dataset: estimates exist for every operator and
// the hash-join build side lands on the smaller input.
func TestVecStatsDrivenChoices(t *testing.T) {
	db := sqldata.NewDatabase("skew")
	big, err := db.CreateTable(&sqldata.Schema{
		Name: "fact",
		Columns: []sqldata.Column{
			{Name: "k", Type: sqldata.TypeInt},
			{Name: "v", Type: sqldata.TypeInt},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		big.MustInsert(sqldata.NewInt(int64(i%10)), sqldata.NewInt(int64(i)))
	}
	small, err := db.CreateTable(&sqldata.Schema{
		Name: "dim",
		Columns: []sqldata.Column{
			{Name: "k", Type: sqldata.TypeInt},
			{Name: "label", Type: sqldata.TypeText},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		small.MustInsert(sqldata.NewInt(int64(i)), sqldata.NewText(strings.Repeat("x", i+1)))
	}

	// fact is on the left: with the dim side tiny, the planner should
	// keep building on the right (the default), not on the 1000-row
	// probe side.
	p := mustPrepare(t, db, "SELECT SUM(fact.v) FROM fact JOIN dim ON fact.k = dim.k")
	if !p.Vectorized() {
		t.Fatal("expected vectorized plan")
	}
	if p.vec.joins[0].buildLeft {
		t.Error("build side should stay on the small right table")
	}
	// dim on the left: now the left side is the cheap build side.
	p2 := mustPrepare(t, db, "SELECT SUM(fact.v) FROM dim JOIN fact ON dim.k = fact.k")
	if !p2.Vectorized() {
		t.Fatal("expected vectorized plan")
	}
	if !p2.vec.joins[0].buildLeft {
		t.Error("build side should move to the small left table")
	}
	// Estimates populated for the scan under both plans.
	if p.est == nil || p.est[p.vec.scan0.nid] != 1000 {
		t.Errorf("scan estimate = %v, want 1000", p.est)
	}

	// And the estimates agree with reality on an unfiltered scan.
	_, _, stats, err := p.RunStats(context.Background(), DefaultBudget())
	if err != nil {
		t.Fatal(err)
	}
	out := p.ExplainStats(stats)
	if !strings.Contains(out, "rows=1000 est=1000") {
		t.Errorf("expected exact scan estimate in:\n%s", out)
	}
}

// collidingFloat is integral and in int64 range, and int64(collidingFloat)
// equals the IEEE bits of 1.5: a float key reduced carelessly (the equal
// integer for one, the bits for the other) would merge the two.
const collidingFloat = 4609434218613702656.0

// keysDB is the typed-key fixture: a fact table whose columns hold every
// awkward key value (NULL text, NULL/wide/negative ints, a FLOAT column
// with -0, 0, two NaNs, 2.0 and the colliding pair, nullable BOOL) and a
// smaller dimension whose text dictionary only partly overlaps the
// fact's, so joins see keys from both sides that the other never has.
func keysDB() *sqldata.Database {
	db := sqldata.NewDatabase("keys")
	null := sqldata.NullValue()
	text := func(s string) sqldata.Value {
		if s == "" {
			return null
		}
		return sqldata.NewText(s)
	}
	t, err := db.CreateTable(&sqldata.Schema{Name: "t", Columns: []sqldata.Column{
		{Name: "id", Type: sqldata.TypeInt, PrimaryKey: true},
		{Name: "s", Type: sqldata.TypeText},
		{Name: "s2", Type: sqldata.TypeText},
		{Name: "n", Type: sqldata.TypeInt},
		{Name: "f", Type: sqldata.TypeFloat},
		{Name: "b", Type: sqldata.TypeBool},
		{Name: "d", Type: sqldata.TypeDate},
	}})
	if err != nil {
		panic(err)
	}
	negZero := math.Copysign(0, -1)
	floats := []sqldata.Value{
		sqldata.NewFloat(negZero), sqldata.NewFloat(0), sqldata.NewFloat(math.NaN()),
		sqldata.NewFloat(2), sqldata.NewFloat(collidingFloat), sqldata.NewFloat(1.5),
		sqldata.NewFloat(-math.NaN()), null, sqldata.NewFloat(2), sqldata.NewFloat(-7.25),
		sqldata.NewFloat(1e300), sqldata.NewFloat(3),
	}
	ints := []sqldata.Value{
		sqldata.NewInt(1), sqldata.NewInt(2), null, sqldata.NewInt(1 << 40), sqldata.NewInt(-(1 << 41)),
		sqldata.NewInt(2), sqldata.NewInt(int64(collidingFloat)), sqldata.NewInt(0), sqldata.NewInt(3),
	}
	ss := []string{"red", "green", "", "blue", "red", "green", "red"}
	s2 := []string{"x", "y", "x", "", "z"}
	bools := []sqldata.Value{sqldata.NewBool(true), sqldata.NewBool(false), null, sqldata.NewBool(true)}
	for i := 0; i < 36; i++ {
		t.MustInsert(sqldata.NewInt(int64(i+1)), text(ss[i%len(ss)]), text(s2[i%len(s2)]),
			ints[i%len(ints)], floats[i%len(floats)], bools[i%len(bools)],
			sqldata.NewDate(2020, time.Month(1+i%3), 1+i%2))
	}
	u, err := db.CreateTable(&sqldata.Schema{Name: "u", Columns: []sqldata.Column{
		{Name: "k", Type: sqldata.TypeInt},
		{Name: "name", Type: sqldata.TypeText},
		{Name: "fk", Type: sqldata.TypeFloat},
		{Name: "label", Type: sqldata.TypeText},
		{Name: "day", Type: sqldata.TypeDate},
	}})
	if err != nil {
		panic(err)
	}
	for i, r := range []struct {
		k     sqldata.Value
		name  string
		fk    sqldata.Value
		label string
	}{
		{sqldata.NewInt(2), "green", sqldata.NewFloat(2), "two"},
		{sqldata.NewInt(int64(collidingFloat)), "violet", sqldata.NewFloat(1.5), "big"},
		{null, "", sqldata.NewFloat(math.NaN()), "none"},
		{sqldata.NewInt(0), "red", sqldata.NewFloat(negZero), "zero"},
		{sqldata.NewInt(1 << 40), "amber", null, ""},
		{sqldata.NewInt(2), "green", sqldata.NewFloat(collidingFloat), "two again"},
		{sqldata.NewInt(77), "teal", sqldata.NewFloat(0.5), "miss"},
	} {
		u.MustInsert(r.k, text(r.name), r.fk, text(r.label), sqldata.NewDate(2020, time.Month(1+i%4), 1))
	}
	return db
}

// diffThreeWays runs sql through the naive tree-walker, the row executor
// and the vectorized executor and requires identical rows from all three
// and identical Usage from the two planned ones. It returns the
// vectorized plan.
func diffThreeWays(t *testing.T, db *sqldata.Database, sql string) *Plan {
	t.Helper()
	ctx := context.Background()
	vp := mustPrepare(t, db, sql)
	rp := mustPrepareRow(t, db, sql)
	if !vp.Vectorized() {
		t.Fatalf("expected a vectorized plan for %q", sql)
	}
	vRes, vu, vErr := vp.Run(ctx, DefaultBudget())
	rRes, ru, rErr := rp.Run(ctx, DefaultBudget())
	if vErr != nil || rErr != nil {
		t.Fatalf("%q: vec err=%v row err=%v", sql, vErr, rErr)
	}
	nRes, nErr := naiveRun(db, sqlparse.MustParse(sql), nil)
	if nErr != nil {
		t.Fatalf("%q: naive err=%v", sql, nErr)
	}
	if !sameResult(rRes, nRes) {
		t.Errorf("%q: row executor differs from naive:\nnaive: %v\nrow:   %v", sql, nRes.Rows, rRes.Rows)
	}
	if !sameResult(vRes, rRes) {
		t.Errorf("%q: vectorized differs from row executor:\nrow: %v\nvec: %v", sql, rRes.Rows, vRes.Rows)
	} else if diff := floatBitsDiff(rRes, vRes); diff != "" {
		t.Errorf("%q: vectorized float differs from row executor's in its bits: %s", sql, diff)
	}
	if vu != ru {
		t.Errorf("%q: usage differs: row %+v vec %+v", sql, ru, vu)
	}
	return vp
}

// floatBitsDiff names the first FLOAT cell of two results that sameResult
// calls equal whose bits differ (-0 against 0), or "". NaNs are not told
// apart: the compiler may evaluate a sum's x + y as y + x, which keeps the
// other operand's NaN, so a NaN's sign and payload differ between builds.
func floatBitsDiff(a, b *sqldata.Result) string {
	for i := range a.Rows {
		for j, v := range a.Rows[i] {
			w := b.Rows[i][j]
			if v.T == sqldata.TypeFloat && !v.Null && !math.IsNaN(v.Float()) && math.Float64bits(v.Float()) != math.Float64bits(w.Float()) {
				return fmt.Sprintf("row %d column %d: %#x against %#x", i, j, math.Float64bits(v.Float()), math.Float64bits(w.Float()))
			}
		}
	}
	return ""
}

// typedKeyQueries exercise every key shape of the typed-key paths:
// single/composite group keys of every type, NULL and LEFT JOIN pad
// keys, the FLOAT canonicalization corner cases, cross-type and
// cross-dictionary join keys on either build side, DISTINCT aggregates.
var typedKeyQueries = []string{
	// group keys
	"SELECT s, COUNT(*) FROM t GROUP BY s",
	"SELECT n, COUNT(*), MIN(id), MAX(s) FROM t GROUP BY n",
	"SELECT f, COUNT(*), MIN(id) FROM t GROUP BY f",
	"SELECT b, COUNT(*) FROM t GROUP BY b",
	"SELECT d, SUM(n) FROM t GROUP BY d",
	"SELECT s, n, COUNT(*) FROM t GROUP BY s, n",
	"SELECT s, s2, COUNT(*), AVG(f) FROM t GROUP BY s, s2",
	"SELECT f, b, COUNT(*) FROM t GROUP BY f, b",
	"SELECT s, n, f, b, COUNT(*) FROM t GROUP BY s, n, f, b",
	"SELECT LOWER(s), COUNT(*) FROM t GROUP BY LOWER(s)",
	"SELECT UPPER(s), s2, COUNT(*) FROM t GROUP BY UPPER(s), s2",
	"SELECT n + 1, COUNT(*) FROM t GROUP BY n + 1",
	"SELECT 1, COUNT(*) FROM t GROUP BY 1",
	"SELECT s, COUNT(*) FROM t WHERE id > 100 GROUP BY s",
	// LEFT JOIN null pads as group keys
	"SELECT u.label, COUNT(*) FROM t LEFT JOIN u ON t.n = u.k GROUP BY u.label",
	"SELECT u.name, u.k, COUNT(*) FROM t LEFT JOIN u ON t.s = u.name GROUP BY u.name, u.k",
	"SELECT u.fk, COUNT(*) FROM t LEFT JOIN u ON t.n = u.k AND u.fk > 1 GROUP BY u.fk",
	// join keys: INT, INT vs FLOAT both ways, FLOAT vs FLOAT, text across
	// dictionaries, DATE, composite; each from either side so both build
	// sides run.
	"SELECT t.id, u.label FROM t JOIN u ON t.n = u.k",
	"SELECT t.id, u.label FROM u JOIN t ON u.k = t.n",
	"SELECT t.id, u.k FROM t JOIN u ON t.f = u.k",
	"SELECT t.id, u.k FROM u JOIN t ON u.k = t.f",
	"SELECT t.id, u.fk FROM t JOIN u ON t.n = u.fk",
	"SELECT t.id, u.label FROM t JOIN u ON t.f = u.fk",
	"SELECT t.id, u.label FROM u JOIN t ON u.fk = t.f",
	"SELECT t.id, u.label FROM t JOIN u ON t.s = u.name",
	"SELECT t.id, u.label FROM u JOIN t ON u.name = t.s",
	"SELECT t.id, u.label FROM t JOIN u ON LOWER(t.s) = u.name",
	"SELECT t.id, u.label FROM t JOIN u ON t.d = u.day",
	"SELECT t.id, u.label FROM t JOIN u ON t.s = u.name AND t.n = u.k",
	"SELECT t.id, u.label FROM u JOIN t ON u.name = t.s AND u.k = t.n AND u.fk = t.f",
	"SELECT t.id, u.label FROM t LEFT JOIN u ON t.s = u.name AND t.n = u.k",
	"SELECT t.id, u.label FROM t JOIN u ON t.s = u.name AND u.fk > t.f",
	"SELECT t.id, u.label FROM t LEFT JOIN u ON t.n = u.k AND u.fk < t.f",
	"SELECT a.id, c.id FROM t AS a JOIN t AS c ON a.s = c.s2",
	"SELECT u.name, COUNT(*), SUM(t.f) FROM t JOIN u ON t.n = u.k WHERE t.id > 3 GROUP BY u.name",
	// DISTINCT aggregates
	"SELECT b, COUNT(DISTINCT s) FROM t GROUP BY b",
	"SELECT s, COUNT(DISTINCT f), SUM(DISTINCT n), MIN(DISTINCT f), AVG(DISTINCT f) FROM t GROUP BY s",
	"SELECT COUNT(DISTINCT s), COUNT(DISTINCT n), COUNT(DISTINCT f), COUNT(DISTINCT b), COUNT(DISTINCT d) FROM t",
	"SELECT u.label, COUNT(DISTINCT t.s2) FROM t LEFT JOIN u ON t.n = u.k GROUP BY u.label",
}

func TestTypedKeysDifferential(t *testing.T) {
	db := keysDB()
	for _, sql := range typedKeyQueries {
		diffThreeWays(t, db, sql)
	}
	fdb := fusedDB()
	for _, tc := range fusedQueries {
		p := diffThreeWays(t, fdb, tc.sql)
		_, _, stats, err := p.RunStats(context.Background(), DefaultBudget())
		if err != nil {
			t.Fatal(err)
		}
		if fused := slices.Contains(stats.fused, true); fused != tc.fused {
			t.Errorf("%q: ran fused %v, want %v", tc.sql, fused, tc.fused)
		}
	}
}

// fusedDB is the aggregate-through-join fixture: a host dimension whose
// first row and one other no metric references, with one NULL name and
// zones shared by several hosts; a zone table over it for a three-table
// chain; twin, whose ids repeat; none, which is empty; and a metric fact
// table with NULL and dangling foreign keys, NULL, -0, 0 and NaN measures,
// float measures whose sums depend on their order, and integers whose sum
// per zone leaves the int64 range.
func fusedDB() *sqldata.Database {
	r := rand.New(rand.NewSource(11))
	db := sqldata.NewDatabase("fused")
	null := sqldata.NullValue()
	mk := func(name string, cols ...sqldata.Column) *sqldata.Table {
		tab, err := db.CreateTable(&sqldata.Schema{Name: name, Columns: cols})
		if err != nil {
			panic(err)
		}
		return tab
	}
	intCol := func(n string) sqldata.Column { return sqldata.Column{Name: n, Type: sqldata.TypeInt} }
	textCol := func(n string) sqldata.Column { return sqldata.Column{Name: n, Type: sqldata.TypeText} }
	host := mk("host", intCol("id"), textCol("name"), textCol("zone"), intCol("cores"))
	zones := []string{"eu", "us", "ap"}
	for i, id := range []int64{99, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10} {
		name := sqldata.NewText(fmt.Sprintf("h%02d", id))
		if id == 7 {
			name = null
		}
		host.MustInsert(sqldata.NewInt(id), name, sqldata.NewText(zones[i%3]), sqldata.NewInt(int64(2<<(i%4))))
	}
	zone := mk("zone", textCol("code"), textCol("region"))
	for _, z := range [][2]string{{"eu", "europe"}, {"us", "america"}, {"ap", "asia"}} {
		zone.MustInsert(sqldata.NewText(z[0]), sqldata.NewText(z[1]))
	}
	twin := mk("twin", intCol("id"), textCol("label"))
	for _, tw := range []struct {
		id    int64
		label string
	}{{1, "a"}, {2, "b"}, {2, "c"}, {3, "d"}} {
		twin.MustInsert(sqldata.NewInt(tw.id), sqldata.NewText(tw.label))
	}
	mk("none", intCol("id"), textCol("label"))
	metric := mk("metric", intCol("id"), intCol("host_id"), textCol("kind"),
		sqldata.Column{Name: "cpu", Type: sqldata.TypeFloat}, intCol("rss"))
	kinds := []string{"cpu", "disk", "net", "mem"}
	for i := 0; i < 400; i++ {
		hostID := sqldata.NewInt(int64(1 + r.Intn(10)))
		switch {
		case hostID.Int() == 5: // host 5, like 99, is never referenced
			hostID = sqldata.NewInt(42)
		case i%37 == 0:
			hostID = null
		}
		cpu := sqldata.NewFloat(r.Float64() * 100)
		switch i % 23 {
		case 3:
			cpu = null
		case 5:
			cpu = sqldata.NewFloat(math.Copysign(0, -1))
		case 7:
			cpu = sqldata.NewFloat(0)
		case 11: // one host's: the other zones' float sums stay finite
			if !hostID.Null && hostID.Int() == 3 {
				cpu = sqldata.NewFloat(math.NaN())
			}
		}
		rss := sqldata.NewInt(int64(r.Intn(1 << 20)))
		switch {
		case i%19 == 4:
			rss = null
		case i%53 == 8:
			rss = sqldata.NewInt(math.MaxInt64 / 3)
		}
		metric.MustInsert(sqldata.NewInt(int64(i+1)), hostID, sqldata.NewText(kinds[r.Intn(len(kinds))]), cpu, rss)
	}
	return db
}

// fusedQueries are grouped joins over fusedDB and whether their last join
// aggregates as it probes: both orientations of the foreign-key join, an
// injective group (host.name) and a non-injective one (host.zone), every
// aggregate over INT, FLOAT and TEXT, and the shapes that must take the
// general path.
var fusedQueries = func() []struct {
	sql   string
	fused bool
} {
	const (
		dimFirst  = "FROM host JOIN metric ON host.id = metric.host_id"
		factFirst = "FROM metric JOIN host ON metric.host_id = host.id"
		exact     = "COUNT(*), COUNT(metric.cpu), SUM(metric.rss), MIN(metric.rss), MAX(metric.rss), MIN(metric.cpu), MAX(metric.cpu), MIN(metric.kind), MAX(metric.kind)"
		sums      = "SUM(metric.cpu), AVG(metric.cpu), AVG(metric.rss)"
	)
	var qs []struct {
		sql   string
		fused bool
	}
	add := func(fused bool, sql string) {
		qs = append(qs, struct {
			sql   string
			fused bool
		}{sql, fused})
	}
	for _, from := range []string{dimFirst, factFirst} {
		for _, g := range []string{"host.name", "host.zone", "host.cores", "LOWER(host.name)"} {
			add(true, fmt.Sprintf("SELECT %s, %s %s GROUP BY %s", g, exact, from, g))
		}
		add(true, fmt.Sprintf("SELECT host.name, %s %s GROUP BY host.name", sums, from))
		add(true, fmt.Sprintf("SELECT %s %s", exact, from))
		add(true, fmt.Sprintf("SELECT host.name, metric.kind, metric.id, COUNT(*), SUM(NULL), MAX(NULL) %s GROUP BY host.name", from))
		add(true, fmt.Sprintf("SELECT host.zone, SUM(metric.rss) %s WHERE metric.cpu > 20 GROUP BY host.zone HAVING COUNT(*) > 10 ORDER BY SUM(metric.rss) DESC", from))
		// general path: a DISTINCT aggregate, group keys on both sides, a
		// residual across the two tables, LEFT JOIN
		add(false, fmt.Sprintf("SELECT host.name, COUNT(DISTINCT metric.kind) %s GROUP BY host.name", from))
		add(false, fmt.Sprintf("SELECT host.name, metric.kind, COUNT(*) %s GROUP BY host.name, metric.kind", from))
		add(false, fmt.Sprintf("SELECT host.name, COUNT(*) %s WHERE host.cores * 1000 > metric.rss GROUP BY host.name", from))
	}
	// A float sum over a group of several keys adds up in tuple order only
	// on the general path; fact first, every group is accumulated in order.
	add(false, "SELECT host.zone, "+sums+" "+dimFirst+" GROUP BY host.zone")
	add(false, "SELECT "+sums+" "+dimFirst)
	add(true, "SELECT host.zone, "+sums+" "+factFirst+" GROUP BY host.zone")
	add(true, "SELECT "+sums+" "+factFirst)
	add(false, "SELECT host.name, COUNT(*), SUM(metric.cpu) FROM host LEFT JOIN metric ON host.id = metric.host_id GROUP BY host.name")
	// duplicate keys on the side the group keys read
	add(false, "SELECT twin.label, COUNT(*), SUM(metric.cpu) FROM twin JOIN metric ON twin.id = metric.host_id GROUP BY twin.label")
	add(false, "SELECT twin.label, COUNT(*), SUM(metric.cpu) FROM metric JOIN twin ON metric.host_id = twin.id GROUP BY twin.label")
	add(false, "SELECT COUNT(*), MAX(metric.rss) FROM twin JOIN metric ON twin.id = metric.host_id")
	// three-table chains: the last join fuses
	add(true, "SELECT zone.region, COUNT(*), SUM(metric.cpu) FROM metric JOIN host ON metric.host_id = host.id JOIN zone ON host.zone = zone.code GROUP BY zone.region")
	add(true, "SELECT zone.region, COUNT(*), MIN(metric.cpu) FROM zone JOIN host ON zone.code = host.zone JOIN metric ON host.id = metric.host_id GROUP BY zone.region")
	add(false, "SELECT zone.region, SUM(metric.cpu) FROM zone JOIN host ON zone.code = host.zone JOIN metric ON host.id = metric.host_id GROUP BY zone.region")
	// an empty side
	add(true, "SELECT host.name, COUNT(*), MAX(none.label) FROM host JOIN none ON host.id = none.id GROUP BY host.name")
	add(true, "SELECT none.label, COUNT(*), AVG(metric.cpu) FROM metric JOIN none ON metric.host_id = none.id GROUP BY none.label")
	return qs
}()

// TestFusedEmptyGlobalGroup: a global aggregate over a fused join that
// matches nothing still has its one group, of COUNT 0 and NULLs, in either
// orientation. (The naive evaluator fails on a global aggregate over an
// empty join, so only the two executors are compared.)
func TestFusedEmptyGlobalGroup(t *testing.T) {
	db := fusedDB()
	ctx := context.Background()
	for _, sql := range []string{
		"SELECT COUNT(*), MIN(none.label), SUM(none.id) FROM host JOIN none ON host.id = none.id",
		"SELECT COUNT(*), AVG(metric.cpu), MAX(metric.kind) FROM metric JOIN none ON metric.host_id = none.id",
	} {
		vRes, vu, stats, vErr := mustPrepare(t, db, sql).RunStats(ctx, DefaultBudget())
		rRes, ru, rErr := mustPrepareRow(t, db, sql).Run(ctx, DefaultBudget())
		if vErr != nil || rErr != nil {
			t.Fatalf("%q: vec err=%v row err=%v", sql, vErr, rErr)
		}
		if !sameResult(vRes, rRes) || vu != ru {
			t.Errorf("%q:\nrow: %v %+v\nvec: %v %+v", sql, rRes.Rows, ru, vRes.Rows, vu)
		}
		if got := fmt.Sprint(vRes.Rows); got != "[[0 NULL NULL]]" {
			t.Errorf("%q = %s, want [[0 NULL NULL]]", sql, got)
		}
		if !slices.Contains(stats.fused, true) {
			t.Errorf("%q: did not run fused", sql)
		}
	}
}

// TestFloatKeyCornerCases pins what the differential test can only call
// consistent: -0 and 0 are one group, the two NaNs one group, and 1.5
// stays apart from the integral float whose int64 value equals its bits —
// in GROUP BY, COUNT(DISTINCT) and an INT-vs-FLOAT join alike.
func TestFloatKeyCornerCases(t *testing.T) {
	db := keysDB()
	ctx := context.Background()
	run := func(sql string) *sqldata.Result {
		res, _, err := diffThreeWays(t, db, sql).Run(ctx, DefaultBudget())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// 12 slots cycle: -0 0 NaN 2 big 1.5 NaN NULL 2 -7.25 1e300 3, three times.
	got := map[string]string{}
	for _, r := range run("SELECT f, COUNT(*) FROM t GROUP BY f").Rows {
		got[r[0].Key()] = r[1].String()
	}
	want := map[string]string{
		sqldata.NewFloat(0).Key(): "6", sqldata.NewFloat(math.NaN()).Key(): "6", sqldata.NewFloat(2).Key(): "6",
		sqldata.NewFloat(collidingFloat).Key(): "3", sqldata.NewFloat(1.5).Key(): "3", sqldata.NullValue().Key(): "3",
		sqldata.NewFloat(-7.25).Key(): "3", sqldata.NewFloat(1e300).Key(): "3", sqldata.NewFloat(3).Key(): "3",
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("GROUP BY f:\n got %v\nwant %v", got, want)
	}
	if res := run("SELECT COUNT(DISTINCT f) FROM t"); res.Rows[0][0].String() != "8" {
		t.Errorf("COUNT(DISTINCT f) = %v, want 8", res.Rows[0][0])
	}
	// u.k holds int64(collidingFloat): it must join the three rows with
	// f = collidingFloat and none of the three with f = 1.5.
	res := run(fmt.Sprintf("SELECT t.f FROM t JOIN u ON t.f = u.k WHERE u.k = %d", int64(collidingFloat)))
	if len(res.Rows) != 3 {
		t.Fatalf("INT-vs-FLOAT join matched %d rows, want 3: %v", len(res.Rows), res.Rows)
	}
	for _, r := range res.Rows {
		if r[0].Float() != collidingFloat {
			t.Errorf("joined f = %v, want %v", r[0], collidingFloat)
		}
	}
}

// topKQueries are ORDER BY shapes over sortDB (heavy ties, NULL keys) and
// keysDB, each with the bound the tail is expected to choose (-1: full
// sort).
var topKQueries = []struct {
	sql  string
	topk int
}{
	{"SELECT id FROM entry ORDER BY rank LIMIT 3", 3},
	{"SELECT id FROM entry ORDER BY rank DESC LIMIT 3", 3},
	{"SELECT id, label FROM entry ORDER BY label LIMIT 4", 4},
	{"SELECT id, label FROM entry ORDER BY label DESC LIMIT 4", 4},
	{"SELECT id FROM entry ORDER BY rank ASC, label DESC LIMIT 5", 5},
	{"SELECT id FROM entry ORDER BY rank DESC, id ASC LIMIT 2", 2},
	{"SELECT id FROM entry ORDER BY rank LIMIT 0", 0},
	{"SELECT id FROM entry ORDER BY rank LIMIT 7", 7},
	{"SELECT id FROM entry ORDER BY rank LIMIT 100", 100},
	{"SELECT id FROM entry ORDER BY rank", -1},
	{"SELECT id FROM entry LIMIT 3", -1},
	{"SELECT id FROM entry LIMIT 0", -1},
	{"SELECT DISTINCT rank FROM entry ORDER BY rank DESC LIMIT 2", -1},
	{"SELECT DISTINCT label FROM entry ORDER BY label LIMIT 1", -1},
	{"SELECT id AS x FROM entry ORDER BY x DESC LIMIT 3", 3},
	{"SELECT rank, COUNT(*) AS c FROM entry GROUP BY rank ORDER BY c DESC LIMIT 2", 2},
	{"SELECT rank, COUNT(*) FROM entry GROUP BY rank ORDER BY COUNT(*) DESC, rank LIMIT 1", 1},
	{"SELECT label, MAX(rank) FROM entry GROUP BY label ORDER BY MAX(rank) DESC, label LIMIT 3", 3},
	{"SELECT rank, SUM(id) FROM entry GROUP BY rank ORDER BY SUM(id) / COUNT(*) LIMIT 2", -1},
}

func TestTopKDifferential(t *testing.T) {
	db := sortDB()
	for _, tc := range topKQueries {
		p := diffThreeWays(t, db, tc.sql)
		if p.topk != tc.topk {
			t.Errorf("%q: topk = %d, want %d", tc.sql, p.topk, tc.topk)
		}
	}
	kdb := keysDB()
	for _, sql := range []string{
		"SELECT id FROM t ORDER BY s LIMIT 9",
		"SELECT id FROM t ORDER BY s DESC, n LIMIT 9",
		"SELECT id FROM t ORDER BY f DESC, b, s2 LIMIT 11",
		"SELECT id FROM t ORDER BY b, d DESC LIMIT 20",
		"SELECT t.id, u.label FROM t LEFT JOIN u ON t.n = u.k ORDER BY u.label DESC, t.s LIMIT 10",
		"SELECT s, COUNT(*) FROM t GROUP BY s ORDER BY COUNT(*) LIMIT 2",
	} {
		diffThreeWays(t, kdb, sql)
	}
}

// TestTopKMatchesStableSort checks the bounded selection against
// sort.SliceStable directly, over random keys with few distinct values
// and every k from 0 past n.
func TestTopKMatchesStableSort(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := r.Intn(40)
		keys := make([]int, n)
		for i := range keys {
			keys[i] = r.Intn(4)
		}
		cmp := func(i, j int32) int { return keys[i] - keys[j] }
		want := make([]int32, n)
		for i := range want {
			want[i] = int32(i)
		}
		sortStable(want, cmp)
		for k := 0; k <= n+1; k++ {
			got := topK(n, k, cmp)
			if fmt.Sprint(got) != fmt.Sprint(want[:min(k, n)]) {
				t.Fatalf("n=%d k=%d keys=%v: got %v want %v", n, k, keys, got, want[:min(k, n)])
			}
		}
	}
}

func sortStable(pos []int32, cmp func(i, j int32) int) {
	for i := 1; i < len(pos); i++ { // insertion sort: stable by construction
		for j := i; j > 0 && cmp(pos[j-1], pos[j]) > 0; j-- {
			pos[j-1], pos[j] = pos[j], pos[j-1]
		}
	}
}

// randomKeysDB fills the keysDB schema with n random rows drawn from
// small domains (so groups, ties and join matches are plentiful), plus
// occasional wide integers so both the direct and the map key tables run.
func randomKeysDB(seed int64, n int) *sqldata.Database {
	r := rand.New(rand.NewSource(seed))
	db := sqldata.NewDatabase("rk")
	null := sqldata.NullValue()
	pick := func(vals ...sqldata.Value) sqldata.Value { return vals[r.Intn(len(vals))] }
	txt := func() sqldata.Value {
		return pick(null, sqldata.NewText("a"), sqldata.NewText("b"), sqldata.NewText("c"), sqldata.NewText("A"), sqldata.NewText(""))
	}
	num := func() sqldata.Value {
		return pick(null, sqldata.NewInt(0), sqldata.NewInt(1), sqldata.NewInt(2), sqldata.NewInt(-1),
			sqldata.NewInt(int64(r.Intn(5))<<40), sqldata.NewInt(int64(collidingFloat)))
	}
	flt := func() sqldata.Value {
		return pick(null, sqldata.NewFloat(0), sqldata.NewFloat(math.Copysign(0, -1)), sqldata.NewFloat(1), sqldata.NewFloat(2),
			sqldata.NewFloat(1.5), sqldata.NewFloat(collidingFloat), sqldata.NewFloat(math.NaN()), sqldata.NewFloat(float64(int64(1)<<40)))
	}
	t, err := db.CreateTable(&sqldata.Schema{Name: "t", Columns: []sqldata.Column{
		{Name: "id", Type: sqldata.TypeInt}, {Name: "s", Type: sqldata.TypeText}, {Name: "s2", Type: sqldata.TypeText},
		{Name: "n", Type: sqldata.TypeInt}, {Name: "f", Type: sqldata.TypeFloat}, {Name: "b", Type: sqldata.TypeBool},
	}})
	if err != nil {
		panic(err)
	}
	for i := 0; i < n; i++ {
		t.MustInsert(sqldata.NewInt(int64(i)), txt(), txt(), num(), flt(), pick(null, sqldata.NewBool(true), sqldata.NewBool(false)))
	}
	u, err := db.CreateTable(&sqldata.Schema{Name: "u", Columns: []sqldata.Column{
		{Name: "k", Type: sqldata.TypeInt}, {Name: "name", Type: sqldata.TypeText}, {Name: "fk", Type: sqldata.TypeFloat},
	}})
	if err != nil {
		panic(err)
	}
	for i := 0; i < 1+n/8; i++ {
		u.MustInsert(num(), pick(txt(), sqldata.NewText("z")), flt())
	}
	return db
}

// TestTypedKeysRandomized is the differential test over random data:
// sizes from empty to a few hundred rows, both join orders.
func TestTypedKeysRandomized(t *testing.T) {
	queries := []string{
		"SELECT s, COUNT(*), SUM(n), MIN(f), MAX(s2) FROM t GROUP BY s",
		"SELECT n, COUNT(*), COUNT(DISTINCT s), COUNT(DISTINCT f) FROM t GROUP BY n",
		"SELECT f, b, COUNT(*), AVG(n) FROM t GROUP BY f, b",
		"SELECT s, s2, n, COUNT(DISTINCT b) FROM t GROUP BY s, s2, n",
		"SELECT t.id, u.k FROM t JOIN u ON t.n = u.k",
		"SELECT t.id, u.k FROM u JOIN t ON u.k = t.n",
		"SELECT t.id, u.k FROM t JOIN u ON t.f = u.k",
		"SELECT t.id, u.fk FROM u JOIN t ON u.fk = t.n",
		"SELECT t.id, u.fk FROM t LEFT JOIN u ON t.f = u.fk",
		"SELECT t.id, u.name FROM t JOIN u ON t.s = u.name AND t.n = u.k",
		"SELECT t.id, u.name FROM u JOIN t ON u.name = t.s2 AND u.fk = t.f",
		"SELECT u.name, COUNT(*), SUM(t.f) FROM t LEFT JOIN u ON t.s = u.name GROUP BY u.name",
		"SELECT id FROM t ORDER BY n DESC, s LIMIT 7",
		"SELECT id, f FROM t WHERE b ORDER BY f, s2 DESC LIMIT 5",
		"SELECT s, COUNT(*) FROM t GROUP BY s ORDER BY COUNT(*) DESC LIMIT 2",
	}
	for seed := int64(1); seed <= 12; seed++ {
		db := randomKeysDB(seed, []int{0, 1, 7, 60, 300}[seed%5])
		for _, sql := range queries {
			diffThreeWays(t, db, sql)
		}
	}
}

// TestDictionaryFollowsInsert: the text dictionary is part of the column
// snapshot, so a row inserted with a never-seen value shows up as a new
// group on the next run of the same plan.
func TestDictionaryFollowsInsert(t *testing.T) {
	db := keysDB()
	sql := "SELECT s, COUNT(*) FROM t GROUP BY s"
	p := diffThreeWays(t, db, sql)
	before, _, err := p.Run(context.Background(), DefaultBudget())
	if err != nil {
		t.Fatal(err)
	}
	tab := db.Table("t")
	row := tab.Rows[0].Clone()
	row[1] = sqldata.NewText("ultraviolet")
	tab.MustInsert(row...)
	after, _, err := p.Run(context.Background(), DefaultBudget())
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Rows) != len(before.Rows)+1 {
		t.Fatalf("groups before %d, after %d; want one more", len(before.Rows), len(after.Rows))
	}
	last := after.Rows[len(after.Rows)-1]
	if last[0].String() != "ultraviolet" || last[1].String() != "1" {
		t.Errorf("new group = %v, want [ultraviolet 1]", last)
	}
	diffThreeWays(t, db, sql)
}

// scribbleArenas overwrites every pooled scratch buffer this goroutine
// can reach, as the next run through the pool would.
func scribbleArenas() {
	var held []*arena
	for i := 0; i < 4; i++ {
		a := getArena()
		for j := range a.i32.buf {
			a.i32.buf[j] = -7
		}
		for j := range a.i64.buf {
			a.i64.buf[j] = -7
		}
		for j := range a.f64.buf {
			a.f64.buf[j] = math.NaN()
		}
		for j := range a.b.buf {
			a.b.buf[j] = true
		}
		held = append(held, a)
	}
	for _, a := range held {
		a.release()
	}
}

// TestPooledScratchNotAliased runs different and identical plans from 8
// goroutines through the shared arena pool. Each goroutine keeps its
// previous Result, scribbles over the pooled buffers, runs the next plan,
// and then re-checks the kept Result against a row-executor rendering
// taken up front: a Result that aliased pooled memory would change.
func TestPooledScratchNotAliased(t *testing.T) {
	db := keysDB()
	ctx := context.Background()
	sqls := append([]string{}, typedKeyQueries...)
	for _, tc := range topKQueries[:6] {
		sqls = append(sqls, strings.ReplaceAll(strings.ReplaceAll(strings.ReplaceAll(tc.sql, "entry", "t"), "rank", "n"), "label", "s"))
	}
	plans := make([]*Plan, len(sqls))
	want := make([]string, len(sqls))
	for i, sql := range sqls {
		plans[i] = mustPrepare(t, db, sql)
		res, _, err := mustPrepareRow(t, db, sql).Run(ctx, DefaultBudget())
		if err != nil {
			t.Fatal(err)
		}
		want[i] = fmt.Sprint(res.Rows)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var prev *sqldata.Result
			prevIdx := -1
			for it := 0; it < 3*len(plans); it++ {
				// Even goroutines walk the plans in step (identical plans
				// at once); odd ones start apart.
				i := (it + (g%2)*g*5) % len(plans)
				res, _, err := plans[i].Run(ctx, DefaultBudget())
				if err != nil {
					t.Errorf("%q: %v", sqls[i], err)
					return
				}
				if prev != nil {
					if got := fmt.Sprint(prev.Rows); got != want[prevIdx] {
						t.Errorf("%q: held result changed after a later run:\n got %s\nwant %s", sqls[prevIdx], got, want[prevIdx])
						return
					}
				}
				prev, prevIdx = res, i
				scribbleArenas()
			}
		}(g)
	}
	wg.Wait()
}

// TestVecAllocsIndependentOfInput bounds the allocations of one run of
// each scan_agg shape over a 20,000-row fact table by a constant plus a
// few per group or output row: any allocation per input row would cost
// tens of thousands.
func TestVecAllocsIndependentOfInput(t *testing.T) {
	db := opsDB(20_000)
	ctx := context.Background()
	for _, sh := range scanShapes {
		p := mustPrepare(t, db, fmt.Sprintf(sh.sql, sh.cond))
		if !p.Vectorized() {
			t.Fatalf("%s: expected a vectorized plan", sh.name)
		}
		res, _, err := p.Run(ctx, DefaultBudget())
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, _, err := p.Run(ctx, DefaultBudget()); err != nil {
				t.Fatal(err)
			}
		})
		if bound := float64(100 + 8*len(res.Rows)); allocs > bound {
			t.Errorf("%s: %.0f allocations per run for %d output rows, bound %.0f", sh.name, allocs, len(res.Rows), bound)
		}
	}
}

// TestVecEmitAllocsIndependentOfRows: an unsorted, non-DISTINCT
// vectorized SELECT writes its rows straight into a Result sized once, so
// returning 1,000 rows costs no more allocations than returning 10.
func TestVecEmitAllocsIndependentOfRows(t *testing.T) {
	db := opsDB(2_000)
	ctx := context.Background()
	allocs := func(sql string, want int) float64 {
		p := mustPrepare(t, db, sql)
		if !p.Vectorized() {
			t.Fatalf("%q: expected a vectorized plan", sql)
		}
		res, _, err := p.Run(ctx, DefaultBudget())
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != want {
			t.Fatalf("%q: %d rows, want %d", sql, len(res.Rows), want)
		}
		return testing.AllocsPerRun(20, func() {
			if _, _, err := p.Run(ctx, DefaultBudget()); err != nil {
				t.Fatal(err)
			}
		})
	}
	small := allocs("SELECT id, status, cpu FROM metric WHERE id <= 10", 10)
	large := allocs("SELECT id, status, cpu FROM metric WHERE id <= 1000", 1000)
	if large > small+2 {
		t.Errorf("1,000 rows cost %.0f allocations, 10 rows %.0f: want at most 2 more", large, small)
	}
}
