package plan

import (
	"context"
	"math"
	"testing"

	"nlidb/internal/sqldata"
	"nlidb/internal/sqlparse"
)

// fuzzDB builds the small fixed database FuzzPlanExec executes against.
// Tables and columns mirror the sqlparse fuzz seed vocabulary (customer,
// orders, product, category; name/city/total/status/placed/credit/...),
// so mutated seeds keep resolving. "name" appears in three tables to
// exercise ambiguity handling, and NULLs are sprinkled through nullable
// columns to exercise three-valued logic and join padding. probe holds the
// key values the typed-key paths must canonicalize: a FLOAT column with
// -0, 0, two NaNs, 2.0 and an integral float whose int64 value equals the
// IEEE bits of 1.5, a nullable BOOL, a text column whose dictionary only
// partly overlaps customer.city, and an INT wide enough to leave the
// direct key table.
func fuzzDB() *sqldata.Database {
	db := sqldata.NewDatabase("fuzz")
	null := sqldata.NullValue()
	customer, err := db.CreateTable(&sqldata.Schema{
		Name: "customer",
		Columns: []sqldata.Column{
			{Name: "id", Type: sqldata.TypeInt, PrimaryKey: true},
			{Name: "name", Type: sqldata.TypeText},
			{Name: "city", Type: sqldata.TypeText},
			{Name: "credit", Type: sqldata.TypeFloat},
		},
	})
	if err != nil {
		panic(err)
	}
	customer.MustInsert(sqldata.NewInt(1), sqldata.NewText("alice"), sqldata.NewText("Berlin"), sqldata.NewFloat(1200))
	customer.MustInsert(sqldata.NewInt(2), sqldata.NewText("bob"), sqldata.NewText("Paris"), sqldata.NewFloat(80.5))
	customer.MustInsert(sqldata.NewInt(3), sqldata.NewText("carol"), null, sqldata.NewFloat(0))
	customer.MustInsert(sqldata.NewInt(4), sqldata.NewText("dave"), sqldata.NewText("Berlin"), null)
	customer.MustInsert(sqldata.NewInt(5), null, sqldata.NewText("Oslo"), sqldata.NewFloat(-3))

	orders, err := db.CreateTable(&sqldata.Schema{
		Name: "orders",
		Columns: []sqldata.Column{
			{Name: "id", Type: sqldata.TypeInt, PrimaryKey: true},
			{Name: "customer_id", Type: sqldata.TypeInt},
			{Name: "total", Type: sqldata.TypeFloat},
			{Name: "status", Type: sqldata.TypeText},
			{Name: "placed", Type: sqldata.TypeDate},
		},
	})
	if err != nil {
		panic(err)
	}
	orders.MustInsert(sqldata.NewInt(10), sqldata.NewInt(1), sqldata.NewFloat(250), sqldata.NewText("done"), sqldata.NewDate(2018, 3, 14))
	orders.MustInsert(sqldata.NewInt(11), sqldata.NewInt(1), sqldata.NewFloat(99.5), sqldata.NewText("open"), sqldata.NewDate(2019, 7, 2))
	orders.MustInsert(sqldata.NewInt(12), sqldata.NewInt(2), sqldata.NewFloat(600), sqldata.NewText("done"), sqldata.NewDate(2020, 1, 1))
	orders.MustInsert(sqldata.NewInt(13), sqldata.NewInt(3), null, sqldata.NewText("open"), null)
	orders.MustInsert(sqldata.NewInt(14), sqldata.NewInt(99), sqldata.NewFloat(5), null, sqldata.NewDate(2018, 12, 31))

	product, err := db.CreateTable(&sqldata.Schema{
		Name: "product",
		Columns: []sqldata.Column{
			{Name: "id", Type: sqldata.TypeInt, PrimaryKey: true},
			{Name: "name", Type: sqldata.TypeText},
			{Name: "category_id", Type: sqldata.TypeInt},
		},
	})
	if err != nil {
		panic(err)
	}
	product.MustInsert(sqldata.NewInt(100), sqldata.NewText("anvil"), sqldata.NewInt(1))
	product.MustInsert(sqldata.NewInt(101), sqldata.NewText("rocket"), sqldata.NewInt(2))
	product.MustInsert(sqldata.NewInt(102), sqldata.NewText("spring"), null)

	category, err := db.CreateTable(&sqldata.Schema{
		Name: "category",
		Columns: []sqldata.Column{
			{Name: "id", Type: sqldata.TypeInt, PrimaryKey: true},
			{Name: "name", Type: sqldata.TypeText},
		},
	})
	if err != nil {
		panic(err)
	}
	category.MustInsert(sqldata.NewInt(1), sqldata.NewText("tools"))
	category.MustInsert(sqldata.NewInt(2), sqldata.NewText("toys"))

	probe, err := db.CreateTable(&sqldata.Schema{
		Name: "probe",
		Columns: []sqldata.Column{
			{Name: "pid", Type: sqldata.TypeInt, PrimaryKey: true},
			{Name: "f", Type: sqldata.TypeFloat},
			{Name: "flag", Type: sqldata.TypeBool},
			{Name: "tag", Type: sqldata.TypeText},
			{Name: "big", Type: sqldata.TypeInt},
		},
	})
	if err != nil {
		panic(err)
	}
	for i, f := range []float64{math.Copysign(0, -1), 0, math.NaN(), 2, 4609434218613702656.0, 1.5, -math.NaN(), 2, 1200} {
		flag, tag := sqldata.NewBool(i%2 == 0), sqldata.NewText([]string{"Berlin", "Quito", "Paris"}[i%3])
		if i%4 == 3 {
			flag, tag = null, null
		}
		probe.MustInsert(sqldata.NewInt(int64(i+1)), sqldata.NewFloat(f), flag, tag, sqldata.NewInt(int64(i%3)<<40+int64(i%2)))
	}
	return db
}

// fuzzBudget bounds the planned side so mutated join/sub-query towers
// terminate quickly; the naive side runs unbounded only after the planned
// side succeeded within these limits, which caps its cost too (the tables
// are a handful of rows).
func fuzzBudget() Budget {
	return Budget{MaxRows: 50_000, MaxJoinRows: 200_000, MaxSubqueries: 2_000}
}

// sameResult reports whether two results agree on columns and on rows
// (ordered — both evaluators produce deterministic first-appearance
// order, and the planner is required to preserve it).
func sameResult(a, b *sqldata.Result) bool {
	if len(a.Columns) != len(b.Columns) || len(a.Rows) != len(b.Rows) {
		return false
	}
	for i := range a.Columns {
		if a.Columns[i] != b.Columns[i] {
			return false
		}
	}
	for i := range a.Rows {
		if a.Rows[i].Key() != b.Rows[i].Key() {
			return false
		}
	}
	return true
}

// FuzzPlanExec differentially fuzzes the bind/plan/execute pipeline
// against the retained naive tree-walking evaluator (naive_test.go): any
// statement the parser accepts is run through both, and when both
// succeed their results must agree exactly. Divergent errors are allowed
// — the planner reports unknown tables/columns at bind time and fixed
// the naive zero-output-join aggregate bug — but a success/success
// mismatch is a planner defect.
// Run with: go test -run=^$ -fuzz=FuzzPlanExec ./internal/plan
func FuzzPlanExec(f *testing.F) {
	seeds := []string{
		// The sqlparse fuzz seed corpus: benchdata gold shapes over the
		// same table vocabulary fuzzDB serves.
		"SELECT name FROM customer WHERE city = 'Berlin'",
		"SELECT * FROM orders WHERE total > 100.5 AND status != 'done'",
		"SELECT city, COUNT(*) FROM customer GROUP BY city ORDER BY COUNT(*) DESC LIMIT 3",
		"SELECT AVG(total) FROM orders WHERE placed BETWEEN '2018-01-01' AND '2019-12-31'",
		"SELECT customer.name, SUM(orders.total) FROM customer JOIN orders ON customer.id = orders.customer_id GROUP BY customer.name",
		"SELECT p.name FROM product AS p LEFT JOIN category AS c ON p.category_id = c.id WHERE c.name IS NOT NULL",
		"SELECT name FROM customer WHERE id IN (SELECT customer_id FROM orders WHERE total > 500)",
		"SELECT name FROM customer WHERE NOT EXISTS (SELECT id FROM orders WHERE orders.customer_id = customer.id)",
		"SELECT city FROM customer GROUP BY city HAVING COUNT(*) > (SELECT COUNT(*) FROM orders) ORDER BY city",
		"SELECT DISTINCT LOWER(name) FROM customer WHERE name LIKE 'a%' OR credit BETWEEN 1 AND 2;",
		// Plan-shape stressors: non-equi joins, pushdown candidates,
		// NULL-key joins, aliases, empty-join aggregates.
		"SELECT c.name, o.total FROM customer AS c JOIN orders AS o ON c.id = o.customer_id WHERE c.city = 'Berlin' AND o.total > 100",
		"SELECT c.name FROM customer AS c JOIN orders AS o ON c.credit > o.total",
		// Keys numbered from the left (two Berlin customers), one holding
		// two of the right side's rows and one none.
		"SELECT c.name, o.total FROM customer AS c JOIN orders AS o ON c.id = o.customer_id WHERE c.city = 'Berlin'",
		"SELECT c.name, o.total FROM customer AS c LEFT JOIN orders AS o ON c.id = o.customer_id WHERE c.city = 'Berlin'",
		"SELECT c.name FROM customer AS c LEFT JOIN orders AS o ON c.id = o.customer_id AND o.status = 'done'",
		"SELECT MAX(total) FROM orders JOIN customer ON orders.customer_id = customer.id WHERE customer.city = 'Atlantis'",
		"SELECT status, COUNT(DISTINCT customer_id) FROM orders GROUP BY status ORDER BY status",
		// Typed keys: NULL text groups, LEFT JOIN pads as group keys,
		// composite (text, int) / (text, text) / (float, bool) keys, the
		// FLOAT corner cases, INT-vs-FLOAT and cross-dictionary text join
		// keys, DISTINCT text aggregates.
		"SELECT city, COUNT(*) FROM customer GROUP BY city",
		"SELECT o.status, COUNT(*) FROM customer AS c LEFT JOIN orders AS o ON c.id = o.customer_id GROUP BY o.status",
		"SELECT city, id, COUNT(*) FROM customer GROUP BY city, id",
		"SELECT city, name, SUM(credit) FROM customer GROUP BY city, name",
		"SELECT f, flag, COUNT(*) FROM probe GROUP BY f, flag",
		"SELECT f, COUNT(*), COUNT(DISTINCT tag) FROM probe GROUP BY f",
		"SELECT big, MIN(f), MAX(tag) FROM probe GROUP BY big",
		"SELECT c.name, p.pid FROM customer AS c JOIN probe AS p ON c.id = p.f",
		"SELECT c.name, p.pid FROM probe AS p JOIN customer AS c ON p.f = c.credit",
		"SELECT c.name, p.pid FROM customer AS c JOIN probe AS p ON c.city = p.tag",
		"SELECT c.name, p.pid FROM probe AS p LEFT JOIN customer AS c ON p.tag = c.city AND p.pid = c.id",
		"SELECT flag, COUNT(DISTINCT tag) FROM probe GROUP BY flag",
		// Bounded ORDER BY: ties, LIMIT 0, LIMIT past the input, NULL keys
		// both directions, mixed directions, and DISTINCT (full sort).
		"SELECT pid FROM probe ORDER BY flag LIMIT 4",
		"SELECT pid FROM probe ORDER BY f DESC, tag LIMIT 0",
		"SELECT pid FROM probe ORDER BY tag DESC, f ASC LIMIT 50",
		"SELECT name FROM customer ORDER BY city LIMIT 2",
		"SELECT name FROM customer ORDER BY city DESC, credit LIMIT 3",
		"SELECT DISTINCT tag FROM probe ORDER BY tag DESC LIMIT 2",
		"SELECT tag, COUNT(*) AS c FROM probe GROUP BY tag ORDER BY c DESC LIMIT 1",
		// Scan kernels: every column type against INT, FLOAT, negated and
		// NULL literals in either operand order, thresholds at 2^53 and
		// between integers, NULL-bearing IN lists (the parser has no empty
		// one), LIKE over a dictionary, several conjuncts per scan and on
		// both sides of a join, and conjuncts that stay generic beside them.
		"SELECT pid FROM probe WHERE f > 1.5",
		"SELECT pid FROM probe WHERE f <= 2 AND big >= 1099511627776",
		"SELECT pid FROM probe WHERE f != 0 AND flag = TRUE",
		"SELECT pid FROM probe WHERE big > 0.5 AND pid < 9007199254740993",
		"SELECT pid FROM probe WHERE pid >= 2.5 AND f < 9007199254740993",
		"SELECT pid FROM probe WHERE f BETWEEN -0.0 AND 2 AND flag != FALSE",
		"SELECT pid FROM probe WHERE f NOT BETWEEN 1 AND 4609434218613702656",
		"SELECT pid FROM probe WHERE pid BETWEEN 1.5 AND 7.5 AND big NOT BETWEEN -1 AND 1",
		"SELECT pid FROM probe WHERE 1.5 < f AND 'Paris' >= tag AND -3 < pid",
		"SELECT pid FROM probe WHERE tag IN (NULL)",
		"SELECT pid FROM probe WHERE tag NOT IN ('Paris', NULL)",
		"SELECT pid FROM probe WHERE pid NOT IN (1, 2.0, NULL) OR pid IN (3, 4.5)",
		"SELECT pid FROM probe WHERE pid NOT IN (1, 2.0, 7) AND f IN (2, 1.5, 1200, NULL)",
		"SELECT pid FROM probe WHERE tag LIKE 'P%' AND tag NOT LIKE '_a%'",
		"SELECT pid FROM probe WHERE tag LIKE '%i_' OR tag IS NULL",
		"SELECT pid FROM probe WHERE flag IS NULL AND tag IS NULL AND f IS NOT NULL",
		"SELECT pid FROM probe WHERE f = NULL OR big != NULL",
		"SELECT pid FROM probe WHERE pid = 3 AND tag LIKE '%'",
		"SELECT pid FROM probe WHERE f + 1 > 2 AND big <= 2199023255552 AND flag",
		"SELECT p.pid, c.name FROM probe AS p JOIN customer AS c ON p.tag = c.city WHERE p.f >= 0 AND c.credit > -5",
		"SELECT tag, COUNT(*), SUM(f) FROM probe WHERE big < 2199023255553 GROUP BY tag",
		"SELECT name FROM customer WHERE credit < 100.25 ORDER BY id DESC LIMIT 2",
		// Grouped joins that aggregate as they probe: the dimension first
		// (customer 4 and 5 have no orders, order 14 no customer) and last,
		// injective and shared groups, NULL group keys and arguments, a
		// global aggregate, HAVING, a three-table chain, duplicate keys on
		// the dimension side (two Berlin customers), and a float sum over a
		// group of several keys, which must take the general path.
		"SELECT c.name, COUNT(*), SUM(o.total), MIN(o.total), MAX(o.placed), MIN(o.status) FROM customer AS c JOIN orders AS o ON c.id = o.customer_id GROUP BY c.name",
		"SELECT c.city, COUNT(*), COUNT(o.total), MAX(o.total), MIN(o.id) FROM customer AS c JOIN orders AS o ON c.id = o.customer_id GROUP BY c.city",
		"SELECT c.city, AVG(o.total), SUM(o.total) FROM customer AS c JOIN orders AS o ON c.id = o.customer_id GROUP BY c.city",
		"SELECT c.name, AVG(o.total) FROM orders AS o JOIN customer AS c ON o.customer_id = c.id WHERE o.total > 10 GROUP BY c.name HAVING COUNT(*) > 1",
		"SELECT COUNT(*), SUM(o.id), MAX(o.status) FROM customer AS c JOIN orders AS o ON c.id = o.customer_id",
		"SELECT cat.name, COUNT(*), MIN(p.name) FROM category AS cat JOIN product AS p ON cat.id = p.category_id GROUP BY cat.name",
		"SELECT c.credit, COUNT(*), MAX(p.f) FROM customer AS c JOIN probe AS p ON c.city = p.tag GROUP BY c.credit",
		"SELECT c.city, COUNT(*), SUM(p.f) FROM probe AS p JOIN customer AS c ON p.tag = c.city GROUP BY c.city",
		"SELECT cat.name, COUNT(*) FROM category AS cat JOIN product AS p ON cat.id = p.category_id JOIN orders AS o ON p.id = o.id GROUP BY cat.name",
		"SELECT c.city IS NULL, SUM(o.total), MAX(o.total) FROM customer AS c JOIN orders AS o ON c.id = o.customer_id GROUP BY c.city IS NULL",
	}
	for _, s := range seeds {
		f.Add(s)
	}

	db := fuzzDB()
	ctx := context.Background()
	f.Fuzz(func(t *testing.T, sql string) {
		if len(sql) > 2000 {
			return // bound bind/recursion depth
		}
		stmt, err := sqlparse.Parse(sql)
		if err != nil {
			return
		}
		p, err := Prepare(db, stmt)
		if err != nil {
			return // bind-time rejection; naive may or may not agree
		}
		pRes, pu, pErr := p.Run(ctx, fuzzBudget())
		if pErr != nil {
			return // runtime/budget error; message parity is not required
		}
		if p.Vectorized() {
			// Second differential axis: the vectorized executor against
			// the row executor on the identical statement. Both join in
			// the written order, so results AND budget metering must
			// agree exactly.
			rRes, ru, rErr := mustPrepareRow(t, db, sql).Run(ctx, fuzzBudget())
			if rErr != nil {
				t.Fatalf("row executor failed where vectorized succeeded for %q: %v", sql, rErr)
			}
			if !sameResult(rRes, pRes) {
				t.Fatalf("vectorized mismatch for %q:\nrow: cols=%v rows=%v\nvec: cols=%v rows=%v",
					sql, rRes.Columns, rRes.Rows, pRes.Columns, pRes.Rows)
			}
			if ru != pu {
				t.Fatalf("usage mismatch for %q: row %+v vec %+v", sql, ru, pu)
			}
		}
		nRes, nErr := naiveRun(db, stmt, nil)
		if nErr != nil {
			// Known one-sided divergence: the planner fixed the naive
			// zero-output-join aggregate error, so naive may fail where
			// the plan succeeds. Never the gate for a mismatch report.
			return
		}
		if !sameResult(nRes, pRes) {
			t.Fatalf("differential mismatch for %q:\nnaive: cols=%v rows=%v\nplan:  cols=%v rows=%v",
				sql, nRes.Columns, nRes.Rows, pRes.Columns, pRes.Rows)
		}
	})
}
