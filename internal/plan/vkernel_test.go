package plan

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"nlidb/internal/sqldata"
)

// kernelDB is one table with, per column type, a column holding every
// value the kernels' literal folding has to get right and a twin with NULLs
// among them: the int64 extremes and the neighbours of 2^53, the float
// specials (NaN, ±0, ±Inf, the edges of the int64 range), an empty string,
// and a text column whose dictionary has a single entry.
func kernelDB() (*sqldata.Table, []sqldata.Column) {
	cols := []sqldata.Column{
		{Name: "i", Type: sqldata.TypeInt}, {Name: "in", Type: sqldata.TypeInt},
		{Name: "f", Type: sqldata.TypeFloat}, {Name: "fn", Type: sqldata.TypeFloat},
		{Name: "d", Type: sqldata.TypeDate}, {Name: "dn", Type: sqldata.TypeDate},
		{Name: "b", Type: sqldata.TypeBool}, {Name: "bn", Type: sqldata.TypeBool},
		{Name: "s", Type: sqldata.TypeText}, {Name: "sn", Type: sqldata.TypeText},
		{Name: "one", Type: sqldata.TypeText}, {Name: "onen", Type: sqldata.TypeText},
	}
	db := sqldata.NewDatabase("kern")
	tab, err := db.CreateTable(&sqldata.Schema{Name: "k", Columns: cols})
	if err != nil {
		panic(err)
	}
	ints, floats, _, texts := kernelLits()
	const rows = 48
	for r := 0; r < rows; r++ {
		vals := []sqldata.Value{
			ints[r%len(ints)], floats[r%len(floats)], sqldata.NewDateDays(int64(r%7-2) * 9000),
			sqldata.NewBool(r%3 == 0), texts[r%len(texts)], sqldata.NewText("x"),
		}
		row := make(sqldata.Row, 0, len(cols))
		for _, v := range vals {
			twin := v
			if r%5 == 2 {
				twin = sqldata.NullValue()
			}
			row = append(row, v, twin)
		}
		tab.MustInsert(row...)
	}
	return tab, cols
}

// kernelLits are the literals every column of a type is compared with.
func kernelLits() (ints, floats, dates, texts []sqldata.Value) {
	for _, i := range []int64{0, 1, -1, 5, 6, -6, math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1,
		1<<53 - 1, 1 << 53, 1<<53 + 1, -(1<<53 + 1), 1 << 62} {
		ints = append(ints, sqldata.NewInt(i))
	}
	for _, f := range []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), 5, 5.5, -5.5, 0.5, -0.5,
		1 << 53, 1<<53 + 2, -(1 << 53), 1 << 63, -(1 << 63), -(1 << 63) - 2048, 1<<63 - 1024, 1e300, -1e300,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.MaxFloat64} {
		floats = append(floats, sqldata.NewFloat(f))
	}
	for _, d := range []int64{-18000, -9000, 0, 1, 9000, 36000, 99999} {
		dates = append(dates, sqldata.NewDateDays(d))
	}
	for _, s := range []string{"", "a", "abc", "B", "x", "a%", "_", "zz"} {
		texts = append(texts, sqldata.NewText(s))
	}
	return
}

// kernelConjuncts is every kernel-shaped conjunct over column off of type
// typ: each comparison in both operand orders, [NOT] BETWEEN over literal
// pairs, [NOT] IN over empty, single, mixed and NULL-bearing lists,
// IS [NOT] NULL, and [NOT] LIKE on text.
func kernelConjuncts(off int, typ sqldata.Type) []bexpr {
	ints, floats, dates, texts := kernelLits()
	var lits []sqldata.Value
	switch typ {
	case sqldata.TypeInt, sqldata.TypeFloat:
		lits = append(append(lits, ints...), floats...)
	case sqldata.TypeDate:
		lits = dates
	case sqldata.TypeBool:
		lits = []sqldata.Value{sqldata.NewBool(false), sqldata.NewBool(true)}
	case sqldata.TypeText:
		lits = texts
	}
	lits = append(lits, sqldata.NullValue())
	col := &bCol{off: off, typ: typ}
	lit := func(v sqldata.Value) bexpr { return &bLit{v: v} }

	var out []bexpr
	for _, v := range lits {
		for _, op := range []string{"=", "!=", "<", "<=", ">", ">="} {
			out = append(out, &bBinary{op: op, l: col, r: lit(v)}, &bBinary{op: op, l: lit(v), r: col})
		}
	}
	for _, lo := range lits {
		for _, hi := range lits {
			out = append(out, &bBetween{x: col, lo: lit(lo), hi: lit(hi)}, &bBetween{x: col, lo: lit(lo), hi: lit(hi), not: true})
		}
	}
	lists := [][]bexpr{{}, {lit(sqldata.NullValue())}}
	for i := range lits {
		lists = append(lists,
			[]bexpr{lit(lits[i])},
			[]bexpr{lit(lits[i]), lit(lits[(i+3)%len(lits)]), lit(lits[(i+7)%len(lits)])},
			[]bexpr{lit(lits[i]), lit(sqldata.NullValue())})
	}
	for _, l := range lists {
		out = append(out, &bIn{x: col, list: l}, &bIn{x: col, list: l, not: true})
	}
	out = append(out, &bIsNull{x: col}, &bIsNull{x: col, not: true})
	if typ == sqldata.TypeText {
		for _, pat := range []string{"", "%", "_", "a%", "%b%", "A_C", "x", "a\\%"} {
			out = append(out, &bLike{x: col, pattern: pat}, &bLike{x: col, pattern: pat, not: true})
		}
	}
	// The parser delivers a negative number as a negated literal.
	if typ.Numeric() {
		neg := func(v sqldata.Value) bexpr { return &bUnary{op: "-", x: lit(v)} }
		for _, v := range []sqldata.Value{sqldata.NewInt(5), sqldata.NewFloat(5.5), sqldata.NewFloat(0), sqldata.NullValue()} {
			out = append(out, &bBinary{op: ">", l: col, r: neg(v)}, &bBinary{op: "=", l: neg(v), r: col},
				&bBetween{x: col, lo: neg(v), hi: lit(sqldata.NewInt(6))}, &bIn{x: col, list: []bexpr{neg(v)}, not: true})
		}
	}
	return out
}

// describe renders a conjunct for a failure message.
func describe(e bexpr) string {
	switch t := e.(type) {
	case *bLit:
		return t.v.SQLLiteral()
	case *bCol:
		return fmt.Sprintf("col%d", t.off)
	case *bUnary:
		return t.op + describe(t.x)
	case *bBinary:
		return describe(t.l) + " " + t.op + " " + describe(t.r)
	case *bBetween:
		return fmt.Sprintf("%s BETWEEN(not=%v) %s AND %s", describe(t.x), t.not, describe(t.lo), describe(t.hi))
	case *bIn:
		s := fmt.Sprintf("%s IN(not=%v) (", describe(t.x), t.not)
		for _, el := range t.list {
			s += describe(el) + ","
		}
		return s + ")"
	case *bIsNull:
		return fmt.Sprintf("%s IS NULL(not=%v)", describe(t.x), t.not)
	case *bLike:
		return fmt.Sprintf("%s LIKE(not=%v) %q", describe(t.x), t.not, t.pattern)
	}
	return fmt.Sprintf("%T", e)
}

// TestKernelMatchesGeneric is the kernels' oracle: for every column type,
// literal type and operator, with and without a NULL mask, from an identity
// and a non-identity input selection, the compiled kernel keeps exactly the
// rows the generic evalVec-to-mask path keeps, which are exactly the rows
// the boxed row evaluator calls definitely true.
func TestKernelMatchesGeneric(t *testing.T) {
	tab, schema := kernelDB()
	cols := tab.Columnar()
	n := len(tab.Rows)
	var thirds []int32 // a non-identity, non-contiguous input
	for i := 0; i < n; i++ {
		if i%3 != 1 {
			thirds = append(thirds, int32(i))
		}
	}
	expand := func(sel []int32, n int) []int32 {
		if sel != nil {
			return sel
		}
		all := make([]int32, n)
		for i := range all {
			all[i] = int32(i)
		}
		return all
	}

	cases := 0
	for off, c := range schema {
		hasNulls := cols[off].NullMask != nil
		if want := off%2 == 1; hasNulls != want {
			t.Fatalf("column %s: NULL mask present=%v, want %v", c.Name, hasNulls, want)
		}
		for _, e := range kernelConjuncts(off, c.Type) {
			if !vecPred(e) {
				t.Fatalf("%s %s: not a vectorizable predicate", c.Name, describe(e))
			}
			k := compileKernel(e)
			if k == nil {
				t.Fatalf("%s %s: did not compile to a kernel", c.Name, describe(e))
			}
			for _, in := range [][]int32{nil, thirds} {
				r := &vrun{a: getArena()}
				inN := len(expand(in, n))
				var oracle []int32
				for _, i := range expand(in, n) {
					ok, err := evalPredicate(nil, &frame{row: tab.Rows[i]}, e)
					if err != nil {
						t.Fatalf("%s %s: row evaluator: %v", c.Name, describe(e), err)
					}
					if ok {
						oracle = append(oracle, i)
					}
				}
				generic := slices.Clone(expand(r.filterGeneric(cols, e, in, inN), inN))
				got := expand(r.runKernel(k, cols[k.col], slices.Clone(in), inN), inN)
				if !slices.Equal(generic, oracle) {
					t.Errorf("%s %s (identity=%v): generic path keeps %v, row evaluator %v", c.Name, describe(e), in == nil, generic, oracle)
				}
				if !slices.Equal(got, oracle) {
					t.Errorf("%s %s (identity=%v): kernel keeps %v, row evaluator %v", c.Name, describe(e), in == nil, got, oracle)
				}
				r.a.release()
				cases++
			}
		}
	}
	t.Logf("%d kernel runs", cases)
}

// TestKernelKeepsIdentityAndScratch pins the two storage contracts: a
// kernel that keeps every row of an identity input returns nil (so the
// operators above read the columns in place), and one that keeps some
// leaves the arena holding only what it kept.
func TestKernelKeepsIdentityAndScratch(t *testing.T) {
	tab, _ := kernelDB()
	cols := tab.Columnar()
	n := len(tab.Rows)
	r := &vrun{a: new(arena)}
	r.a.i32.buf = make([]int32, 4*n)

	all := compileKernel(&bBinary{op: ">=", l: &bCol{off: 0, typ: sqldata.TypeInt}, r: &bLit{v: sqldata.NewInt(math.MinInt64)}})
	if sel := r.runKernel(all, cols[0], nil, n); sel != nil {
		t.Errorf("a kernel keeping every row of the identity returned %d rows, want nil", len(sel))
	}
	if r.a.i32.off != 0 {
		t.Errorf("identity result left %d scratch elements in use", r.a.i32.off)
	}
	some := compileKernel(&bBinary{op: ">", l: &bCol{off: 0, typ: sqldata.TypeInt}, r: &bLit{v: sqldata.NewInt(0)}})
	sel := r.runKernel(some, cols[0], nil, n)
	if len(sel) == 0 || len(sel) == n {
		t.Fatalf("fixture: x > 0 keeps %d of %d rows", len(sel), n)
	}
	if r.a.i32.off != len(sel) {
		t.Errorf("kept %d rows but %d scratch elements stay in use", len(sel), r.a.i32.off)
	}
	// A second filter compacts the first one's output where it lies.
	again := r.runKernel(compileKernel(&bBinary{op: "<", l: &bCol{off: 0, typ: sqldata.TypeInt}, r: &bLit{v: sqldata.NewInt(7)}}), cols[0], sel, len(sel))
	if len(again) == 0 || &again[0] != &sel[0] || r.a.i32.off != len(sel) {
		t.Errorf("second filter: %d rows, in place=%v, scratch in use %d", len(again), len(again) > 0 && &again[0] == &sel[0], r.a.i32.off)
	}
}

// kernelQueries drive the kernels through whole plans: several conjuncts
// on one scan, filters on either side of a join, negated literals, a
// dictionary longer than the rows left to test (which falls back to the
// generic path), NULL-bearing IN lists, LIKE over a dictionary.
var kernelQueries = []string{
	"SELECT id FROM t WHERE n > 1 AND f < 2.5",
	"SELECT id FROM t WHERE f >= -7.25 AND f != 2 AND n IS NOT NULL",
	"SELECT id FROM t WHERE 2 >= n AND -1 < f",
	"SELECT id, s FROM t WHERE id = 4 AND s LIKE 'b%'",
	"SELECT id FROM t WHERE s LIKE '%e%' AND s2 IN ('x', 'z')",
	"SELECT id FROM t WHERE s NOT LIKE 'r_d' AND s > 'blue'",
	"SELECT id FROM t WHERE n IN (1, 2.0, 1099511627776) AND b = TRUE",
	"SELECT id FROM t WHERE n NOT IN (1, 2) AND b != TRUE",
	"SELECT id FROM t WHERE n NOT IN (1, NULL)",
	"SELECT id FROM t WHERE f IN (0, 1.5, NULL)",
	"SELECT id FROM t WHERE f BETWEEN -1 AND 2 AND n BETWEEN 0.5 AND 2.5",
	"SELECT id FROM t WHERE f NOT BETWEEN 0 AND 100000.5",
	"SELECT id FROM t WHERE b IS NULL AND s IS NOT NULL",
	"SELECT id FROM t WHERE n = NULL",
	"SELECT id FROM t WHERE b",
	"SELECT id FROM t WHERE n + 1 > 2 AND f > 0",
	"SELECT s, COUNT(*), SUM(f) FROM t WHERE n >= 0 GROUP BY s",
	"SELECT t.id, u.label FROM t JOIN u ON t.n = u.k WHERE t.f > 0 AND u.name = 'green'",
	"SELECT u.name, COUNT(*), AVG(t.f) FROM t JOIN u ON t.n = u.k WHERE u.fk >= 1.5 AND t.s != 'blue' GROUP BY u.name",
	"SELECT id FROM t WHERE f < 1 ORDER BY n DESC LIMIT 3",
}

func TestKernelQueriesDifferential(t *testing.T) {
	db := keysDB()
	for _, sql := range kernelQueries {
		diffThreeWays(t, db, sql)
	}
}

// TestJoinUniqueProbeIsPerKey pins what lets joinStep take its flat
// one-candidate-per-tuple loop: every key having one right row, not the
// keyed right rows merely adding up to the number of keys. Built from the
// left, the keys are the left side's, and right rows [1, 1, 2] against left
// keys {1, 2, 3} count three for three while key 1 holds two rows and key 3
// none.
func TestJoinUniqueProbeIsPerKey(t *testing.T) {
	db := sqldata.NewDatabase("dup")
	l, err := db.CreateTable(&sqldata.Schema{Name: "l", Columns: []sqldata.Column{
		{Name: "k", Type: sqldata.TypeInt}, {Name: "tag", Type: sqldata.TypeText}}})
	if err != nil {
		t.Fatal(err)
	}
	for i, tag := range []string{"a", "b", "c"} {
		l.MustInsert(sqldata.NewInt(int64(i+1)), sqldata.NewText(tag))
	}
	r, err := db.CreateTable(&sqldata.Schema{Name: "r", Columns: []sqldata.Column{
		{Name: "k", Type: sqldata.TypeInt}, {Name: "v", Type: sqldata.TypeInt}}})
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range []int64{1, 1, 2, 9, 9, 9, 9, 9, 9, 9} {
		r.MustInsert(sqldata.NewInt(k), sqldata.NewInt(int64(10*i)))
	}
	for _, sql := range []string{
		"SELECT l.tag, r.v FROM l JOIN r ON l.k = r.k",
		"SELECT l.tag, r.v FROM l LEFT JOIN r ON l.k = r.k",
		"SELECT l.tag, r.v FROM l LEFT JOIN r ON l.k = r.k AND r.v > 5",
		"SELECT l.tag, COUNT(r.v), SUM(r.v) FROM l LEFT JOIN r ON l.k = r.k GROUP BY l.tag",
		"SELECT l.tag, r.v FROM l JOIN r ON l.k = r.k WHERE r.v != 30",
	} {
		if p := diffThreeWays(t, db, sql); !p.vec.joins[0].buildLeft {
			t.Errorf("%q: fixture: the join should build on the left", sql)
		}
	}
	// The same rows with the key table built from the right, where a key
	// with two rows makes the count exceed the keys.
	diffThreeWays(t, db, "SELECT l.tag, r.v FROM r JOIN l ON l.k = r.k")
	diffThreeWays(t, db, "SELECT l.tag, r.v FROM r LEFT JOIN l ON l.k = r.k")
}

// TestDictKernelStepsAside crosses scanFiltered's one run-time choice both
// ways: a text conjunct behind `id <= 5` meets a dictionary ten times its
// input and is decided per surviving row, and the same conjunct over the
// whole table is decided per dictionary entry.
func TestDictKernelStepsAside(t *testing.T) {
	db := sqldata.NewDatabase("wide")
	e, err := db.CreateTable(&sqldata.Schema{Name: "e", Columns: []sqldata.Column{
		{Name: "id", Type: sqldata.TypeInt, PrimaryKey: true}, {Name: "ref", Type: sqldata.TypeText}}})
	if err != nil {
		t.Fatal(err)
	}
	const rows = 60
	for i := 0; i < rows; i++ {
		ref := sqldata.NewText(fmt.Sprintf("r-%02d", i))
		if i%7 == 3 {
			ref = sqldata.NullValue()
		}
		e.MustInsert(sqldata.NewInt(int64(i+1)), ref)
	}
	dict, crossed := len(e.Columnar()[1].Dict), 0
	for _, pred := range []string{
		"ref = 'r-04'", "ref != 'r-04'", "ref < 'r-30'", "'r-02' <= ref", "ref BETWEEN 'r-01' AND 'r-20'",
		"ref IN ('r-01', 'r-40', NULL)", "ref NOT IN ('r-01', 'r-40')", "ref NOT IN ('r-01', NULL)",
		"ref LIKE 'r-_1'", "ref NOT LIKE 'r-0%'", "ref IS NULL",
	} {
		p := diffThreeWays(t, db, "SELECT id, ref FROM e WHERE id <= 5 AND "+pred)
		if f := p.vec.scan0.filters; f[0].kernel.kind == kernIntRange && f[1].kernel.kind == kernTable && dict > 5 {
			crossed++ // the text conjunct runs second, over 5 rows
		}
		diffThreeWays(t, db, "SELECT id, ref FROM e WHERE "+pred)
		diffThreeWays(t, db, "SELECT id, ref FROM e WHERE id <= 58 AND "+pred)
	}
	if crossed < 6 {
		t.Errorf("fixture: only %d conjuncts met a dictionary (%d entries) longer than their input", crossed, dict)
	}
}

// TestSlabShrinkGivesBackOnlyTheLatest: shrink returns the tail of the
// latest allocation to the slab (or takes it off the spill the next run's
// buffer is sized from), and only re-slices a buffer that something was
// allocated after.
func TestSlabShrinkGivesBackOnlyTheLatest(t *testing.T) {
	s := slab[int32]{buf: make([]int32, 16)}
	a := s.raw(8)
	if a = s.shrink(a, 3); len(a) != 3 || s.off != 3 || s.spill != 0 {
		t.Fatalf("latest on-slab buffer: len=%d off=%d spill=%d, want 3 3 0", len(a), s.off, s.spill)
	}
	b := s.raw(4)
	s.raw(2)
	if b = s.shrink(b, 1); len(b) != 1 || s.off != 9 || s.spill != 0 {
		t.Fatalf("earlier on-slab buffer: len=%d off=%d spill=%d, want 1 9 0", len(b), s.off, s.spill)
	}
	h := s.raw(32) // does not fit: served from the heap
	if h = s.shrink(h, 5); len(h) != 5 || s.off != 9 || s.spill != 5 {
		t.Fatalf("latest heap buffer: len=%d off=%d spill=%d, want 5 9 5", len(h), s.off, s.spill)
	}
	h2 := s.raw(32)
	s.raw(1)
	if s.shrink(h2, 0); s.off != 10 || s.spill != 37 {
		t.Fatalf("earlier heap buffer: off=%d spill=%d, want 10 37", s.off, s.spill)
	}
}
