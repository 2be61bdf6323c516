package sqlparse

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"nlidb/internal/sqldata"
)

func TestLexBasics(t *testing.T) {
	toks, err := Lex("SELECT a, b FROM t WHERE x >= 10.5 AND name = 'O''Brien';")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []TokKind
	var texts []string
	for _, tok := range toks {
		kinds = append(kinds, tok.Kind)
		texts = append(texts, tok.Text)
	}
	if kinds[0] != TokKeyword || texts[0] != "SELECT" {
		t.Errorf("first token = %v %q", kinds[0], texts[0])
	}
	found := false
	for i, tok := range toks {
		if tok.Kind == TokString {
			found = true
			if tok.Text != "O'Brien" {
				t.Errorf("string literal = %q", tok.Text)
			}
			_ = i
		}
	}
	if !found {
		t.Error("no string token lexed")
	}
	if toks[len(toks)-1].Kind != TokEOF {
		t.Error("missing EOF token")
	}
}

func TestLexErrors(t *testing.T) {
	if _, err := Lex("SELECT 'unterminated"); err == nil {
		t.Error("unterminated string accepted")
	}
	if _, err := Lex("SELECT a # b"); err == nil {
		t.Error("bad character accepted")
	}
}

func TestLexOperators(t *testing.T) {
	toks, err := Lex("a <> b != c <= d >= e")
	if err != nil {
		t.Fatal(err)
	}
	var ops []string
	for _, tok := range toks {
		if tok.Kind == TokOp {
			ops = append(ops, tok.Text)
		}
	}
	want := []string{"!=", "!=", "<=", ">="}
	if len(ops) != len(want) {
		t.Fatalf("ops = %v", ops)
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Errorf("op[%d] = %q, want %q", i, ops[i], want[i])
		}
	}
}

// roundTrips asserts parse → print → parse reaches a fixed point.
func roundTrips(t *testing.T, sql string) *SelectStmt {
	t.Helper()
	s1, err := Parse(sql)
	if err != nil {
		t.Fatalf("Parse(%q): %v", sql, err)
	}
	printed := s1.String()
	s2, err := Parse(printed)
	if err != nil {
		t.Fatalf("reparse of %q (from %q): %v", printed, sql, err)
	}
	if s2.String() != printed {
		t.Errorf("print not a fixed point:\n  first  %s\n  second %s", printed, s2.String())
	}
	return s1
}

func TestParseSimpleSelect(t *testing.T) {
	s := roundTrips(t, "select name, salary from employee where salary > 50000")
	if len(s.Items) != 2 {
		t.Fatalf("items = %d", len(s.Items))
	}
	if s.From.First.Name != "employee" {
		t.Errorf("from = %q", s.From.First.Name)
	}
	be, ok := s.Where.(*BinaryExpr)
	if !ok || be.Op != ">" {
		t.Fatalf("where = %#v", s.Where)
	}
}

func TestParseStar(t *testing.T) {
	s := roundTrips(t, "SELECT * FROM t")
	if !s.Items[0].Star {
		t.Error("star not parsed")
	}
	s = roundTrips(t, "SELECT e.* FROM employee AS e")
	if !s.Items[0].Star || s.Items[0].StarTable != "e" {
		t.Errorf("qualified star = %+v", s.Items[0])
	}
}

func TestParseAggregation(t *testing.T) {
	s := roundTrips(t, "SELECT dept, COUNT(*), AVG(salary) AS avg_sal FROM employee GROUP BY dept HAVING COUNT(*) > 3 ORDER BY avg_sal DESC LIMIT 5")
	if len(s.GroupBy) != 1 || s.Having == nil || len(s.OrderBy) != 1 || s.Limit != 5 {
		t.Fatalf("clauses not parsed: %s", s)
	}
	if !s.OrderBy[0].Desc {
		t.Error("DESC not parsed")
	}
	f, ok := s.Items[1].Expr.(*FuncCall)
	if !ok || !f.Star || f.Name != "COUNT" {
		t.Errorf("COUNT(*) = %#v", s.Items[1].Expr)
	}
	if !s.HasAggregate() {
		t.Error("HasAggregate = false")
	}
}

func TestParseJoins(t *testing.T) {
	s := roundTrips(t, "SELECT e.name, d.name FROM employee AS e JOIN department AS d ON e.dept_id = d.id LEFT JOIN city ON d.city_id = city.id WHERE city.name = 'Berlin'")
	if len(s.From.Joins) != 2 {
		t.Fatalf("joins = %d", len(s.From.Joins))
	}
	if s.From.Joins[0].Type != JoinInner || s.From.Joins[1].Type != JoinLeft {
		t.Errorf("join types = %v %v", s.From.Joins[0].Type, s.From.Joins[1].Type)
	}
	if got := len(s.From.Tables()); got != 3 {
		t.Errorf("Tables() = %d", got)
	}
}

func TestParseCommaJoin(t *testing.T) {
	s, err := Parse("SELECT a.x FROM a, b WHERE a.id = b.id")
	if err != nil {
		t.Fatal(err)
	}
	if len(s.From.Joins) != 1 {
		t.Fatalf("comma join not desugared: %s", s)
	}
	lit, ok := s.From.Joins[0].On.(*Literal)
	if !ok || lit.Val.T != sqldata.TypeBool || !lit.Val.Bool() {
		t.Errorf("comma join ON = %v", s.From.Joins[0].On)
	}
}

func TestParseNested(t *testing.T) {
	sql := "SELECT name FROM employee WHERE salary > (SELECT AVG(salary) FROM employee) AND dept_id IN (SELECT id FROM department WHERE budget > 100000)"
	s := roundTrips(t, sql)
	subs := s.Subqueries()
	if len(subs) != 2 {
		t.Fatalf("subqueries = %d", len(subs))
	}
}

func TestParseExists(t *testing.T) {
	s := roundTrips(t, "SELECT d.name FROM department AS d WHERE NOT (EXISTS (SELECT id FROM employee WHERE employee.dept_id = d.id))")
	if len(s.Subqueries()) != 1 {
		t.Fatalf("exists subquery missing: %s", s)
	}
}

func TestParsePredicates(t *testing.T) {
	s := roundTrips(t, "SELECT x FROM t WHERE a BETWEEN 1 AND 10 AND b LIKE 'foo%' AND c IS NOT NULL AND d IN (1, 2, 3) AND e NOT IN (4) AND f NOT BETWEEN 0 AND 1 AND g NOT LIKE 'z%' AND h IS NULL")
	terms := flatten("AND", s.Where)
	if len(terms) != 8 {
		t.Fatalf("conjuncts = %d: %s", len(terms), s.Where)
	}
}

func TestParseArithmeticPrecedence(t *testing.T) {
	s := roundTrips(t, "SELECT a + b * c - d / 2 FROM t")
	// a + (b*c) - (d/2): top is "-", left is "+".
	top, ok := s.Items[0].Expr.(*BinaryExpr)
	if !ok || top.Op != "-" {
		t.Fatalf("top = %#v", s.Items[0].Expr)
	}
	l, ok := top.L.(*BinaryExpr)
	if !ok || l.Op != "+" {
		t.Fatalf("left = %#v", top.L)
	}
	if r, ok := l.R.(*BinaryExpr); !ok || r.Op != "*" {
		t.Fatalf("b*c = %#v", l.R)
	}
}

func TestParseBooleanPrecedence(t *testing.T) {
	s, err := Parse("SELECT x FROM t WHERE a = 1 OR b = 2 AND c = 3")
	if err != nil {
		t.Fatal(err)
	}
	top, ok := s.Where.(*BinaryExpr)
	if !ok || top.Op != "OR" {
		t.Fatalf("OR should bind loosest: %s", s.Where)
	}
}

func TestParseNegativeNumbers(t *testing.T) {
	s, err := Parse("SELECT x FROM t WHERE a = -5 AND b = -2.5")
	if err != nil {
		t.Fatal(err)
	}
	terms := flatten("AND", s.Where)
	lit := terms[0].(*BinaryExpr).R.(*Literal)
	if lit.Val.Int() != -5 {
		t.Errorf("folded literal = %v", lit.Val)
	}
}

func TestParseDistinct(t *testing.T) {
	s := roundTrips(t, "SELECT DISTINCT city FROM customer")
	if !s.Distinct {
		t.Error("DISTINCT not parsed")
	}
	s = roundTrips(t, "SELECT COUNT(DISTINCT city) FROM customer")
	f := s.Items[0].Expr.(*FuncCall)
	if !f.Distinct {
		t.Error("COUNT(DISTINCT ...) not parsed")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"UPDATE t SET x = 1",
		"SELECT",
		"SELECT FROM t",
		"SELECT a FROM",
		"SELECT a FROM t WHERE",
		"SELECT a FROM t GROUP",
		"SELECT a FROM t LIMIT x",
		"SELECT a FROM t WHERE a NOT 5",
		"SELECT a FROM t extra garbage tokens ON x",
		"SELECT a FROM t JOIN u",         // missing ON
		"SELECT a FROM t WHERE a IN (",   // unterminated
		"SELECT a FROM t WHERE a LIKE 5", // LIKE needs string
	}
	for _, sql := range bad {
		if _, err := Parse(sql); err == nil {
			t.Errorf("Parse(%q) accepted", sql)
		}
	}
}

func TestCanonicalSortsConjuncts(t *testing.T) {
	a := MustParse("SELECT x FROM t WHERE b = 2 AND a = 1")
	b := MustParse("SELECT x FROM t WHERE a = 1 AND b = 2")
	if !EqualCanonical(a, b) {
		t.Errorf("conjunct order should not matter:\n%s\n%s", Canonical(a), Canonical(b))
	}
}

func TestCanonicalFlipsLiteralComparison(t *testing.T) {
	a := MustParse("SELECT x FROM t WHERE 5 < a")
	b := MustParse("SELECT x FROM t WHERE a > 5")
	if !EqualCanonical(a, b) {
		t.Errorf("flipped comparison should match:\n%s\n%s", Canonical(a), Canonical(b))
	}
}

func TestCanonicalCaseInsensitive(t *testing.T) {
	a := MustParse("SELECT Name FROM Employee WHERE Salary > 10")
	b := MustParse("select name from employee where salary > 10")
	if !EqualCanonical(a, b) {
		t.Error("identifier case should not matter")
	}
}

func TestCanonicalInListSorted(t *testing.T) {
	a := MustParse("SELECT x FROM t WHERE a IN (3, 1, 2)")
	b := MustParse("SELECT x FROM t WHERE a IN (1, 2, 3)")
	if !EqualCanonical(a, b) {
		t.Error("IN list order should not matter")
	}
}

func TestCanonicalDistinguishes(t *testing.T) {
	pairs := [][2]string{
		{"SELECT x FROM t WHERE a = 1", "SELECT x FROM t WHERE a = 2"},
		{"SELECT x FROM t", "SELECT DISTINCT x FROM t"},
		{"SELECT x FROM t ORDER BY x ASC", "SELECT x FROM t ORDER BY x DESC"},
		{"SELECT x FROM t WHERE a = 1 AND b = 2", "SELECT x FROM t WHERE a = 1 OR b = 2"},
		{"SELECT x FROM t LIMIT 5", "SELECT x FROM t LIMIT 6"},
		{"SELECT MIN(x) FROM t", "SELECT MAX(x) FROM t"},
	}
	for _, p := range pairs {
		if EqualCanonical(MustParse(p[0]), MustParse(p[1])) {
			t.Errorf("%q and %q should differ", p[0], p[1])
		}
	}
}

func TestCanonicalDoesNotMutate(t *testing.T) {
	s := MustParse("SELECT X FROM T WHERE B = 2 AND A = 1")
	before := s.String()
	_ = Canonical(s)
	if s.String() != before {
		t.Error("Canonical mutated its input")
	}
}

// randSQL generates a random valid SQL string from a small grammar.
func randSQL(r *rand.Rand) string {
	cols := []string{"a", "b", "c", "price", "qty"}
	tbls := []string{"t", "orders", "items"}
	col := func() string { return cols[r.Intn(len(cols))] }
	var sb strings.Builder
	sb.WriteString("SELECT ")
	if r.Intn(4) == 0 {
		sb.WriteString("DISTINCT ")
	}
	switch r.Intn(3) {
	case 0:
		sb.WriteString("*")
	case 1:
		sb.WriteString(col())
	default:
		aggs := []string{"COUNT", "SUM", "AVG", "MIN", "MAX"}
		sb.WriteString(aggs[r.Intn(len(aggs))] + "(" + col() + ")")
	}
	sb.WriteString(" FROM " + tbls[r.Intn(len(tbls))])
	if r.Intn(2) == 0 {
		sb.WriteString(" WHERE ")
		nconds := 1 + r.Intn(3)
		for i := 0; i < nconds; i++ {
			if i > 0 {
				if r.Intn(2) == 0 {
					sb.WriteString(" AND ")
				} else {
					sb.WriteString(" OR ")
				}
			}
			ops := []string{"=", "!=", "<", ">", "<=", ">="}
			switch r.Intn(3) {
			case 0:
				sb.WriteString(col() + " " + ops[r.Intn(len(ops))] + " " + string(rune('0'+r.Intn(10))))
			case 1:
				sb.WriteString(col() + " LIKE 'x%'")
			default:
				sb.WriteString(col() + " BETWEEN 1 AND 9")
			}
		}
	}
	if r.Intn(3) == 0 {
		sb.WriteString(" GROUP BY " + col())
	}
	if r.Intn(3) == 0 {
		sb.WriteString(" ORDER BY " + col())
		if r.Intn(2) == 0 {
			sb.WriteString(" DESC")
		}
	}
	if r.Intn(3) == 0 {
		sb.WriteString(" LIMIT " + string(rune('1'+r.Intn(9))))
	}
	return sb.String()
}

// Property: for any generated SQL, parse→print→parse→print is a fixed point
// and canonicalization is idempotent.
func TestPropertyRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		sql := randSQL(r)
		s1, err := Parse(sql)
		if err != nil {
			t.Logf("generated invalid SQL %q: %v", sql, err)
			return false
		}
		s2, err := Parse(s1.String())
		if err != nil {
			return false
		}
		if s1.String() != s2.String() {
			return false
		}
		c1 := Canonical(s1)
		c2 := Canonical(c1)
		return c1.String() == c2.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestConjoin(t *testing.T) {
	col := func(n string) Expr {
		return &BinaryExpr{Op: ">", L: &ColumnRef{Column: n}, R: &Literal{Val: sqldata.NewInt(1)}}
	}
	cases := []struct {
		terms []Expr
		want  string
	}{
		{nil, "<nil>"},
		{[]Expr{col("a")}, "a > 1"},
		{[]Expr{col("a"), col("b"), col("c")}, "((a > 1 AND b > 1) AND c > 1)"},
	}
	for _, c := range cases {
		got := Conjoin(c.terms)
		s := "<nil>"
		if got != nil {
			s = got.String()
		}
		if s != c.want {
			t.Errorf("Conjoin(%d terms) = %s, want %s", len(c.terms), s, c.want)
		}
	}
	// The chain is left-deep: a WHERE built from it re-parses as written.
	stmt := MustParse("SELECT x FROM t")
	stmt.Where = Conjoin([]Expr{col("a"), col("b"), col("c")})
	if again := MustParse(stmt.String()); again.String() != stmt.String() {
		t.Errorf("round trip: %s != %s", again, stmt)
	}
}
