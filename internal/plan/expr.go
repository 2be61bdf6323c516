package plan

import (
	"fmt"
	"math"
	"math/bits"
	"strings"

	"nlidb/internal/sqldata"
)

// frame is one statement's runtime evaluation context: the current tuple,
// the retained rows of the current group (nil outside grouped contexts —
// aggregates error there, matching the tree-walker's semantics), the
// partially built projection row (the source for select-alias references),
// and the enclosing statement's frame for correlated sub-queries.
type frame struct {
	row    sqldata.Row
	group  []sqldata.Row
	proj   sqldata.Row
	parent *frame
	// aggVals, when non-nil, short-circuits aggregate evaluation with
	// values the vectorized executor precomputed per group; the boxed
	// group tail (HAVING, projection, ORDER BY) then reuses the ordinary
	// expression evaluator without re-walking the group's rows.
	aggVals map[*bAgg]sqldata.Value
}

// at walks up level parent links. Levels are fixed at bind time, so the
// chain depth always suffices.
func (f *frame) at(level int) *frame {
	for ; level > 0; level-- {
		f = f.parent
	}
	return f
}

// bexpr is a bound expression: column references are tuple offsets, alias
// references are projection slots, sub-queries are compiled sub-plans.
// Bound expressions are immutable after binding — a cached Plan may be
// evaluated concurrently — so all evaluation state lives in frames and the
// execState.
type bexpr interface{ bnode() }

type bLit struct{ v sqldata.Value }

// bCol reads column off of the statement frame level levels up. typ is the
// schema-declared column type, used for static safety analysis (pushdown
// and hash-key eligibility), never for evaluation.
type bCol struct {
	level, off int
	typ        sqldata.Type
}

// bAlias reads projection slot slot of the frame level levels up. Alias
// slots are filled left-to-right during projection, so a bound alias always
// reads an already-computed value (the binder only resolves aliases
// registered before the reference site, mirroring the evaluation order).
type bAlias struct{ level, slot int }

type bBinary struct {
	op   string
	l, r bexpr
}

type bUnary struct {
	op string
	x  bexpr
}

type bFunc struct {
	name string
	args []bexpr
}

type bAgg struct {
	name     string
	distinct bool
	star     bool
	arg      bexpr // nil for COUNT(*)
}

type bIn struct {
	x    bexpr
	not  bool
	list []bexpr // nil when sub is set
	sub  *Plan   // nil when list is set
}

type bExists struct {
	not bool
	sub *Plan
}

type bScalarSub struct{ sub *Plan }

type bBetween struct {
	x, lo, hi bexpr
	not       bool
}

type bLike struct {
	x       bexpr
	pattern string
	not     bool
}

type bIsNull struct {
	x   bexpr
	not bool
}

func (*bLit) bnode()       {}
func (*bCol) bnode()       {}
func (*bAlias) bnode()     {}
func (*bBinary) bnode()    {}
func (*bUnary) bnode()     {}
func (*bFunc) bnode()      {}
func (*bAgg) bnode()       {}
func (*bIn) bnode()        {}
func (*bExists) bnode()    {}
func (*bScalarSub) bnode() {}
func (*bBetween) bnode()   {}
func (*bLike) bnode()      {}
func (*bIsNull) bnode()    {}

// evalPredicate evaluates a boolean expression under SQL three-valued
// logic and reports whether it is definitely TRUE (NULL counts as false,
// matching WHERE/HAVING/ON semantics).
func evalPredicate(st *execState, fr *frame, e bexpr) (bool, error) {
	v, err := evalExpr(st, fr, e)
	if err != nil {
		return false, err
	}
	if v.Null {
		return false, nil
	}
	b, ok := v.BoolOK()
	if !ok {
		return false, fmt.Errorf("sqlexec: predicate evaluated to %s, want BOOL", v.T)
	}
	return b, nil
}

// evalExpr evaluates a bound expression against fr. Boolean results use
// NULL for SQL UNKNOWN.
func evalExpr(st *execState, fr *frame, e bexpr) (sqldata.Value, error) {
	switch t := e.(type) {
	case *bLit:
		return t.v, nil

	case *bCol:
		return fr.at(t.level).row[t.off], nil

	case *bAlias:
		return fr.at(t.level).proj[t.slot], nil

	case *bBinary:
		return evalBinary(st, fr, t)

	case *bUnary:
		x, err := evalExpr(st, fr, t.x)
		if err != nil {
			return sqldata.Value{}, err
		}
		switch t.op {
		case "NOT":
			if x.Null {
				return sqldata.NullValue(), nil
			}
			b, ok := x.BoolOK()
			if !ok {
				return sqldata.Value{}, fmt.Errorf("sqlexec: NOT on %s", x.T)
			}
			return sqldata.NewBool(!b), nil
		case "-":
			if x.Null {
				return sqldata.NullValue(), nil
			}
			if n, ok := x.IntOK(); ok {
				return sqldata.NewInt(-n), nil
			}
			if f, ok := x.FloatOK(); ok {
				return sqldata.NewFloat(-f), nil
			}
			return sqldata.Value{}, fmt.Errorf("sqlexec: unary minus on %s", x.T)
		}
		return sqldata.Value{}, fmt.Errorf("sqlexec: unknown unary op %q", t.op)

	case *bFunc:
		return evalScalarFunc(st, fr, t)

	case *bAgg:
		if fr.aggVals != nil {
			if v, ok := fr.aggVals[t]; ok {
				return v, nil
			}
		}
		return evalAggregate(st, fr, t)

	case *bIn:
		return evalIn(st, fr, t)

	case *bExists:
		res, err := t.sub.runSub(st, fr)
		if err != nil {
			return sqldata.Value{}, err
		}
		return sqldata.NewBool((len(res.Rows) > 0) != t.not), nil

	case *bScalarSub:
		res, err := t.sub.runSub(st, fr)
		if err != nil {
			return sqldata.Value{}, err
		}
		if len(res.Columns) != 1 {
			return sqldata.Value{}, fmt.Errorf("sqlexec: scalar sub-query must return one column, got %d", len(res.Columns))
		}
		switch len(res.Rows) {
		case 0:
			return sqldata.NullValue(), nil
		case 1:
			return res.Rows[0][0], nil
		default:
			return sqldata.Value{}, fmt.Errorf("sqlexec: scalar sub-query returned %d rows", len(res.Rows))
		}

	case *bBetween:
		x, err := evalExpr(st, fr, t.x)
		if err != nil {
			return sqldata.Value{}, err
		}
		lo, err := evalExpr(st, fr, t.lo)
		if err != nil {
			return sqldata.Value{}, err
		}
		hi, err := evalExpr(st, fr, t.hi)
		if err != nil {
			return sqldata.Value{}, err
		}
		if x.Null || lo.Null || hi.Null {
			return sqldata.NullValue(), nil
		}
		x, lo = coerceDatePair(x, lo)
		x, hi = coerceDatePair(x, hi)
		cl, err := sqldata.Compare(x, lo)
		if err != nil {
			return sqldata.Value{}, err
		}
		ch, err := sqldata.Compare(x, hi)
		if err != nil {
			return sqldata.Value{}, err
		}
		return sqldata.NewBool((cl >= 0 && ch <= 0) != t.not), nil

	case *bLike:
		x, err := evalExpr(st, fr, t.x)
		if err != nil {
			return sqldata.Value{}, err
		}
		if x.Null {
			return sqldata.NullValue(), nil
		}
		s, ok := x.TextOK()
		if !ok {
			return sqldata.Value{}, fmt.Errorf("sqlexec: LIKE on %s", x.T)
		}
		return sqldata.NewBool(likeMatch(t.pattern, s) != t.not), nil

	case *bIsNull:
		x, err := evalExpr(st, fr, t.x)
		if err != nil {
			return sqldata.Value{}, err
		}
		return sqldata.NewBool(x.Null != t.not), nil
	}
	return sqldata.Value{}, fmt.Errorf("sqlexec: unsupported bound expression %T", e)
}

func evalBinary(st *execState, fr *frame, b *bBinary) (sqldata.Value, error) {
	// AND/OR get three-valued logic; both sides are always evaluated (no
	// short-circuit), so operand errors surface regardless of the verdict.
	if b.op == "AND" || b.op == "OR" {
		l, err := evalExpr(st, fr, b.l)
		if err != nil {
			return sqldata.Value{}, err
		}
		r, err := evalExpr(st, fr, b.r)
		if err != nil {
			return sqldata.Value{}, err
		}
		lb, lNull, err := boolOrNull(l)
		if err != nil {
			return sqldata.Value{}, err
		}
		rb, rNull, err := boolOrNull(r)
		if err != nil {
			return sqldata.Value{}, err
		}
		if b.op == "AND" {
			switch {
			case !lNull && !lb, !rNull && !rb:
				return sqldata.NewBool(false), nil
			case lNull || rNull:
				return sqldata.NullValue(), nil
			default:
				return sqldata.NewBool(true), nil
			}
		}
		switch {
		case !lNull && lb, !rNull && rb:
			return sqldata.NewBool(true), nil
		case lNull || rNull:
			return sqldata.NullValue(), nil
		default:
			return sqldata.NewBool(false), nil
		}
	}

	l, err := evalExpr(st, fr, b.l)
	if err != nil {
		return sqldata.Value{}, err
	}
	r, err := evalExpr(st, fr, b.r)
	if err != nil {
		return sqldata.Value{}, err
	}
	return applyBinary(b.op, l, r)
}

// applyBinary applies a comparison or arithmetic operator to two evaluated
// operands.
func applyBinary(op string, l, r sqldata.Value) (sqldata.Value, error) {
	switch op {
	case "=", "!=", "<", "<=", ">", ">=":
		if l.Null || r.Null {
			return sqldata.NullValue(), nil
		}
		l, r = coerceDatePair(l, r)
		c, err := sqldata.Compare(l, r)
		if err != nil {
			return sqldata.Value{}, fmt.Errorf("sqlexec: %s %s %s: %w", l.SQLLiteral(), op, r.SQLLiteral(), err)
		}
		var ok bool
		switch op {
		case "=":
			ok = c == 0
		case "!=":
			ok = c != 0
		case "<":
			ok = c < 0
		case "<=":
			ok = c <= 0
		case ">":
			ok = c > 0
		case ">=":
			ok = c >= 0
		}
		return sqldata.NewBool(ok), nil

	case "+", "-", "*", "/":
		if l.Null || r.Null {
			return sqldata.NullValue(), nil
		}
		if !l.T.Numeric() || !r.T.Numeric() {
			return sqldata.Value{}, fmt.Errorf("sqlexec: arithmetic %s on %s and %s", op, l.T, r.T)
		}
		if op != "/" {
			li, lok := l.IntOK()
			ri, rok := r.IntOK()
			if lok && rok {
				switch op {
				case "+":
					return sqldata.NewInt(li + ri), nil
				case "-":
					return sqldata.NewInt(li - ri), nil
				case "*":
					return sqldata.NewInt(li * ri), nil
				}
			}
		}
		a, aok := l.FloatOK()
		bb, bok := r.FloatOK()
		if !aok || !bok {
			return sqldata.Value{}, fmt.Errorf("sqlexec: arithmetic %s on %s and %s", op, l.T, r.T)
		}
		switch op {
		case "+":
			return sqldata.NewFloat(a + bb), nil
		case "-":
			return sqldata.NewFloat(a - bb), nil
		case "*":
			return sqldata.NewFloat(a * bb), nil
		default:
			if bb == 0 {
				return sqldata.NullValue(), nil // SQL engines raise; NULL keeps workloads total
			}
			return sqldata.NewFloat(a / bb), nil
		}
	}
	return sqldata.Value{}, fmt.Errorf("sqlexec: unknown operator %q", op)
}

func boolOrNull(v sqldata.Value) (b, isNull bool, err error) {
	if v.Null {
		return false, true, nil
	}
	bv, ok := v.BoolOK()
	if !ok {
		return false, false, fmt.Errorf("sqlexec: expected BOOL, got %s", v.T)
	}
	return bv, false, nil
}

// evalAggregate computes COUNT/SUM/AVG/MIN/MAX over the current group. The
// group check stays a runtime error (not a bind rejection): an aggregate in
// WHERE only fails on rows that are actually evaluated, so an empty input
// silently succeeds — exactly like the tree-walker did.
func evalAggregate(st *execState, fr *frame, f *bAgg) (sqldata.Value, error) {
	if fr.group == nil {
		return sqldata.Value{}, fmt.Errorf("sqlexec: aggregate %s outside grouped context", f.name)
	}
	if f.star {
		if f.name != "COUNT" {
			return sqldata.Value{}, fmt.Errorf("sqlexec: %s(*) is not valid", f.name)
		}
		return sqldata.NewInt(int64(len(fr.group))), nil
	}
	if f.arg == nil {
		// The binder leaves the argument nil on wrong arity, so the error
		// stays a runtime one — an empty input never reaches it.
		return sqldata.Value{}, fmt.Errorf("sqlexec: %s expects one argument", f.name)
	}

	var vals []sqldata.Value
	seen := map[string]bool{}
	for _, r := range fr.group {
		if err := st.tick(); err != nil {
			return sqldata.Value{}, err
		}
		// The per-row frame drops the group (nested aggregates error) and
		// the aliases, and chains to the statement's parent.
		rowFr := &frame{row: r, parent: fr.parent}
		v, err := evalExpr(st, rowFr, f.arg)
		if err != nil {
			return sqldata.Value{}, err
		}
		if v.Null {
			continue // aggregates skip NULLs
		}
		if f.distinct {
			k := v.Key()
			if seen[k] {
				continue
			}
			seen[k] = true
		}
		vals = append(vals, v)
	}

	switch f.name {
	case "COUNT":
		return sqldata.NewInt(int64(len(vals))), nil
	case "SUM", "AVG":
		if len(vals) == 0 {
			return sqldata.NullValue(), nil
		}
		allInt := true
		sum := 0.0
		var ihi, ilo uint64 // 128-bit two's-complement integer SUM accumulator
		for _, v := range vals {
			fv, ok := v.FloatOK()
			if !ok {
				return sqldata.Value{}, fmt.Errorf("sqlexec: %s over %s", f.name, v.T)
			}
			if iv, isInt := v.IntOK(); isInt {
				ihi, ilo = add128(ihi, ilo, iv)
			} else {
				allInt = false
			}
			sum += fv
		}
		if f.name == "SUM" {
			if allInt {
				// The 128-bit accumulator cannot wrap (that would take
				// 2^64 addends), so an out-of-int64-range total is
				// detected exactly and promoted to float instead of
				// silently wrapping.
				return int128Value(ihi, ilo), nil
			}
			return sqldata.NewFloat(sum), nil
		}
		return sqldata.NewFloat(sum / float64(len(vals))), nil
	case "MIN", "MAX":
		if len(vals) == 0 {
			return sqldata.NullValue(), nil
		}
		best := vals[0]
		for _, v := range vals[1:] {
			c, err := sqldata.Compare(v, best)
			if err != nil {
				return sqldata.Value{}, err
			}
			if (f.name == "MIN" && c < 0) || (f.name == "MAX" && c > 0) {
				best = v
			}
		}
		return best, nil
	}
	return sqldata.Value{}, fmt.Errorf("sqlexec: unknown aggregate %q", f.name)
}

// add128 adds a sign-extended int64 into a 128-bit two's-complement
// accumulator. SUM over int64 columns uses it so overflow of the int64
// range is detected exactly rather than wrapping silently — and since
// 128-bit integer addition is associative, the total is independent of
// accumulation order, which lets a fused join merge per-key partial sums
// (vfuse.merge).
func add128(hi, lo uint64, v int64) (uint64, uint64) {
	vhi := uint64(v >> 63) // arithmetic shift: sign extension
	nlo, carry := bits.Add64(lo, uint64(v), 0)
	nhi, _ := bits.Add64(hi, vhi, carry)
	return nhi, nlo
}

// int128Value renders a 128-bit two's-complement total as an INT when it
// fits int64, else as the nearest FLOAT (the overflow-promotion case).
func int128Value(hi, lo uint64) sqldata.Value {
	if (hi == 0 && lo < 1<<63) || (hi == ^uint64(0) && lo >= 1<<63) {
		return sqldata.NewInt(int64(lo))
	}
	// value = int64(hi)·2^64 + lo; hi is small (bounded by the addend
	// count), so the first term is exact and the result deterministic.
	return sqldata.NewFloat(math.Ldexp(float64(int64(hi)), 64) + float64(lo))
}

// evalScalarFunc evaluates the small set of supported scalar functions.
func evalScalarFunc(st *execState, fr *frame, f *bFunc) (sqldata.Value, error) {
	if len(f.args) != 1 {
		return sqldata.Value{}, fmt.Errorf("sqlexec: function %s expects one argument", f.name)
	}
	x, err := evalExpr(st, fr, f.args[0])
	if err != nil {
		return sqldata.Value{}, err
	}
	if x.Null {
		return sqldata.NullValue(), nil
	}
	switch f.name {
	case "LOWER":
		s, ok := x.TextOK()
		if !ok {
			return sqldata.Value{}, fmt.Errorf("sqlexec: LOWER on %s", x.T)
		}
		return sqldata.NewText(strings.ToLower(s)), nil
	case "UPPER":
		s, ok := x.TextOK()
		if !ok {
			return sqldata.Value{}, fmt.Errorf("sqlexec: UPPER on %s", x.T)
		}
		return sqldata.NewText(strings.ToUpper(s)), nil
	case "ABS":
		if v, ok := x.IntOK(); ok {
			if v < 0 {
				v = -v
			}
			return sqldata.NewInt(v), nil
		}
		if v, ok := x.FloatOK(); ok && x.T == sqldata.TypeFloat {
			if v < 0 {
				v = -v
			}
			return sqldata.NewFloat(v), nil
		}
		return sqldata.Value{}, fmt.Errorf("sqlexec: ABS on %s", x.T)
	case "YEAR":
		tm, ok := x.TimeOK()
		if !ok {
			return sqldata.Value{}, fmt.Errorf("sqlexec: YEAR on %s", x.T)
		}
		return sqldata.NewInt(int64(tm.Year())), nil
	}
	return sqldata.Value{}, fmt.Errorf("sqlexec: unknown function %q", f.name)
}

// evalIn evaluates list and sub-query IN with SQL NULL semantics: if no
// element matches but some element (or the probe) is NULL, the result is
// UNKNOWN rather than FALSE.
func evalIn(st *execState, fr *frame, in *bIn) (sqldata.Value, error) {
	x, err := evalExpr(st, fr, in.x)
	if err != nil {
		return sqldata.Value{}, err
	}

	var elems []sqldata.Value
	if in.sub != nil {
		res, err := in.sub.runSub(st, fr)
		if err != nil {
			return sqldata.Value{}, err
		}
		if len(res.Columns) != 1 {
			return sqldata.Value{}, fmt.Errorf("sqlexec: IN sub-query must return one column, got %d", len(res.Columns))
		}
		for _, r := range res.Rows {
			elems = append(elems, r[0])
		}
	} else {
		for _, e := range in.list {
			v, err := evalExpr(st, fr, e)
			if err != nil {
				return sqldata.Value{}, err
			}
			elems = append(elems, v)
		}
	}

	if x.Null {
		if len(elems) == 0 {
			return sqldata.NewBool(in.not), nil // x IN () is FALSE even for NULL probe
		}
		return sqldata.NullValue(), nil
	}
	sawNull := false
	for _, e := range elems {
		if e.Null {
			sawNull = true
			continue
		}
		x2, e2 := coerceDatePair(x, e)
		c, err := sqldata.Compare(x2, e2)
		if err != nil {
			return sqldata.Value{}, err
		}
		if c == 0 {
			return sqldata.NewBool(!in.not), nil
		}
	}
	if sawNull {
		return sqldata.NullValue(), nil
	}
	return sqldata.NewBool(in.not), nil
}

// coerceDatePair upgrades an ISO-formatted TEXT operand to DATE when the
// other operand is a DATE, so NL-generated SQL like hired > '2018-01-01'
// compares chronologically. Non-date-shaped text is left alone (Compare
// will then report the type error).
func coerceDatePair(a, b sqldata.Value) (sqldata.Value, sqldata.Value) {
	if a.T == sqldata.TypeDate && b.T == sqldata.TypeText {
		if d, err := sqldata.ParseDate(b.Text()); err == nil {
			return a, d
		}
	}
	if a.T == sqldata.TypeText && b.T == sqldata.TypeDate {
		if d, err := sqldata.ParseDate(a.Text()); err == nil {
			return d, b
		}
	}
	return a, b
}

// likeMatch implements SQL LIKE with % (any run) and _ (any single rune),
// case-insensitively (the common NLIDB-friendly collation). Classic
// two-pointer wildcard matching, linear in practice.
func likeMatch(pattern, s string) bool {
	p := []rune(strings.ToLower(pattern))
	t := []rune(strings.ToLower(s))
	pi, ti := 0, 0
	star, starTi := -1, 0
	for ti < len(t) {
		switch {
		case pi < len(p) && (p[pi] == '_' || p[pi] == t[ti]):
			pi++
			ti++
		case pi < len(p) && p[pi] == '%':
			star = pi
			starTi = ti
			pi++
		case star >= 0:
			pi = star + 1
			starTi++
			ti = starTi
		default:
			return false
		}
	}
	for pi < len(p) && p[pi] == '%' {
		pi++
	}
	return pi == len(p)
}
