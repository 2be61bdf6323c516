package plan

import (
	"math"

	"nlidb/internal/sqldata"
)

// Compiled scan predicates. A pushed-down conjunct of the shape
// column ⋈ literal (a comparison in either operand order, BETWEEN, IN over
// literals, IS [NOT] NULL, LIKE) is lowered at prepare time to a
// scanKernel: one loop over the column's payload that maps a selection
// vector to a selection vector, storing every candidate and advancing the
// output cursor by the test's 0 or 1, with no evaluation context, gathered
// copy or boolean mask in between. Whatever else is pushed down stays on
// evalVec (scanFiltered).
//
// A kernel's test ignores NULL slots (their payload is the zero value) and
// a second pass over the survivors drops them, so a column without NULLs —
// the common one — pays nothing for them. The numeric tests are all one
// form, a closed range or its complement, with the literal folded into the
// column's own domain when the plan is prepared:
//
//   - an INT or DATE column keeps lo <= x <= hi as one unsigned compare;
//     a FLOAT literal is folded to the integers on either side of it
//     (intCut), which is CompareIntFloat's order exactly, |f| >= 2^63, ±Inf
//     and NaN (below every integer) included;
//   - a FLOAT column keeps lo <= x <= hi, which no NaN passes, so the
//     operators a NaN does pass — it sorts below every number — are
//     compiled as the complement of the ones it does not; an INT literal is
//     folded to the floats on either side of it (floatCut);
//   - a TEXT or BOOL column is looked up in a truth table that the generic
//     evaluator fills once per run from the column's distinct values — the
//     dictionary, or false and true — so =, <, IN and LIKE over any number
//     of rows cost len(Dict) string operations.
type kernKind uint8

const (
	kernNone       kernKind = iota // no row: a NULL operand decides every row UNKNOWN
	kernAll                        // every row, NULL or not: NOT IN ()
	kernIsNull                     // the null mask, or with neg its complement
	kernIntRange                   // INT, DATE
	kernFloatRange                 // FLOAT
	kernIntSet                     // INT, DATE: IN
	kernFloatSet                   // FLOAT: IN
	kernTable                      // TEXT, BOOL
)

type scanKernel struct {
	kind kernKind
	col  int  // table-local column
	neg  bool // keep the rows the test rejects (NULL rows are dropped either way)

	ilo   int64 // kernIntRange: ilo <= x <= ilo+span
	span  uint64
	flo   float64 // kernFloatRange: flo <= x <= fhi
	fhi   float64
	ints  []int64 // kernIntSet
	flts  []float64
	nanIn bool  // kernFloatSet: NaN is in the list
	expr  bexpr // kernTable: the conjunct itself
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// litValue is the value of a literal operand: a literal, or the negation
// of a numeric (or NULL) one — how the parser delivers -5 — folded the way
// evalExpr negates it.
func litValue(e bexpr) (sqldata.Value, bool) {
	switch t := e.(type) {
	case *bLit:
		return t.v, true
	case *bUnary:
		if l, ok := t.x.(*bLit); ok && t.op == "-" {
			switch {
			case l.v.Null:
				return l.v, true
			case l.v.T == sqldata.TypeInt:
				return sqldata.NewInt(-l.v.Int()), true
			case l.v.T == sqldata.TypeFloat:
				return sqldata.NewFloat(-l.v.Float()), true
			}
		}
	}
	return sqldata.Value{}, false
}

// colAndLit splits a binary comparison into its level-0 column and literal
// operands, mirroring the operator when the literal is on the left.
func colAndLit(b *bBinary) (*bCol, sqldata.Value, string, bool) {
	switch b.op {
	case "=", "!=", "<", "<=", ">", ">=":
	default:
		return nil, sqldata.Value{}, "", false
	}
	if c, ok := b.l.(*bCol); ok && c.level == 0 {
		if v, ok := litValue(b.r); ok {
			return c, v, b.op, true
		}
	}
	if c, ok := b.r.(*bCol); ok && c.level == 0 {
		if v, ok := litValue(b.l); ok {
			op := b.op
			if op != "=" && op != "!=" {
				op = flipOp(op)
			}
			return c, v, op, true
		}
	}
	return nil, sqldata.Value{}, "", false
}

// numericPair reports whether a literal of type lit compares numerically
// with a column of type col, the pairs the range and set kernels cover.
func numericPair(col, lit sqldata.Type) bool {
	if col == sqldata.TypeDate {
		return lit == sqldata.TypeDate
	}
	return col.Numeric() && lit.Numeric()
}

// compileKernel lowers one pushed-down conjunct, or returns nil when it is
// not of a kernel shape. The caller has established vecPred(e), so operand
// types are comparable; anything unexpected stays generic.
func compileKernel(e bexpr) *scanKernel {
	switch t := e.(type) {
	case *bBinary:
		c, lit, op, ok := colAndLit(t)
		if !ok {
			return nil
		}
		k := &scanKernel{col: c.off}
		switch {
		case lit.Null:
			k.kind = kernNone
		case c.typ == sqldata.TypeText || c.typ == sqldata.TypeBool:
			k.kind, k.expr = kernTable, e
		case !numericPair(c.typ, lit.T):
			return nil
		case c.typ == sqldata.TypeFloat:
			k.floatCmp(op, lit)
		default:
			k.intCmp(op, lit)
		}
		return k

	case *bBetween:
		c, ok := t.x.(*bCol)
		lo, lok := litValue(t.lo)
		hi, hok := litValue(t.hi)
		if !ok || c.level != 0 || !lok || !hok {
			return nil
		}
		k := &scanKernel{col: c.off}
		switch {
		case lo.Null || hi.Null:
			k.kind = kernNone
		case c.typ == sqldata.TypeText || c.typ == sqldata.TypeBool:
			k.kind, k.expr = kernTable, e
		case !numericPair(c.typ, lo.T) || !numericPair(c.typ, hi.T):
			return nil
		case c.typ == sqldata.TypeFloat:
			k.floatBetween(lo, hi, t.not)
		default:
			k.intBetween(lo, hi, t.not)
		}
		return k

	case *bIn:
		c, ok := t.x.(*bCol)
		if !ok || c.level != 0 || t.sub != nil {
			return nil
		}
		k := &scanKernel{col: c.off, neg: t.not}
		sawNull := false
		for _, el := range t.list {
			v, ok := litValue(el)
			if !ok {
				return nil
			}
			switch {
			case v.Null:
				sawNull = true
			case c.typ == sqldata.TypeText || c.typ == sqldata.TypeBool:
			case !numericPair(c.typ, v.T):
				return nil
			case c.typ == sqldata.TypeFloat:
				if litNaN(v) {
					k.nanIn = true
				} else if ge, le := floatCut(v); ge == le {
					k.flts = append(k.flts, ge)
				}
			default:
				if ge, gt, geOK, gtOK := intCut(v); geOK && (!gtOK || ge < gt) {
					k.ints = append(k.ints, ge)
				}
			}
		}
		switch {
		case len(t.list) == 0: // x IN () is FALSE even for a NULL x
			k.kind = kernNone
			if t.not {
				k.kind = kernAll
			}
		case sawNull && t.not: // a miss is UNKNOWN, a hit FALSE
			k.kind = kernNone
		case c.typ == sqldata.TypeText || c.typ == sqldata.TypeBool:
			k.kind, k.expr = kernTable, e
		case c.typ == sqldata.TypeFloat:
			k.kind = kernFloatSet
		default:
			k.kind = kernIntSet
		}
		return k

	case *bIsNull:
		if c, ok := t.x.(*bCol); ok && c.level == 0 {
			return &scanKernel{kind: kernIsNull, col: c.off, neg: t.not}
		}

	case *bLike:
		if c, ok := t.x.(*bCol); ok && c.level == 0 && c.typ == sqldata.TypeText {
			return &scanKernel{kind: kernTable, col: c.off, expr: e}
		}
	}
	return nil
}

// intCut places an INT, DATE or FLOAT literal among the int64s in
// sqldata.Compare's order: ge is the least integer at or above it and gt
// the least one above it, each with whether there is one.
func intCut(v sqldata.Value) (ge, gt int64, geOK, gtOK bool) {
	if v.T != sqldata.TypeFloat {
		i, isInt := v.IntOK()
		if !isInt {
			i = v.DateDays()
		}
		return i, i + 1, true, i < math.MaxInt64
	}
	f := v.Float()
	switch {
	case sqldata.CompareIntFloat(math.MinInt64, f) > 0: // below every integer, where NaN sorts too
		return math.MinInt64, math.MinInt64, true, true
	case sqldata.CompareIntFloat(math.MaxInt64, f) < 0: // above every integer
		return 0, 0, false, false
	}
	// Floor and Ceil of f in [-2^63, 2^63) convert exactly, and floor+1
	// cannot overflow: the largest such float is 2^63-1024.
	return int64(math.Ceil(f)), int64(math.Floor(f)) + 1, true, true
}

// setIntRange keeps lo <= x <= hi (nothing when !ok or the range is
// empty), or with neg every other non-NULL row.
func (k *scanKernel) setIntRange(lo, hi int64, ok, neg bool) {
	if !ok || lo > hi { // nothing: the complement of everything
		lo, hi, neg = math.MinInt64, math.MaxInt64, !neg
	}
	k.kind, k.ilo, k.span, k.neg = kernIntRange, lo, uint64(hi)-uint64(lo), neg
}

func (k *scanKernel) intCmp(op string, lit sqldata.Value) {
	ge, gt, geOK, gtOK := intCut(lit)
	switch op {
	case ">=":
		k.setIntRange(ge, math.MaxInt64, geOK, false)
	case "<":
		k.setIntRange(ge, math.MaxInt64, geOK, true)
	case ">":
		k.setIntRange(gt, math.MaxInt64, gtOK, false)
	case "<=":
		k.setIntRange(gt, math.MaxInt64, gtOK, true)
	default: // =, !=: the literal is an integer when something is at it but not above
		k.setIntRange(ge, ge, geOK && (!gtOK || ge < gt), op == "!=")
	}
}

func (k *scanKernel) intBetween(lo, hi sqldata.Value, not bool) {
	ge, _, geOK, _ := intCut(lo)
	_, gt, _, gtOK := intCut(hi)
	le := int64(math.MaxInt64) // the greatest integer at or below hi
	if gtOK {
		le = gt - 1
	}
	k.setIntRange(ge, le, geOK && !(gtOK && gt == math.MinInt64), not)
}

// floatCut places a non-NaN FLOAT or an INT literal among the float64s:
// ge is the least float at or above it, le the greatest at or below, the
// same float exactly when the literal is one.
func floatCut(v sqldata.Value) (ge, le float64) {
	if v.T == sqldata.TypeFloat {
		return v.Float(), v.Float()
	}
	i := v.Int()
	f := float64(i) // nearest; which side of i it fell on decides the cut
	switch c := sqldata.CompareIntFloat(i, f); {
	case c < 0:
		return f, math.Nextafter(f, math.Inf(-1))
	case c > 0:
		return math.Nextafter(f, math.Inf(1)), f
	}
	return f, f
}

// setFloatRange keeps lo <= x <= hi — never a NaN — or with neg every
// other non-NULL row, NaN included.
func (k *scanKernel) setFloatRange(lo, hi float64, neg bool) {
	k.kind, k.flo, k.fhi, k.neg = kernFloatRange, lo, hi, neg
}

// Over the floats, "no row" is the empty range and "every number" the full
// one; their complements are "every row" and "NaN only".
var (
	posInf = math.Inf(1)
	negInf = math.Inf(-1)
)

func (k *scanKernel) floatCmp(op string, lit sqldata.Value) {
	if litNaN(lit) { // NaN equals NaN and is below every number
		switch op {
		case ">=":
			k.setFloatRange(posInf, negInf, true) // every row
		case "<":
			k.setFloatRange(posInf, negInf, false) // none
		case ">", "!=":
			k.setFloatRange(negInf, posInf, false) // the numbers
		default: // <=, =
			k.setFloatRange(negInf, posInf, true) // the NaNs
		}
		return
	}
	// A NaN x is below the literal: it passes <, <= and != and fails the
	// rest, which is what complementing a range no NaN is in gives.
	ge, le := floatCut(lit)
	switch op {
	case ">=":
		k.setFloatRange(ge, posInf, false)
	case "<":
		k.setFloatRange(ge, posInf, true)
	case ">", "<=":
		gt := math.Nextafter(le, posInf) // +Inf stays +Inf, so exclude it by hand
		hi := posInf
		if le == posInf {
			hi = negInf
		}
		k.setFloatRange(gt, hi, op == "<=")
	default: // =, !=
		if ge != le {
			ge, le = posInf, negInf
		}
		k.setFloatRange(ge, le, op == "!=")
	}
}

func litNaN(v sqldata.Value) bool { return v.T == sqldata.TypeFloat && v.Float() != v.Float() }

func (k *scanKernel) floatBetween(lo, hi sqldata.Value, not bool) {
	switch {
	case litNaN(lo) && litNaN(hi): // x = NaN
		k.setFloatRange(negInf, posInf, true)
	case litNaN(lo): // x >= NaN always holds
		k.floatCmp("<=", hi)
	case litNaN(hi): // only a NaN is <= NaN, and a NaN is not >= lo
		k.setFloatRange(posInf, negInf, false)
	default:
		ge, _ := floatCut(lo)
		_, le := floatCut(hi)
		k.setFloatRange(ge, le, false)
	}
	k.neg = k.neg != not
}

// truthTable decides a kernTable conjunct once per distinct value of its
// column: tt[1+d] for dictionary entry d (or tt[1], tt[2] for false, true),
// with tt[0] — where a NULL slot's code of -1 lands — always false.
func (r *vrun) truthTable(k *scanKernel, cv *sqldata.ColumnVector) []bool {
	dom := vcol{t: cv.Type, texts: cv.Dict}
	n := len(cv.Dict)
	if cv.Type == sqldata.TypeBool {
		dom.bools, n = []bool{false, true}, 2
	}
	v := evalVec(cachedCtx(r.a, n, k.col+1, func(int) vcol { return dom }), k.expr)
	tt := r.a.b.raw(n + 1)
	tt[0] = false
	for d := 0; d < n; d++ {
		b, isNull := v.boolAt(d)
		tt[d+1] = b && !isNull
	}
	return tt
}

// runKernel maps sel (nil = rows 0..n-1 of the table) to the rows k
// keeps, in order. A non-nil sel is the run's own scratch and is compacted
// in place; the identity gets a buffer of n that is cut back to what it
// came to hold, and stays nil when every row passes, so the operators
// above keep reading the columns in place.
func (r *vrun) runKernel(k *scanKernel, cv *sqldata.ColumnVector, sel []int32, n int) []int32 {
	switch k.kind {
	case kernNone:
		return []int32{}
	case kernAll:
		return sel
	case kernIsNull:
		if cv.NullMask == nil {
			if k.neg {
				return sel
			}
			return []int32{}
		}
	}
	out := sel
	if sel == nil {
		out = r.a.i32.raw(n)
	}
	neg := b2i(k.neg)
	o := 0
	switch k.kind {
	case kernIsNull:
		null := cv.NullMask
		for p := 0; p < n; p++ {
			i := int32(p)
			if sel != nil {
				i = sel[p]
			}
			out[o] = i
			o += b2i(null[i]) ^ neg
		}
	case kernIntRange:
		xs, lo, span := cv.Ints, uint64(k.ilo), k.span
		for p := 0; p < n; p++ {
			i := int32(p)
			if sel != nil {
				i = sel[p]
			}
			out[o] = i
			o += b2i(uint64(xs[i])-lo <= span) ^ neg
		}
	case kernFloatRange:
		xs, lo, hi := cv.Floats, k.flo, k.fhi
		for p := 0; p < n; p++ {
			i := int32(p)
			if sel != nil {
				i = sel[p]
			}
			x := xs[i]
			out[o] = i
			o += (b2i(x >= lo) & b2i(x <= hi)) ^ neg
		}
	case kernIntSet:
		xs := cv.Ints
		for p := 0; p < n; p++ {
			i := int32(p)
			if sel != nil {
				i = sel[p]
			}
			x, m := xs[i], 0
			for _, v := range k.ints {
				m |= b2i(x == v)
			}
			out[o] = i
			o += m ^ neg
		}
	case kernFloatSet:
		xs, nan := cv.Floats, b2i(k.nanIn)
		for p := 0; p < n; p++ {
			i := int32(p)
			if sel != nil {
				i = sel[p]
			}
			x := xs[i]
			m := b2i(x != x) & nan
			for _, v := range k.flts {
				m |= b2i(x == v)
			}
			out[o] = i
			o += m ^ neg
		}
	case kernTable:
		tt := r.truthTable(k, cv)
		if cv.Type == sqldata.TypeBool {
			xs := cv.Bools
			for p := 0; p < n; p++ {
				i := int32(p)
				if sel != nil {
					i = sel[p]
				}
				out[o] = i
				o += b2i(tt[1+b2i(xs[i])])
			}
			break
		}
		codes := cv.Codes
		for p := 0; p < n; p++ {
			i := int32(p)
			if sel != nil {
				i = sel[p]
			}
			out[o] = i
			o += b2i(tt[1+codes[i]])
		}
	}
	if cv.NullMask != nil && k.kind != kernIsNull && !(k.kind == kernTable && cv.Type == sqldata.TypeText) {
		kept := o
		o = 0
		for _, i := range out[:kept] {
			out[o] = i
			o += b2i(!cv.NullMask[i])
		}
	}
	if sel != nil {
		return out[:o]
	}
	if o == n {
		r.a.i32.shrink(out, 0)
		return nil
	}
	return r.a.i32.shrink(out, o)
}
