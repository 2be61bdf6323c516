package plan

import "nlidb/internal/sqldata"

// Static expression analysis for the planner. Predicate push-down and
// hash-join key extraction reorder or skip evaluations, which is only
// sound for expressions that provably cannot raise a runtime error: the
// tree-walking semantics this pipeline replaces evaluated every conjunct
// on every row, so an optimization that skips rows must not skip errors.
// safeType proves error-freedom from the schema-declared column types
// (Table.Insert coerces every stored value to its declared type, so the
// static type is trustworthy).

// exprInfo summarizes which runtime features an expression uses.
type exprInfo struct {
	offs  []int // level-0 column offsets read
	sub   bool  // contains a sub-query
	agg   bool  // contains an aggregate
	alias bool  // reads a select-alias slot
}

func inspect(e bexpr, info *exprInfo) {
	switch t := e.(type) {
	case *bLit:
	case *bCol:
		if t.level == 0 {
			info.offs = append(info.offs, t.off)
		}
	case *bAlias:
		info.alias = true
	case *bBinary:
		inspect(t.l, info)
		inspect(t.r, info)
	case *bUnary:
		inspect(t.x, info)
	case *bFunc:
		for _, a := range t.args {
			inspect(a, info)
		}
	case *bAgg:
		info.agg = true
		if t.arg != nil {
			inspect(t.arg, info)
		}
	case *bIn:
		inspect(t.x, info)
		for _, el := range t.list {
			inspect(el, info)
		}
		if t.sub != nil {
			info.sub = true
		}
	case *bExists, *bScalarSub:
		info.sub = true
	case *bBetween:
		inspect(t.x, info)
		inspect(t.lo, info)
		inspect(t.hi, info)
	case *bLike:
		inspect(t.x, info)
	case *bIsNull:
		inspect(t.x, info)
	}
}

// sType is the static verdict on one expression: its type when statically
// known, whether it is provably the NULL literal, and whether evaluating
// it can never return an error. "known" means any non-NULL result has
// type t; runtime NULLs are always possible and are handled by the
// three-valued operators.
type sType struct {
	t     sqldata.Type
	known bool
	safe  bool
	null  bool // statically always NULL
}

func unsafe() sType { return sType{} }

// comparablePair reports whether Compare (after date coercion) can never
// fail for operands of the two verdicts: either side statically NULL, or
// both types known and identical or both numeric. TEXT/DATE pairs are
// excluded — their coercion fails on non-ISO text.
func comparablePair(l, r sType) bool {
	if l.null || r.null {
		return true
	}
	if !l.known || !r.known {
		return false
	}
	return l.t == r.t || (l.t.Numeric() && r.t.Numeric())
}

// boolish reports whether the verdict is acceptable where a BOOL operand
// is required under three-valued logic (BOOL or statically NULL).
func boolish(s sType) bool {
	return s.null || (s.known && s.t == sqldata.TypeBool)
}

// safeType computes the static verdict, mirroring the evaluator's checks
// case by case.
func safeType(e bexpr) sType {
	boolOK := sType{t: sqldata.TypeBool, known: true, safe: true}
	switch t := e.(type) {
	case *bLit:
		if t.v.Null {
			return sType{safe: true, null: true}
		}
		return sType{t: t.v.T, known: true, safe: true}

	case *bCol:
		return sType{t: t.typ, known: true, safe: true}

	case *bBinary:
		l, r := safeType(t.l), safeType(t.r)
		if !l.safe || !r.safe {
			return unsafe()
		}
		switch t.op {
		case "AND", "OR":
			if boolish(l) && boolish(r) {
				return boolOK
			}
		case "=", "!=", "<", "<=", ">", ">=":
			if comparablePair(l, r) {
				return boolOK
			}
		case "+", "-", "*", "/":
			if l.null || r.null {
				return sType{safe: true, null: true}
			}
			if l.known && r.known && l.t.Numeric() && r.t.Numeric() {
				if t.op != "/" && l.t == sqldata.TypeInt && r.t == sqldata.TypeInt {
					return sType{t: sqldata.TypeInt, known: true, safe: true}
				}
				return sType{t: sqldata.TypeFloat, known: true, safe: true}
			}
		}
		return unsafe()

	case *bUnary:
		x := safeType(t.x)
		if !x.safe {
			return unsafe()
		}
		switch t.op {
		case "NOT":
			if boolish(x) {
				return boolOK
			}
		case "-":
			if x.null {
				return sType{safe: true, null: true}
			}
			if x.known && x.t.Numeric() {
				return sType{t: x.t, known: true, safe: true}
			}
		}
		return unsafe()

	case *bFunc:
		if len(t.args) != 1 {
			return unsafe()
		}
		x := safeType(t.args[0])
		if !x.safe {
			return unsafe()
		}
		if x.null {
			return sType{safe: true, null: true}
		}
		if !x.known {
			return unsafe()
		}
		switch t.name {
		case "LOWER", "UPPER":
			if x.t == sqldata.TypeText {
				return sType{t: sqldata.TypeText, known: true, safe: true}
			}
		case "ABS":
			if x.t.Numeric() {
				return sType{t: x.t, known: true, safe: true}
			}
		case "YEAR":
			if x.t == sqldata.TypeDate {
				return sType{t: sqldata.TypeInt, known: true, safe: true}
			}
		}
		return unsafe()

	case *bIn:
		if t.sub != nil {
			return unsafe()
		}
		x := safeType(t.x)
		if !x.safe {
			return unsafe()
		}
		for _, el := range t.list {
			e := safeType(el)
			if !e.safe || !comparablePair(x, e) {
				return unsafe()
			}
		}
		return boolOK

	case *bBetween:
		x, lo, hi := safeType(t.x), safeType(t.lo), safeType(t.hi)
		if x.safe && lo.safe && hi.safe && comparablePair(x, lo) && comparablePair(x, hi) {
			return boolOK
		}
		return unsafe()

	case *bLike:
		x := safeType(t.x)
		if x.safe && (x.null || (x.known && x.t == sqldata.TypeText)) {
			return boolOK
		}
		return unsafe()

	case *bIsNull:
		x := safeType(t.x)
		if x.safe {
			return boolOK
		}
		return unsafe()
	}
	// bAgg, bExists, bScalarSub, bAlias: never safe to reorder.
	return unsafe()
}

// boundedK returns the LIMIT when the ORDER BY tail may keep just that
// many rows with a bounded heap instead of sorting them all, else -1.
// DISTINCT dedups after the sort, so it needs every row; and a key whose
// values are not statically of one comparable class could make Compare
// fail on some pair, which only the full sort is sure to reach.
func (p *Plan) boundedK() int {
	if len(p.orderBy) == 0 || p.limit < 0 || p.distinct {
		return -1
	}
	for _, o := range p.orderBy {
		if !p.sortTyped(o.key) {
			return -1
		}
	}
	return p.limit
}

// sortTyped reports whether any two non-NULL values e produces (in rows
// that were emitted, so e itself did not fail) compare without error: a
// statically typed safe expression, an aggregate with a numeric result
// or MIN/MAX of such an expression, or a select alias of one of those.
func (p *Plan) sortTyped(e bexpr) bool {
	switch t := e.(type) {
	case *bAlias:
		if t.level != 0 {
			return false
		}
		slot := 0
		for _, it := range p.items {
			if it.star {
				slot += len(it.offs)
				continue
			}
			if slot == t.slot {
				return p.sortTyped(it.expr)
			}
			slot++
		}
		return false
	case *bAgg:
		switch t.name {
		case "COUNT", "SUM", "AVG":
			return true
		case "MIN", "MAX":
			return t.arg != nil && safeType(t.arg).safe
		}
		return false
	}
	return safeType(e).safe
}

// predSafe reports whether e can serve as a pushed-down or hash-join
// predicate: evaluation can never error and the result is BOOL or NULL.
func predSafe(e bexpr) bool {
	s := safeType(e)
	return s.safe && boolish(s)
}

// rebase rewrites level-0 column offsets by delta, producing a copy. Only
// called on safe expressions, which by construction contain no aliases,
// aggregates, or sub-queries.
func rebase(e bexpr, delta int) bexpr {
	if delta == 0 {
		return e
	}
	switch t := e.(type) {
	case *bLit:
		return t
	case *bCol:
		if t.level != 0 {
			return t
		}
		return &bCol{level: 0, off: t.off + delta, typ: t.typ}
	case *bBinary:
		return &bBinary{op: t.op, l: rebase(t.l, delta), r: rebase(t.r, delta)}
	case *bUnary:
		return &bUnary{op: t.op, x: rebase(t.x, delta)}
	case *bFunc:
		args := make([]bexpr, len(t.args))
		for i, a := range t.args {
			args[i] = rebase(a, delta)
		}
		return &bFunc{name: t.name, args: args}
	case *bIn:
		list := make([]bexpr, len(t.list))
		for i, el := range t.list {
			list[i] = rebase(el, delta)
		}
		return &bIn{x: rebase(t.x, delta), not: t.not, list: list}
	case *bBetween:
		return &bBetween{x: rebase(t.x, delta), lo: rebase(t.lo, delta), hi: rebase(t.hi, delta), not: t.not}
	case *bLike:
		return &bLike{x: rebase(t.x, delta), pattern: t.pattern, not: t.not}
	case *bIsNull:
		return &bIsNull{x: rebase(t.x, delta), not: t.not}
	}
	return e
}
