package plan

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"nlidb/internal/sqldata"
)

// The vectorized executor runs a compiled vplan batch-at-a-time over the
// tables' typed column vectors (sqldata.Columnar). The working set is a
// set of selection vectors — one row-index array per FROM table — so
// filters and joins only shuffle int32 indices until the final emit
// boxes result rows. Observable behavior is contractually identical to
// the row-at-a-time executor: same results in the same order, the same
// Usage totals and budget errors, the same operator spans and EXPLAIN
// ANALYZE row counts. Only cancellation granularity differs (per batch
// instead of every 64 rows).

// vcol is one evaluated expression over the working set: a typed payload
// slice plus an optional null mask. cnst marks a broadcast scalar whose
// slices have length 1. A TEXT lane that is a plain column reference
// carries the column's dictionary codes and no texts (textAt reads the
// dictionary), so its equality key is an integer; texts holds computed and
// constant text only.
type vcol struct {
	t    sqldata.Type
	cnst bool
	null []bool

	ints   []int64 // TypeInt, TypeDate
	floats []float64
	texts  []string
	bools  []bool

	codes []int32 // TypeText column reference: index into dict
	dict  []string
}

func (c *vcol) ix(i int) int {
	if c.cnst {
		return 0
	}
	return i
}

func (c *vcol) nullAt(i int) bool {
	return c.null != nil && c.null[c.ix(i)]
}

// textAt reads lane i (already through ix) of a TEXT vcol.
func (c *vcol) textAt(i int) string {
	if c.texts != nil {
		return c.texts[i]
	}
	return c.dict[c.codes[i]]
}

// boolAt reads a three-valued boolean lane.
func (c *vcol) boolAt(i int) (b, isNull bool) {
	i = c.ix(i)
	if c.null != nil && c.null[i] {
		return false, true
	}
	return c.bools[i], false
}

// asFloat widens an int lane to float64, matching Value.Float.
func (c *vcol) asFloat(i int) float64 {
	if c.t == sqldata.TypeFloat {
		return c.floats[i]
	}
	return float64(c.ints[i])
}

// value boxes one lane back into a Value.
func (c *vcol) value(i int) sqldata.Value {
	i = c.ix(i)
	if c.null != nil && c.null[i] {
		return sqldata.NullValue()
	}
	switch c.t {
	case sqldata.TypeInt:
		return sqldata.NewInt(c.ints[i])
	case sqldata.TypeFloat:
		return sqldata.NewFloat(c.floats[i])
	case sqldata.TypeText:
		return sqldata.NewText(c.textAt(i))
	case sqldata.TypeBool:
		return sqldata.NewBool(c.bools[i])
	case sqldata.TypeDate:
		return sqldata.NewDateDays(c.ints[i])
	}
	return sqldata.NullValue()
}

// vconst broadcasts one scalar.
func vconst(v sqldata.Value) vcol {
	c := vcol{cnst: true}
	if v.Null {
		c.null = []bool{true}
		return c
	}
	c.t = v.T
	switch v.T {
	case sqldata.TypeInt:
		c.ints = []int64{v.Int()}
	case sqldata.TypeFloat:
		c.floats = []float64{v.Float()}
	case sqldata.TypeText:
		c.texts = []string{v.Text()}
	case sqldata.TypeBool:
		c.bools = []bool{v.Bool()}
	case sqldata.TypeDate:
		c.ints = []int64{v.DateDays()}
	}
	return c
}

// cmpVC compares lane i of a with lane j of b, mirroring sqldata.Compare
// exactly (int-vs-float without lossy widening, NaN == NaN and below all
// numbers). Only called on lanes whose static types are comparable.
func cmpVC(a *vcol, i int, b *vcol, j int) int {
	switch {
	case a.t == sqldata.TypeInt && b.t == sqldata.TypeInt,
		a.t == sqldata.TypeDate && b.t == sqldata.TypeDate:
		return cmpI64(a.ints[i], b.ints[j])
	case a.t == sqldata.TypeInt && b.t == sqldata.TypeFloat:
		return sqldata.CompareIntFloat(a.ints[i], b.floats[j])
	case a.t == sqldata.TypeFloat && b.t == sqldata.TypeInt:
		return -sqldata.CompareIntFloat(b.ints[j], a.floats[i])
	case a.t == sqldata.TypeFloat && b.t == sqldata.TypeFloat:
		return cmpF64(a.floats[i], b.floats[j])
	case a.t == sqldata.TypeText && b.t == sqldata.TypeText:
		return strings.Compare(a.textAt(i), b.textAt(j))
	case a.t == sqldata.TypeBool && b.t == sqldata.TypeBool:
		switch {
		case !a.bools[i] && b.bools[j]:
			return -1
		case a.bools[i] && !b.bools[j]:
			return 1
		}
		return 0
	}
	return 0 // unreachable: static typing gates comparable pairs
}

func cmpI64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func cmpF64(a, b float64) int {
	switch {
	case a < b || (a != a && b == b): // NaN sorts below numbers
		return -1
	case a > b || (a == a && b != b):
		return 1
	}
	return 0
}

// gather materializes one column of the working set. idx == nil means
// identity (the vector itself, zero-copy); a negative index — possible
// only when padded — is a LEFT JOIN null pad.
func gather(a *arena, cv *sqldata.ColumnVector, idx []int32, padded bool) vcol {
	out := vcol{t: cv.Type}
	if idx == nil {
		out.null = cv.NullMask
		out.ints, out.floats, out.bools = cv.Ints, cv.Floats, cv.Bools
		out.codes, out.dict = cv.Codes, cv.Dict
		return out
	}
	n := len(idx)
	if padded || cv.NullMask != nil {
		out.null = a.b.raw(n)
		for i, ix := range idx {
			out.null[i] = ix < 0 || (cv.NullMask != nil && cv.NullMask[ix])
		}
	}
	switch cv.Type {
	case sqldata.TypeInt, sqldata.TypeDate:
		out.ints = a.i64.raw(n)
		for i, ix := range idx {
			if ix >= 0 {
				out.ints[i] = cv.Ints[ix]
			} else {
				out.ints[i] = 0
			}
		}
	case sqldata.TypeFloat:
		out.floats = a.f64.raw(n)
		for i, ix := range idx {
			if ix >= 0 {
				out.floats[i] = cv.Floats[ix]
			} else {
				out.floats[i] = 0
			}
		}
	case sqldata.TypeText:
		out.codes, out.dict = a.i32.raw(n), cv.Dict
		for i, ix := range idx {
			if ix >= 0 {
				out.codes[i] = cv.Codes[ix]
			} else {
				out.codes[i] = -1
			}
		}
	case sqldata.TypeBool:
		out.bools = a.b.raw(n)
		for i, ix := range idx {
			out.bools[i] = ix >= 0 && cv.Bools[ix]
		}
	}
	return out
}

// vctx supplies column vectors (gathered once per context) and alias
// slots to the vector evaluator; a is the run's scratch arena.
type vctx struct {
	n     int
	a     *arena
	raw   func(off int) vcol
	cols  []cachedCol // by offset
	slots []vcol
}

type cachedCol struct {
	c    vcol
	have bool
}

// cachedCtx returns a context over n tuples whose columns live at
// offsets 0..width-1.
func cachedCtx(a *arena, n, width int, raw func(off int) vcol) *vctx {
	return &vctx{n: n, a: a, raw: raw, cols: make([]cachedCol, width)}
}

func (ctx *vctx) get(off int) vcol {
	if cc := &ctx.cols[off]; !cc.have {
		cc.c, cc.have = ctx.raw(off), true
	}
	return ctx.cols[off].c
}

// evalVec evaluates a statically safe bound expression over the working
// set. Kernel dispatch follows the static types established by safeType,
// so no lane can raise an error the row evaluator would have raised.
func evalVec(ctx *vctx, e bexpr) vcol {
	n, a := ctx.n, ctx.a
	switch t := e.(type) {
	case *bLit:
		return vconst(t.v)

	case *bCol:
		return ctx.get(t.off)

	case *bAlias:
		return ctx.slots[t.slot]

	case *bBinary:
		if t.op == "AND" || t.op == "OR" {
			l, r := evalVec(ctx, t.l), evalVec(ctx, t.r)
			return evalBool3(a, t.op, &l, &r, n)
		}
		l, r := evalVec(ctx, t.l), evalVec(ctx, t.r)
		switch t.op {
		case "=", "!=", "<", "<=", ">", ">=":
			return evalCmp(a, t.op, &l, &r, n)
		default:
			return evalArith(a, t.op, &l, &r, n)
		}

	case *bUnary:
		x := evalVec(ctx, t.x)
		return evalUnary(a, t.op, &x, n)

	case *bFunc:
		x := evalVec(ctx, t.args[0])
		return evalFuncVec(a, t.name, &x, n)

	case *bIsNull:
		x := evalVec(ctx, t.x)
		m := laneCount(n, x.cnst)
		out := vcol{t: sqldata.TypeBool, cnst: x.cnst, bools: a.b.zeros(m)}
		for i := 0; i < m; i++ {
			out.bools[i] = x.nullAt(i) != t.not
		}
		return out

	case *bBetween:
		x := evalVec(ctx, t.x)
		lo := evalVec(ctx, t.lo)
		hi := evalVec(ctx, t.hi)
		cnst := x.cnst && lo.cnst && hi.cnst
		m := laneCount(n, cnst)
		out := vcol{t: sqldata.TypeBool, cnst: cnst, bools: a.b.zeros(m)}
		for i := 0; i < m; i++ {
			if x.nullAt(i) || lo.nullAt(i) || hi.nullAt(i) {
				out.setNull(a, i, m)
				continue
			}
			cl := cmpVC(&x, x.ix(i), &lo, lo.ix(i))
			ch := cmpVC(&x, x.ix(i), &hi, hi.ix(i))
			out.bools[i] = (cl >= 0 && ch <= 0) != t.not
		}
		return out

	case *bIn:
		x := evalVec(ctx, t.x)
		elems := make([]vcol, len(t.list))
		cnst := x.cnst
		for i, el := range t.list {
			elems[i] = evalVec(ctx, el)
			cnst = cnst && elems[i].cnst
		}
		m := laneCount(n, cnst)
		out := vcol{t: sqldata.TypeBool, cnst: cnst, bools: a.b.zeros(m)}
		for i := 0; i < m; i++ {
			if x.nullAt(i) {
				if len(elems) == 0 {
					out.bools[i] = t.not // x IN () is FALSE even for NULL probe
				} else {
					out.setNull(a, i, m)
				}
				continue
			}
			matched, sawNull := false, false
			for ei := range elems {
				el := &elems[ei]
				if el.nullAt(i) {
					sawNull = true
					continue
				}
				if cmpVC(&x, x.ix(i), el, el.ix(i)) == 0 {
					matched = true
					break
				}
			}
			switch {
			case matched:
				out.bools[i] = !t.not
			case sawNull:
				out.setNull(a, i, m)
			default:
				out.bools[i] = t.not
			}
		}
		return out

	case *bLike:
		x := evalVec(ctx, t.x)
		m := laneCount(n, x.cnst)
		out := vcol{t: sqldata.TypeBool, cnst: x.cnst, bools: a.b.zeros(m)}
		for i := 0; i < m; i++ {
			if x.nullAt(i) {
				out.setNull(a, i, m)
				continue
			}
			out.bools[i] = likeMatch(t.pattern, x.textAt(x.ix(i))) != t.not
		}
		return out
	}
	// Unreachable: compileVec only admits the expression forms above.
	out := vcol{cnst: true, null: []bool{true}}
	return out
}

func laneCount(n int, cnst bool) int {
	if cnst {
		return 1
	}
	return n
}

func (c *vcol) setNull(a *arena, i, m int) {
	if c.null == nil {
		c.null = a.b.zeros(m)
	}
	c.null[i] = true
}

func evalBool3(a *arena, op string, l, r *vcol, n int) vcol {
	cnst := l.cnst && r.cnst
	m := laneCount(n, cnst)
	out := vcol{t: sqldata.TypeBool, cnst: cnst, bools: a.b.zeros(m)}
	and := op == "AND"
	for i := 0; i < m; i++ {
		lb, ln := l.boolAt(i)
		rb, rn := r.boolAt(i)
		if and {
			switch {
			case (!ln && !lb) || (!rn && !rb):
				// false dominates
			case ln || rn:
				out.setNull(a, i, m)
			default:
				out.bools[i] = true
			}
		} else {
			switch {
			case (!ln && lb) || (!rn && rb):
				out.bools[i] = true
			case ln || rn:
				out.setNull(a, i, m)
			}
		}
	}
	return out
}

func evalCmp(a *arena, op string, l, r *vcol, n int) vcol {
	cnst := l.cnst && r.cnst
	m := laneCount(n, cnst)
	out := vcol{t: sqldata.TypeBool, cnst: cnst, bools: a.b.zeros(m)}
	for i := 0; i < m; i++ {
		if l.nullAt(i) || r.nullAt(i) {
			out.setNull(a, i, m)
			continue
		}
		c := cmpVC(l, l.ix(i), r, r.ix(i))
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
		default:
			ok = c >= 0
		}
		out.bools[i] = ok
	}
	return out
}

func evalArith(a *arena, op string, l, r *vcol, n int) vcol {
	cnst := l.cnst && r.cnst
	m := laneCount(n, cnst)
	if op != "/" && l.t == sqldata.TypeInt && r.t == sqldata.TypeInt {
		out := vcol{t: sqldata.TypeInt, cnst: cnst, ints: a.i64.zeros(m)}
		for i := 0; i < m; i++ {
			if l.nullAt(i) || r.nullAt(i) {
				out.setNull(a, i, m)
				continue
			}
			x, y := l.ints[l.ix(i)], r.ints[r.ix(i)]
			switch op {
			case "+":
				out.ints[i] = x + y
			case "-":
				out.ints[i] = x - y
			default:
				out.ints[i] = x * y
			}
		}
		return out
	}
	out := vcol{t: sqldata.TypeFloat, cnst: cnst, floats: a.f64.zeros(m)}
	for i := 0; i < m; i++ {
		if l.nullAt(i) || r.nullAt(i) {
			out.setNull(a, i, m)
			continue
		}
		x, y := l.asFloat(l.ix(i)), r.asFloat(r.ix(i))
		switch op {
		case "+":
			out.floats[i] = x + y
		case "-":
			out.floats[i] = x - y
		case "*":
			out.floats[i] = x * y
		default:
			if y == 0 {
				out.setNull(a, i, m) // division by zero yields NULL, like the row path
				continue
			}
			out.floats[i] = x / y
		}
	}
	return out
}

func evalUnary(a *arena, op string, x *vcol, n int) vcol {
	m := laneCount(n, x.cnst)
	if op == "NOT" {
		out := vcol{t: sqldata.TypeBool, cnst: x.cnst, bools: a.b.zeros(m)}
		for i := 0; i < m; i++ {
			b, isNull := x.boolAt(i)
			if isNull {
				out.setNull(a, i, m)
				continue
			}
			out.bools[i] = !b
		}
		return out
	}
	// unary minus over a statically numeric column
	out := vcol{t: x.t, cnst: x.cnst}
	if x.t == sqldata.TypeFloat {
		out.floats = a.f64.zeros(m)
	} else {
		out.ints = a.i64.zeros(m)
	}
	for i := 0; i < m; i++ {
		if x.nullAt(i) {
			out.setNull(a, i, m)
			continue
		}
		if x.t == sqldata.TypeFloat {
			out.floats[i] = -x.floats[x.ix(i)]
		} else {
			out.ints[i] = -x.ints[x.ix(i)]
		}
	}
	return out
}

func evalFuncVec(a *arena, name string, x *vcol, n int) vcol {
	m := laneCount(n, x.cnst)
	var out vcol
	switch name {
	case "LOWER", "UPPER":
		out = vcol{t: sqldata.TypeText, cnst: x.cnst, texts: make([]string, m)}
	case "ABS":
		out = vcol{t: x.t, cnst: x.cnst}
		if x.t == sqldata.TypeFloat {
			out.floats = a.f64.zeros(m)
		} else {
			out.ints = a.i64.zeros(m)
		}
	case "YEAR":
		out = vcol{t: sqldata.TypeInt, cnst: x.cnst, ints: a.i64.zeros(m)}
	default:
		return vcol{cnst: true, null: []bool{true}} // unreachable: gated by safeType
	}
	for i := 0; i < m; i++ {
		if x.nullAt(i) {
			out.setNull(a, i, m)
			continue
		}
		j := x.ix(i)
		switch name {
		case "LOWER":
			out.texts[i] = strings.ToLower(x.textAt(j))
		case "UPPER":
			out.texts[i] = strings.ToUpper(x.textAt(j))
		case "ABS":
			if x.t == sqldata.TypeFloat {
				v := x.floats[j]
				if v < 0 {
					v = -v
				}
				out.floats[i] = v
			} else {
				v := x.ints[j]
				if v < 0 {
					v = -v
				}
				out.ints[i] = v
			}
		case "YEAR":
			out.ints[i] = int64(time.Unix(x.ints[j]*86400, 0).UTC().Year())
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Plan execution over the working set.

// wset is the vectorized working set: one selection vector per FROM
// table (nil = identity over the whole table), all of length n. A
// negative index marks a LEFT JOIN null pad.
type wset struct {
	n   int
	idx [][]int32
}

type vrun struct {
	p      *Plan
	v      *vplan
	env    *execEnv
	st     *execState
	a      *arena
	cols   [][]*sqldata.ColumnVector
	nrows  []int
	placed int    // FROM tables 0..placed-1 are in the working set
	padded []bool // table joined as the right side of a LEFT JOIN
	ws     wset
	groups grouping // a grouped plan's, once aggregated
}

func (e *execEnv) setStat(nid, n int) {
	if e.stats != nil {
		e.stats[nid] = int64(n)
	}
}

func (e *execEnv) setFused(nid int) {
	if e.fused != nil {
		e.fused[nid] = true
	}
}

// runVec executes the compiled vectorized plan. All scratch memory comes
// from one pooled arena, released on return: the Result is built from
// fresh heap memory and the tables' immutable column snapshots only.
func (p *Plan) runVec(env *execEnv) (*sqldata.Result, error) {
	v := p.vec
	r := &vrun{
		p: p, v: v, env: env, st: env.st, a: getArena(),
		cols:   make([][]*sqldata.ColumnVector, len(p.tabs)),
		nrows:  make([]int, len(p.tabs)),
		padded: make([]bool, len(p.tabs)),
	}
	defer r.a.release()
	for k, tab := range p.tabs {
		cc := tab.Columnar()
		r.cols[k] = cc
		if len(cc) > 0 {
			r.nrows[k] = cc[0].Len
		}
	}

	sel, n0, err := r.scanFiltered(&v.scan0)
	if err != nil {
		return nil, err
	}
	env.setStat(v.scan0.nid, n0)
	r.ws = wset{n: n0, idx: make([][]int32, len(p.tabs))}
	r.ws.idx[v.scan0.tabIdx] = sel
	r.placed = 1

	fused := false // the last join aggregated as it probed
	for k := range v.joins {
		if fused, err = r.joinStep(&v.joins[k], v.fuse != nil && k == len(v.joins)-1); err != nil {
			return nil, err
		}
	}
	if fused {
		return r.emitGroups()
	}

	if v.residNid >= 0 {
		r.compact(r.predMask(r.wsCtx(), v.resid))
		env.setStat(v.residNid, r.ws.n)
		if err := r.st.checkCtx(); err != nil {
			return nil, err
		}
	}

	if !p.grouped {
		return r.emitRows()
	}
	if err := r.runGrouped(); err != nil {
		return nil, err
	}
	return r.emitGroups()
}

// ctxOver returns a fresh evaluation context over a working set.
func (r *vrun) ctxOver(ws wset) *vctx {
	return cachedCtx(r.a, ws.n, r.p.width, func(off int) vcol {
		k := r.p.tableAtOff(off)
		return gather(r.a, r.cols[k][off-r.p.toffs[k]], ws.idx[k], r.padded[k])
	})
}

func (r *vrun) wsCtx() *vctx { return r.ctxOver(r.ws) }

// lane is a group key or aggregate argument as keyWords and the aggregate
// loops take it, reading each tuple once: tuple i is element at(i) of c,
// which is an evaluated vcol or — sel non-nil — a table's column vectors
// themselves behind that table's selection vector.
type lane struct {
	c   vcol
	sel []int32
}

func (l *lane) at(i int) int {
	if l.sel != nil {
		return int(l.sel[i])
	}
	return l.c.ix(i)
}

// colLane evaluates e over the tuples of ws (ctx is over ws), handing a
// plain column reference over in place instead of gathering it into a copy
// first. Everything else, and a column that LEFT JOIN padding has put NULLs
// into, goes through evalVec.
func (r *vrun) colLane(ctx *vctx, ws wset, e bexpr) lane {
	if c, ok := e.(*bCol); ok && c.level == 0 {
		if k := r.p.tableAtOff(c.off); ws.idx[k] != nil && !r.padded[k] {
			return lane{c: gather(r.a, r.cols[k][c.off-r.p.toffs[k]], nil, false), sel: ws.idx[k]}
		}
	}
	return lane{c: evalVec(ctx, e)}
}

// truthMask is the definite truth of a boolean lane over n tuples: the
// lane's own payload when it has no NULLs (shared — not to be written),
// else a copy with the UNKNOWN lanes false.
func (r *vrun) truthMask(v *vcol, n int) []bool {
	if v.null == nil && !v.cnst {
		return v.bools[:n]
	}
	keep := r.a.b.raw(n)
	for i := range keep {
		b, isNull := v.boolAt(i)
		keep[i] = b && !isNull
	}
	return keep
}

// predMask evaluates safe conjuncts over ctx and ANDs their definite
// truth — identical to evaluating every conjunct per row, since safe
// conjuncts cannot error.
func (r *vrun) predMask(ctx *vctx, conj []bexpr) []bool {
	var keep []bool
	for k, c := range conj {
		v := evalVec(ctx, c)
		m := r.truthMask(&v, ctx.n)
		switch k {
		case 0:
			keep = m
		case 1: // keep may be a column's payload: own it before writing
			own := r.a.b.raw(ctx.n)
			for i := range own {
				own[i] = keep[i] && m[i]
			}
			keep = own
		default:
			for i := range keep {
				keep[i] = keep[i] && m[i]
			}
		}
	}
	return keep
}

// selectKept returns the entries of sel (nil = identity) where keep holds,
// at exact size: the one mask-to-selection routine, a single pass that
// stores every candidate and advances past the kept ones.
func (r *vrun) selectKept(sel []int32, keep []bool) []int32 {
	out := r.a.i32.raw(len(keep))
	o := 0
	for i, k := range keep {
		ix := int32(i)
		if sel != nil {
			ix = sel[i]
		}
		out[o] = ix
		o += b2i(k)
	}
	return r.a.i32.shrink(out, o)
}

// compact drops working-set tuples where keep is false.
func (r *vrun) compact(keep []bool) {
	out := make([][]int32, len(r.ws.idx))
	kept := 0
	for t := range r.ws.idx {
		if t < r.placed {
			out[t] = r.selectKept(r.ws.idx[t], keep)
			kept = len(out[t])
		}
	}
	r.ws = wset{n: kept, idx: out}
}

// scanFiltered applies a scan step's pushed-down filters as successive
// selection vectors, returning the surviving row indices (nil = whole
// table) and their count. It emits the scan span and charges the budget
// exactly like scanNode.rows. A compiled filter runs as its kernel and the
// rest through evalVec over the survivors so far — as does a truth-table
// kernel whose dictionary is longer than its input: filling the table is
// one evaluation per entry, so past that length deciding each surviving
// row is the cheaper (BenchmarkVecScanAgg/wide_dict, 64 rows against
// 200,000 entries: 0.26 ms, and 17.9 ms through the table).
func (r *vrun) scanFiltered(s *vscanStep) ([]int32, int, error) {
	cols := r.cols[s.tabIdx]
	n := r.nrows[s.tabIdx]
	if s.span != "" {
		sp := r.env.span.Child(s.span)
		if s.charge {
			if err := r.st.addRows(n); err != nil {
				sp.End()
				return nil, 0, err
			}
		}
		sp.Add("rows", int64(n))
		sp.End()
	}
	var sel []int32
	cur := n
	for i := range s.filters {
		f := &s.filters[i]
		if k := f.kernel; k != nil && !(k.kind == kernTable && len(cols[k.col].Dict) > cur) {
			sel = r.runKernel(k, cols[k.col], sel, cur)
		} else {
			sel = r.filterGeneric(cols, f.expr, sel, cur)
		}
		if sel != nil {
			cur = len(sel)
		}
		if err := r.st.checkCtx(); err != nil {
			return nil, 0, err
		}
	}
	return sel, cur, nil
}

// filterGeneric keeps the rows of sel (nil = rows 0..n-1) where a conjunct
// of any shape is definitely true, evaluating it over gathered copies of
// the columns it reads.
func (r *vrun) filterGeneric(cols []*sqldata.ColumnVector, e bexpr, sel []int32, n int) []int32 {
	ctx := cachedCtx(r.a, n, len(cols), func(off int) vcol { return gather(r.a, cols[off], sel, false) })
	v := evalVec(ctx, e)
	return r.selectKept(sel, r.truthMask(&v, n))
}

// joinStep hash-joins the working set with one scanned table, preserving
// the row executor's left-major output order and per-row join metering.
// Both inputs' keys are numbered in one id space (joinKeyIDs), the right
// rows are bucketed by id in scan order, and the candidate pairs are
// counted per left tuple, prefix-summed and filled at exact size — the
// same code whichever side the key table was built from. When fuse is set
// the join may instead aggregate as it probes (aggregateThrough), and says
// so.
func (r *vrun) joinStep(j *vjoinStep, fuse bool) (bool, error) {
	a := r.a
	leftN := r.ws.n
	rsel, rn, err := r.scanFiltered(&j.right)
	if err != nil {
		return false, err
	}
	r.env.setStat(j.right.nid, rn)
	rtab := j.right.tabIdx
	rcols := r.cols[rtab]

	sp := r.env.span.Child(j.span)
	sp.Add("left_rows", int64(leftN))
	sp.Add("right_rows", int64(rn))
	sp.SetAttr("algo", "hash")

	// Key lanes; a plain column is read in place (rKeys are right-table-
	// local, so the right side's is built here rather than by colLane).
	lctx := r.wsCtx()
	lk := make([]lane, len(j.lKeys))
	for i, e := range j.lKeys {
		lk[i] = r.colLane(lctx, r.ws, e)
	}
	rctx := cachedCtx(a, rn, len(rcols), func(off int) vcol { return gather(a, rcols[off], rsel, false) })
	rk := make([]lane, len(j.rKeys))
	for i, e := range j.rKeys {
		if c, ok := e.(*bCol); ok && c.level == 0 && rsel != nil {
			rk[i] = lane{c: gather(a, rcols[c.off], nil, false), sel: rsel}
		} else {
			rk[i] = lane{c: evalVec(rctx, e)}
		}
	}
	lkid, rkid, nk := r.joinKeyIDs(lk, rk, leftN, rn, j.buildLeft)
	if fuse {
		if ok, err := r.aggregateThrough(j, sp, lctx, rsel, rn, lkid, rkid, nk); ok || err != nil {
			return ok, err
		}
	}

	// Right rows per key id, in scan order.
	kstart := a.i32.zeros(int(nk) + 1)
	for _, k := range rkid {
		if k >= 0 {
			kstart[k+1]++
		}
	}
	unique := true // every key has exactly one right row: the primary-key side
	for k := int32(0); k < nk; k++ {
		unique = unique && kstart[k+1] == 1
		kstart[k+1] += kstart[k]
	}
	krows := a.i32.raw(int(kstart[nk]))
	fill := a.i32.raw(int(nk))
	copy(fill, kstart)
	for pos, k := range rkid {
		if k < 0 {
			continue
		}
		if rsel == nil {
			krows[fill[k]] = int32(pos)
		} else {
			krows[fill[k]] = rsel[pos]
		}
		fill[k]++
	}

	// Candidate pairs in left-major order (candL: working-set tuple,
	// candR: right-table row); starts bounds each left tuple's run.
	starts := a.i32.raw(leftN + 1)
	total, oneEach := 0, true
	for i, k := range lkid {
		starts[i] = int32(total)
		c := 0
		if k >= 0 {
			c = int(kstart[k+1] - kstart[k])
		}
		oneEach = oneEach && c == 1
		total += c
	}
	if total > math.MaxInt32 { // starts has wrapped; nothing has read it
		sp.End()
		return false, fmt.Errorf("sqlexec: %s matches more than %d row pairs", j.span, math.MaxInt32)
	}
	starts[leftN] = int32(total)
	candL, candR := a.i32.raw(total), a.i32.raw(total)
	if unique {
		// kstart[k] == k: krows is indexed by key id, and every matched
		// left tuple has the one candidate.
		for i, k := range lkid {
			if k >= 0 {
				c := starts[i]
				candL[c], candR[c] = int32(i), krows[k]
			}
		}
	} else {
		for i, k := range lkid {
			if k < 0 {
				continue
			}
			c := starts[i]
			for _, rr := range krows[kstart[k]:kstart[k+1]] {
				candL[c], candR[c] = int32(i), rr
				c++
			}
		}
	}

	// With no residual and no padding the candidates are the output. A
	// residual filters them, and LEFT JOIN pads a left tuple none of whose
	// candidates survive: count, then fill.
	outL, outR := candL, candR
	if len(j.residual) > 0 || j.leftJoin {
		var keep []bool
		if len(j.residual) > 0 && total > 0 {
			keep = r.predMask(r.ctxOver(r.joined(candL, candR, rtab, false)), j.residual)
		}
		outN := 0
		for i := 0; i < leftN; i++ {
			kept := 0
			for c := starts[i]; c < starts[i+1]; c++ {
				if keep == nil || keep[c] {
					kept++
				}
			}
			if kept == 0 && j.leftJoin {
				kept = 1
			}
			outN += kept
		}
		outL, outR = a.i32.raw(outN), a.i32.raw(outN)
		o := 0
		for i := 0; i < leftN; i++ {
			first := o
			for c := starts[i]; c < starts[i+1]; c++ {
				if keep == nil || keep[c] {
					outL[o], outR[o] = int32(i), candR[c]
					o++
				}
			}
			if o == first && j.leftJoin {
				outL[o], outR[o] = int32(i), -1
				o++
			}
		}
		oneEach = false
	}
	outN := len(outL)

	sp.Add("out_rows", int64(outN))
	sp.End()
	if err := r.st.addJoinRows(outN); err != nil {
		return false, err
	}
	r.env.setStat(j.nid, outN)

	r.ws = r.joined(outL, outR, rtab, oneEach)
	r.placed = rtab + 1
	r.padded[rtab] = j.leftJoin
	return false, r.st.checkCtx()
}

// joined returns the working set of the join pairs (l[c]: tuple of the
// current working set, rr[c]: row of table rtab). identity says l is
// 0..n-1 — every left tuple matched exactly once, the foreign-key case —
// so the placed tables' selection vectors carry over as they are.
func (r *vrun) joined(l, rr []int32, rtab int, identity bool) wset {
	out := wset{n: len(l), idx: slices.Clone(r.ws.idx)}
	if !identity {
		out = r.restrict(l)
	}
	out.idx[rtab] = rr
	return out
}

// restrict returns the tuples l of the working set, in that order, as a
// working set over the placed tables.
func (r *vrun) restrict(l []int32) wset {
	out := wset{n: len(l), idx: make([][]int32, len(r.ws.idx))}
	for t, idx := range r.ws.idx {
		switch {
		case t >= r.placed:
		case idx == nil:
			out.idx[t] = l
		default:
			ci := r.a.i32.raw(len(l))
			for c, li := range l {
				ci[c] = idx[li]
			}
			out.idx[t] = ci
		}
	}
	return out
}

// boxTuple materializes working-set tuple i as a full statement row.
func (r *vrun) boxTuple(i int) sqldata.Row {
	row := make(sqldata.Row, 0, r.p.width)
	for t := range r.p.tabs {
		idx := r.ws.idx[t]
		ri := int32(i)
		if idx != nil {
			ri = idx[i]
		}
		for _, cv := range r.cols[t] {
			if ri < 0 {
				row = append(row, sqldata.NullValue())
			} else {
				row = append(row, cv.Value(int(ri)))
			}
		}
	}
	return row
}

// emitRows projects the non-grouped working set. Without ORDER BY or
// DISTINCT it writes the rows straight into the Result; otherwise it runs
// the shared sort/distinct/limit tail.
func (r *vrun) emitRows() (*sqldata.Result, error) {
	p, st := r.p, r.st
	n := r.ws.n
	if !r.v.vecEmit {
		var out []outRow
		for i := 0; i < n; i++ {
			if err := st.tick(); err != nil {
				return nil, err
			}
			fr := &frame{row: r.boxTuple(i), parent: r.env.parent}
			if err := p.emitFrame(st, fr, &out); err != nil {
				return nil, err
			}
		}
		return p.finishRows(r.env, out, len(out))
	}

	ctx := r.wsCtx()
	var slots []vcol
	for _, it := range p.items {
		if it.star {
			for _, off := range it.offs {
				slots = append(slots, ctx.get(off))
			}
			continue
		}
		ctx.slots = slots
		slots = append(slots, evalVec(ctx, it.expr))
	}
	ctx.slots = slots
	keys := make([]vcol, len(p.orderBy))
	for i, o := range p.orderBy {
		keys[i] = evalVec(ctx, o.key)
	}

	if err := st.addRows(n); err != nil {
		return nil, err
	}

	if len(p.orderBy) == 0 && !p.distinct {
		m := n
		if p.limit >= 0 && p.limit < n {
			m = p.limit
		}
		r.env.setStat(p.nidProject, n)
		r.env.setStat(p.nidResult, m)
		res := &sqldata.Result{Columns: p.cols}
		if m > 0 {
			// Heap memory, not the arena: a cached answer shares its rows
			// across requests. Each row is a full slice expression, so an
			// append to one can never overwrite the next.
			w := len(slots)
			vals := make([]sqldata.Value, m*w)
			res.Rows = make([]sqldata.Row, m)
			for i := range res.Rows {
				row := vals[i*w : (i+1)*w : (i+1)*w]
				for s := range slots {
					row[s] = slots[s].value(i)
				}
				res.Rows[i] = row
			}
		}
		return res, nil
	}

	// Only the tuples the tail can return are boxed: the k a stable sort
	// puts first when ORDER BY is bounded (selected on the typed key
	// lanes), else all.
	var pick []int32 // nil = 0..m-1
	m := n
	if p.topk >= 0 && p.topk < n {
		pick = topK(n, p.topk, func(i, j int32) int { return p.cmpLanes(keys, int(i), int(j)) })
		m = len(pick)
	}
	out := make([]outRow, m)
	vals := make([]sqldata.Value, m*len(slots))
	kvals := make([]sqldata.Value, m*len(keys))
	for o := range out {
		i := o
		if pick != nil {
			i = int(pick[o])
		}
		proj := vals[o*len(slots) : (o+1)*len(slots) : (o+1)*len(slots)]
		for s := range slots {
			proj[s] = slots[s].value(i)
		}
		ks := kvals[o*len(keys) : (o+1)*len(keys) : (o+1)*len(keys)]
		for k := range keys {
			ks[k] = keys[k].value(i)
		}
		out[o] = outRow{proj: proj, keys: ks}
	}
	return p.finishRows(r.env, out, n)
}

// cmpLanes is cmpKeys over unboxed key lanes: the ORDER BY comparison of
// tuples i and j.
func (p *Plan) cmpLanes(keys []vcol, i, j int) int {
	for k, o := range p.orderBy {
		c := &keys[k]
		in, jn := c.nullAt(i), c.nullAt(j)
		if in || jn {
			if in && jn {
				continue
			}
			return o.nullOrder(in)
		}
		if x := cmpVC(c, c.ix(i), c, c.ix(j)); x != 0 {
			return o.directed(x)
		}
	}
	return 0
}
