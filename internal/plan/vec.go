package plan

import (
	"sort"

	"nlidb/internal/sqldata"
	"nlidb/internal/sqlparse"
)

// The vectorized compiler lowers an eligible Plan into a vplan: a linear
// sequence of columnar operators (filtered scan, batched hash join,
// vectorized filter, hash aggregate) over the tables' typed column
// vectors. Eligibility is deliberately conservative — whole-plan fallback
// to the row-at-a-time executor whenever any fragment could observe a
// difference — so the two engines are differentially testable against
// each other (see FuzzPlanExec and vec_test.go):
//
//   - no sub-queries anywhere in the statement (correlated frames are a
//     row-at-a-time concept);
//   - every join is a hash join (nested-loop ON conjuncts may error
//     mid-loop, which batching would reorder);
//   - every scanned/joined/filtered predicate is statically safe
//     (provably error-free), so batch evaluation cannot move an error;
//   - grouped plans precompute aggregates per group from the vectors,
//     feeding the ordinary boxed evaluator for HAVING/projection via
//     frame.aggVals — any unsupported aggregate shape falls back.
//
// Projection and ORDER BY keys run vectorized when every item is
// statically safe (vecEmit); otherwise the scan/join/filter pipeline
// still runs on vectors and only the final emit loop is boxed.
type vplan struct {
	scan0 vscanStep
	joins []vjoinStep
	// resid holds the residual WHERE conjuncts (the filterNode above the
	// joins); residNid < 0 when there is none.
	resid    []bexpr
	residNid int

	// vecEmit marks plans whose projection and sort keys all compile to
	// vector kernels; otherwise the emit loop boxes one frame per tuple.
	vecEmit bool

	// aggs lists every aggregate node reachable from the select items,
	// HAVING, and ORDER BY of a grouped plan, in collection order.
	aggs []*bAgg

	// fuse is set when the grouped plan's last join may aggregate as it
	// probes instead of materializing its output.
	fuse *vfuse
}

// vfuse says on which side of a grouped plan's last join the group keys
// and aggregate arguments lie. The join is a single-key INNER equi-join
// with no join or WHERE residual and no DISTINCT aggregate; whether it
// fuses is decided per run, by counting each key's tuples on the group
// keys' side (aggregateThrough).
type vfuse struct {
	dimLeft  bool // group keys read only the left input, aggregate arguments only the right table
	dimRight bool // group keys read only the right table, aggregate arguments only the left input
	// merge says every aggregate can be combined from per-key partials (no
	// float sum), so a group may own several left keys under dimLeft.
	merge bool
}

// vscanStep scans one FROM table, applying its pushed-down predicates as
// successive selection-vector filters, most selective first.
type vscanStep struct {
	nid     int
	tabIdx  int
	span    string
	charge  bool
	filters []vfilter
}

// vfilter is one pushed-down conjunct (table-local offsets), the kernel it
// compiled to — nil leaves it to evalVec — and the share of rows it is
// estimated to keep.
type vfilter struct {
	expr   bexpr
	kernel *scanKernel
	sel    float64
}

// scanStep returns the compiled step of the scan with stat slot nid, or nil
// (also for a nil plan).
func (v *vplan) scanStep(nid int) *vscanStep {
	if v == nil {
		return nil
	}
	if v.scan0.nid == nid {
		return &v.scan0
	}
	for k := range v.joins {
		if v.joins[k].right.nid == nid {
			return &v.joins[k].right
		}
	}
	return nil
}

// vjoinStep hash-joins the accumulated working set with one base table.
type vjoinStep struct {
	nid      int
	right    vscanStep
	leftJoin bool
	span     string
	// buildLeft numbers the join keys from the (estimated smaller) left
	// working set and looks the right rows' keys up, instead of the
	// reverse. Candidates are counted and filled per left tuple either
	// way, so output order stays left-major.
	buildLeft bool
	lKeys     []bexpr // statement-tuple offsets
	rKeys     []bexpr // right-table-local offsets
	residual  []bexpr // statement-tuple offsets over the combined row
}

// vecExpr reports whether the vector kernels can evaluate e with
// bit-identical results and error behavior: exactly the statically safe
// expressions (no aggregates, aliases, sub-queries, or coercing
// comparisons — safeType already excludes all of them).
func vecExpr(e bexpr) bool { return safeType(e).safe }

// vecPred is vecExpr restricted to statically boolean (or statically
// NULL) expressions. Conjuncts of any other type make evalPredicate
// error at runtime, so such plans stay on the row executor.
func vecPred(e bexpr) bool {
	s := safeType(e)
	return s.safe && (s.null || (s.known && s.t == sqldata.TypeBool))
}

// vecEmitExpr is vecExpr plus top-level select-alias references, which
// the emit stage resolves against already-computed item vectors.
func vecEmitExpr(e bexpr) bool {
	if a, ok := e.(*bAlias); ok {
		return a.level == 0
	}
	return vecExpr(e)
}

// compileVec lowers p to its vectorized form, or returns nil when any
// part requires row-at-a-time execution.
func compileVec(p *Plan) *vplan {
	if len(p.subplans) > 0 {
		return nil
	}
	v := &vplan{residNid: -1}

	n := p.src
	if f, ok := n.(*filterNode); ok {
		for _, c := range f.conj {
			if !vecPred(c) {
				return nil
			}
		}
		v.resid, v.residNid = f.conj, f.nid
		n = f.child
	}
	var chain []*joinNode
	for {
		j, ok := n.(*joinNode)
		if !ok {
			break
		}
		chain = append([]*joinNode{j}, chain...)
		n = j.left
	}
	s, ok := n.(*scanNode)
	if !ok {
		return nil
	}

	cc := &costCtx{tabs: p.tabs, toffs: p.toffs}
	scan, ok := compileScan(cc, s, 0)
	if !ok {
		return nil
	}
	v.scan0 = scan

	leftNid := s.nid
	for k, j := range chain {
		if j.algo != "hash" {
			return nil
		}
		for _, e := range j.lKeys {
			if !vecExpr(e) {
				return nil
			}
		}
		for _, e := range j.rKeys {
			if !vecExpr(e) {
				return nil
			}
		}
		for _, e := range j.residual {
			if !vecPred(e) {
				return nil
			}
		}
		right, ok := compileScan(cc, j.right, k+1)
		if !ok {
			return nil
		}
		step := vjoinStep{
			nid:      j.nid,
			right:    right,
			leftJoin: j.typ == sqlparse.JoinLeft,
			span:     j.span,
			lKeys:    j.lKeys,
			rKeys:    j.rKeys,
			residual: j.residual,
		}
		if p.est != nil {
			// Build on the smaller estimated side; the 2x margin keeps
			// the default (build right, probe left — the row executor's
			// shape) unless the left side is clearly smaller.
			el, er := p.est[leftNid], p.est[right.nid]
			step.buildLeft = el >= 0 && er >= 0 && el*2 < er
		}
		v.joins = append(v.joins, step)
		leftNid = j.nid
	}

	if p.grouped {
		for _, k := range p.groupKeys {
			if !vecExpr(k) {
				return nil
			}
		}
		var aggs []*bAgg
		collect := func(e bexpr) {
			aggs = append(aggs, collectAggs(e, aggs)...)
		}
		for _, it := range p.items {
			if !it.star {
				collect(it.expr)
			}
		}
		if p.having != nil {
			collect(p.having)
		}
		for _, o := range p.orderBy {
			collect(o.key)
		}
		for _, a := range aggs {
			if !vecAggOK(a) {
				return nil
			}
		}
		v.aggs = aggs
	} else {
		v.vecEmit = true
		for _, it := range p.items {
			if !it.star && !vecEmitExpr(it.expr) {
				v.vecEmit = false
				break
			}
		}
		if v.vecEmit {
			for _, o := range p.orderBy {
				if !vecEmitExpr(o.key) {
					v.vecEmit = false
					break
				}
			}
		}
	}

	v.fuse = compileFuse(p, v)
	return v
}

// compileFuse decides whether the grouped plan's last join may aggregate
// as it probes (see vfuse), or returns nil.
func compileFuse(p *Plan, v *vplan) *vfuse {
	if !p.grouped || len(v.joins) == 0 || v.residNid >= 0 {
		return nil
	}
	j := &v.joins[len(v.joins)-1]
	if j.leftJoin || len(j.lKeys) != 1 || len(j.residual) > 0 {
		return nil
	}
	// side reports whether the columns e reads lie only in the right table
	// (right) and only outside it (left); a constant does both.
	side := func(e bexpr) (left, right bool) {
		var info exprInfo
		inspect(e, &info)
		left, right = true, true
		for _, off := range info.offs {
			inRight := p.tableAtOff(off) == j.right.tabIdx
			left, right = left && !inRight, right && inRight
		}
		return left, right
	}
	f := &vfuse{dimLeft: true, dimRight: true, merge: true}
	for _, k := range p.groupKeys {
		l, r := side(k)
		f.dimLeft, f.dimRight = f.dimLeft && l, f.dimRight && r
	}
	for _, a := range v.aggs {
		if a.distinct {
			return nil
		}
		if a.star {
			continue
		}
		l, r := side(a.arg)
		f.dimLeft, f.dimRight = f.dimLeft && r, f.dimRight && l
		f.merge = f.merge && (a.name == "MIN" || a.name == "MAX" || exactAgg(a))
	}
	if !f.dimLeft && !f.dimRight {
		return nil
	}
	return f
}

// compileScan lowers one scanNode, compiling each pushed-down filter of a
// kernel shape (vkernel.go) and ordering them most selective first (a pure
// reordering: pushed conjuncts are statically safe and the row executor's
// short-circuit makes their order unobservable). The scanNode itself — and
// so EXPLAIN — is not mutated.
func compileScan(cc *costCtx, s *scanNode, tabIdx int) (vscanStep, bool) {
	for _, f := range s.filter {
		if !vecPred(f) {
			return vscanStep{}, false
		}
	}
	step := vscanStep{nid: s.nid, tabIdx: tabIdx, span: s.span, charge: s.charge}
	if len(s.filter) > 0 {
		for _, f := range s.filter {
			step.filters = append(step.filters, vfilter{expr: f, kernel: compileKernel(f), sel: cc.sel(f, tabIdx)})
		}
		sort.SliceStable(step.filters, func(i, j int) bool { return step.filters[i].sel < step.filters[j].sel })
	}
	return step, true
}

// collectAggs returns the aggregate nodes in e not already in seen.
func collectAggs(e bexpr, seen []*bAgg) []*bAgg {
	var out []*bAgg
	var walk func(e bexpr)
	have := func(a *bAgg) bool {
		for _, s := range seen {
			if s == a {
				return true
			}
		}
		for _, s := range out {
			if s == a {
				return true
			}
		}
		return false
	}
	walk = func(e bexpr) {
		switch t := e.(type) {
		case *bAgg:
			if !have(t) {
				out = append(out, t)
			}
			// nested aggregates inside the argument error at runtime;
			// vecAggOK rejects unsafe arguments, forcing fallback.
		case *bBinary:
			walk(t.l)
			walk(t.r)
		case *bUnary:
			walk(t.x)
		case *bFunc:
			for _, a := range t.args {
				walk(a)
			}
		case *bIn:
			walk(t.x)
			for _, el := range t.list {
				walk(el)
			}
		case *bBetween:
			walk(t.x)
			walk(t.lo)
			walk(t.hi)
		case *bLike:
			walk(t.x)
		case *bIsNull:
			walk(t.x)
		}
	}
	walk(e)
	return out
}

// vecAggOK reports whether the vectorized aggregator reproduces this
// aggregate exactly: known name, valid arity, statically safe argument,
// and a numeric (or statically NULL) argument for SUM/AVG. Everything
// else — including shapes whose row-path evaluation errors, like SUM
// over TEXT or a wrong-arity call — falls back so the error surfaces
// identically.
func vecAggOK(a *bAgg) bool {
	switch a.name {
	case "COUNT", "SUM", "AVG", "MIN", "MAX":
	default:
		return false
	}
	if a.star {
		return a.name == "COUNT"
	}
	if a.arg == nil {
		return false // arity error: keep the row path's runtime message
	}
	st := safeType(a.arg)
	if !st.safe || (!st.known && !st.null) {
		return false
	}
	if (a.name == "SUM" || a.name == "AVG") && !st.null && !st.t.Numeric() {
		return false
	}
	return true
}

// exactAgg reports whether the aggregate's result is independent of
// accumulation order.
func exactAgg(a *bAgg) bool {
	switch a.name {
	case "COUNT":
		return true
	case "MIN", "MAX":
		st := safeType(a.arg)
		return st.safe && st.known && st.t != sqldata.TypeFloat
	case "SUM":
		st := safeType(a.arg)
		// 128-bit integer accumulation is associative; float SUM is not.
		return st.safe && (st.null || (st.known && st.t == sqldata.TypeInt))
	}
	return false
}

// tableAtOff maps a statement tuple offset to its FROM table index.
func (p *Plan) tableAtOff(off int) int {
	for i := len(p.toffs) - 1; i >= 0; i-- {
		if off >= p.toffs[i] {
			return i
		}
	}
	return 0
}
