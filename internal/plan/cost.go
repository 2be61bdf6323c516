package plan

import (
	"nlidb/internal/sqldata"
	"nlidb/internal/sqlparse"
)

// The cost model estimates per-operator output cardinalities from the
// per-column statistics sqldata maintains alongside the columnar cache
// (row counts, null fractions, NDV, min/max, equi-width histograms).
// Estimates drive two planner decisions — the order pushed-down scan
// predicates are applied in and the build/probe side of each vectorized
// hash join — and are surfaced next to actual row counts by EXPLAIN
// ANALYZE. They never change results or budget metering: pushed-down
// predicates are statically safe, so their order is unobservable, and
// either build side emits the same left-major pairs and charges the same
// join rows. Joins always run in the order the statement writes them.

// defaultSel is the selectivity assumed for predicates the model cannot
// analyze (LIKE over arbitrary text, correlated terms, ...).
const defaultSel = 1.0 / 3

// annotatePlan fills p.est with estimated output rows for every stat slot
// of the plan and its sub-plans.
func annotatePlan(p *Plan) {
	est := make([]int64, p.nstats)
	p.annotateInto(est)
	p.est = est
}

func (p *Plan) annotateInto(est []int64) {
	cc := &costCtx{tabs: p.tabs, toffs: p.toffs}
	in := cc.annotateNode(p.src, est)

	rows := in
	if p.grouped {
		if len(p.groupKeys) == 0 {
			rows = 1
		} else {
			g := 1.0
			for _, k := range p.groupKeys {
				g *= float64(cc.ndvOf(k, -1))
				if g > in {
					g = in
					break
				}
			}
			rows = clampEst(g, in)
		}
		est[p.nidGroup] = int64(rows)
	}
	if p.having != nil {
		rows = clampEst(rows*defaultSel, rows)
	}
	est[p.nidProject] = int64(rows)
	if p.limit >= 0 && float64(p.limit) < rows {
		rows = float64(p.limit)
	}
	est[p.nidResult] = int64(rows)

	for _, sub := range p.subplans {
		sub.annotateInto(est)
		sub.est = est
	}
}

// costCtx resolves column references of one statement against its tables'
// statistics. local >= 0 means expression offsets are local to that table
// (pushed-down scan filters, right-side join keys); -1 means offsets
// address the joined statement tuple.
type costCtx struct {
	tabs  []*sqldata.Table
	toffs []int
	stats [][]*sqldata.ColStats // lazily built, indexed by table
}

func (cc *costCtx) colStats(c *bCol, local int) *sqldata.ColStats {
	if c.level != 0 {
		return nil // correlated: no statistics for the outer row
	}
	k, off := local, c.off
	if local < 0 {
		k = 0
		for i := len(cc.toffs) - 1; i >= 0; i-- {
			if c.off >= cc.toffs[i] {
				k = i
				break
			}
		}
		off = c.off - cc.toffs[k]
	}
	if k >= len(cc.tabs) {
		return nil
	}
	if cc.stats == nil {
		cc.stats = make([][]*sqldata.ColStats, len(cc.tabs))
	}
	if cc.stats[k] == nil {
		cc.stats[k] = cc.tabs[k].Stats()
	}
	if off < 0 || off >= len(cc.stats[k]) {
		return nil
	}
	return cc.stats[k][off]
}

// ndvOf estimates the number of distinct values an expression takes: the
// column's NDV statistic for a bare column reference, a coarse default
// otherwise.
func (cc *costCtx) ndvOf(e bexpr, local int) int {
	if c, ok := e.(*bCol); ok {
		if s := cc.colStats(c, local); s != nil && s.NDV > 0 {
			return s.NDV
		}
	}
	return 100
}

func (cc *costCtx) annotateNode(n node, est []int64) float64 {
	switch t := n.(type) {
	case *scanNode:
		rows := float64(len(t.tab.Rows))
		for _, f := range t.filter {
			rows *= cc.sel(f, localTableOf(cc, t.tab))
		}
		est[t.nid] = int64(rows)
		return rows

	case *filterNode:
		rows := cc.annotateNode(t.child, est)
		for _, c := range t.conj {
			rows *= cc.sel(c, -1)
		}
		est[t.nid] = int64(rows)
		return rows

	case *joinNode:
		l := cc.annotateNode(t.left, est)
		r := cc.annotateNode(t.right, est)
		var rows float64
		if t.algo == "hash" {
			rows = l * r
			rtab := localTableOf(cc, t.right.tab)
			for i := range t.lKeys {
				ndv := cc.ndvOf(t.lKeys[i], -1)
				if rn := cc.ndvOf(t.rKeys[i], rtab); rn > ndv {
					ndv = rn
				}
				rows /= float64(ndv)
			}
			for _, c := range t.residual {
				rows *= cc.sel(c, -1)
			}
		} else {
			rows = l * r
			for _, c := range t.on {
				rows *= cc.sel(c, -1)
			}
		}
		if t.typ == sqlparse.JoinLeft && rows < l {
			rows = l // LEFT JOIN emits at least one row per left tuple
		}
		est[t.nid] = int64(rows)
		return rows
	}
	return 0
}

// localTableOf maps a table pointer back to its FROM index, so scans can
// resolve their table-local filter offsets. Self-joined tables share
// statistics, so matching the first occurrence is fine.
func localTableOf(cc *costCtx, tab *sqldata.Table) int {
	for i, t := range cc.tabs {
		if t == tab {
			return i
		}
	}
	return -1
}

// sel estimates the fraction of rows a predicate keeps.
func (cc *costCtx) sel(e bexpr, local int) float64 {
	s := cc.selRaw(e, local)
	if s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}

func (cc *costCtx) selRaw(e bexpr, local int) float64 {
	switch t := e.(type) {
	case *bLit:
		if b, ok := t.v.BoolOK(); ok {
			if b {
				return 1
			}
			return 0
		}
		return defaultSel

	case *bUnary:
		if t.op == "NOT" {
			return 1 - cc.sel(t.x, local)
		}
		return defaultSel

	case *bIsNull:
		if c, ok := t.x.(*bCol); ok {
			if s := cc.colStats(c, local); s != nil {
				if t.not {
					return 1 - s.NullFrac()
				}
				return s.NullFrac()
			}
		}
		if t.not {
			return 1 - defaultSel
		}
		return defaultSel

	case *bBetween:
		sel := cc.rangeSel(t.x, t.lo, t.hi, local)
		if t.not {
			return 1 - sel
		}
		return sel

	case *bIn:
		if c, ok := t.x.(*bCol); ok && len(t.list) > 0 {
			if s := cc.colStats(c, local); s != nil {
				sel := float64(len(t.list)) * s.EqSelectivity()
				if sel > 1 {
					sel = 1
				}
				if t.not {
					return 1 - sel
				}
				return sel
			}
		}
		if t.not {
			return 1 - defaultSel
		}
		return defaultSel

	case *bLike:
		if t.not {
			return 0.75
		}
		return 0.25

	case *bBinary:
		return cc.binarySel(t, local)
	}
	return defaultSel
}

func (cc *costCtx) binarySel(b *bBinary, local int) float64 {
	switch b.op {
	case "AND":
		return cc.sel(b.l, local) * cc.sel(b.r, local)
	case "OR":
		l, r := cc.sel(b.l, local), cc.sel(b.r, local)
		return l + r - l*r
	case "=", "!=":
		var eq float64 = defaultSel
		lc, lIsCol := b.l.(*bCol)
		rc, rIsCol := b.r.(*bCol)
		switch {
		case lIsCol && rIsCol:
			ndv := cc.ndvOf(lc, local)
			if rn := cc.ndvOf(rc, local); rn > ndv {
				ndv = rn
			}
			eq = 1 / float64(ndv)
		case lIsCol:
			if s := cc.colStats(lc, local); s != nil {
				eq = s.EqSelectivity()
			}
		case rIsCol:
			if s := cc.colStats(rc, local); s != nil {
				eq = s.EqSelectivity()
			}
		}
		if b.op == "!=" {
			return 1 - eq
		}
		return eq
	case "<", "<=", ">", ">=":
		if col, ok := b.l.(*bCol); ok {
			if x, lok := litFloat(b.r); lok {
				return cc.ineqSel(col, b.op, x, local)
			}
		}
		if col, ok := b.r.(*bCol); ok {
			if x, lok := litFloat(b.l); lok {
				return cc.ineqSel(col, flipOp(b.op), x, local)
			}
		}
		return defaultSel
	}
	return defaultSel
}

// ineqSel estimates `col op x` from the column's histogram.
func (cc *costCtx) ineqSel(col *bCol, op string, x float64, local int) float64 {
	s := cc.colStats(col, local)
	if s == nil || !s.HasMinMax {
		return defaultSel
	}
	nonNull := 1 - s.NullFrac()
	switch op {
	case "<":
		return s.FracBelow(x, false)
	case "<=":
		return s.FracBelow(x, true)
	case ">":
		return nonNull - s.FracBelow(x, true)
	default: // ">="
		return nonNull - s.FracBelow(x, false)
	}
}

// rangeSel estimates `x BETWEEN lo AND hi` for a column with literal
// bounds.
func (cc *costCtx) rangeSel(x, lo, hi bexpr, local int) float64 {
	col, ok := x.(*bCol)
	if !ok {
		return defaultSel
	}
	lv, lok := litFloat(lo)
	hv, hok := litFloat(hi)
	s := cc.colStats(col, local)
	if !lok || !hok || s == nil || !s.HasMinMax {
		return defaultSel
	}
	sel := s.FracBelow(hv, true) - s.FracBelow(lv, false)
	if sel < 0 {
		return 0
	}
	return sel
}

func litFloat(e bexpr) (float64, bool) {
	l, ok := e.(*bLit)
	if !ok {
		return 0, false
	}
	return l.v.FloatOK()
}

// flipOp mirrors an inequality so `lit op col` reads as `col op' lit`.
func flipOp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	default:
		return "<="
	}
}

func clampEst(v, hi float64) float64 {
	if v > hi {
		return hi
	}
	if v < 0 {
		return 0
	}
	return v
}
