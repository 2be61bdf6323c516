package plan

import (
	"fmt"
	"strings"

	"nlidb/internal/sqldata"
	"nlidb/internal/sqlparse"
)

// EXPLAIN renders the physical operator tree — what will actually run —
// rather than the statement's syntactic shape: push-down shows up as
// [filter: ...] annotations on scans, each join names its algorithm, a
// Sort that only keeps the LIMIT rows says topk=<k>, and under the
// vectorized executor the group and hash-join lines name the machine
// word each key lane is hashed as (keys=code: a text dictionary code,
// int, float: canonical bits, bool; fold(...) for a composite) and a
// filtered scan says how many of its conjuncts are compiled to kernels
// rather than left to the generic evaluator (kernel=<n>/<m>; a run hands a
// dictionary kernel back to the evaluator while its input is shorter than
// the dictionary).

// Explain renders the plan as an indented operator tree.
func (p *Plan) Explain() string {
	return p.render(nil)
}

// ExplainStats is Explain with per-operator output row counts from a
// RunStats execution appended as rows=N.
func (p *Plan) ExplainStats(s *Stats) string {
	return p.render(s)
}

type renderer struct {
	sb    strings.Builder
	stats *Stats
	est   []int64
	vec   *vplan // non-nil: the plan runs vectorized, with typed keys and compiled scan filters
}

// keysSuffix names how the vectorized executor hashes an operator's key
// lanes, from their static types. A join passes the other side's keys
// too: a FLOAT lane paired with an INT one is hashed as the equal integer.
func (r *renderer) keysSuffix(keys, other []bexpr) string {
	if r.vec == nil || len(keys) == 0 {
		return ""
	}
	names := make([]string, len(keys))
	for i, k := range keys {
		st := safeType(k)
		switch {
		case st.null:
			names[i] = "null"
		case other != nil && safeType(other[i]).t == sqldata.TypeInt:
			names[i] = "int"
		case st.t == sqldata.TypeText:
			names[i] = "code"
		case st.t == sqldata.TypeFloat:
			names[i] = "float"
		case st.t == sqldata.TypeBool:
			names[i] = "bool"
		default:
			names[i] = "int"
		}
	}
	if len(names) == 1 {
		return " keys=" + names[0]
	}
	return " keys=fold(" + strings.Join(names, ",") + ")"
}

func (r *renderer) line(depth int, format string, args ...any) {
	r.sb.WriteString(strings.Repeat("  ", depth))
	fmt.Fprintf(&r.sb, format, args...)
	r.sb.WriteByte('\n')
}

// statLine is line plus a rows=N suffix when stats are present, and an
// est=N suffix when the cost model annotated the operator — EXPLAIN
// ANALYZE shows estimated vs actual rows side by side.
func (r *renderer) statLine(depth, nid int, format string, args ...any) {
	if r.stats != nil && nid < len(r.stats.rows) {
		format += fmt.Sprintf(" rows=%d", r.stats.rows[nid])
		if r.est != nil && nid < len(r.est) {
			format += fmt.Sprintf(" est=%d", r.est[nid])
		}
	}
	r.line(depth, format, args...)
}

func (p *Plan) render(s *Stats) string {
	r := &renderer{stats: s, est: p.est, vec: p.vec}
	p.renderTo(r, 0)
	return strings.TrimRight(r.sb.String(), "\n")
}

func (p *Plan) renderTo(r *renderer, depth int) {
	if p.limit >= 0 {
		r.statLine(depth, p.nidResult, "Limit %d", p.limit)
		depth++
	}
	if p.distinct {
		r.line(depth, "Distinct")
		depth++
	}
	if len(p.orderBy) > 0 {
		if p.topk >= 0 {
			r.line(depth, "Sort [%s] topk=%d", strings.Join(p.orderDisp, ", "), p.topk)
		} else {
			r.line(depth, "Sort [%s]", strings.Join(p.orderDisp, ", "))
		}
		depth++
	}
	r.statLine(depth, p.nidProject, "Project [%s]", strings.Join(p.itemsDisp, ", "))
	depth++
	if p.having != nil {
		r.line(depth, "Having (%s)", p.havingDisp)
		depth++
	}
	if p.grouped {
		if len(p.groupKeys) > 0 {
			r.statLine(depth, p.nidGroup, "HashGroupBy [%s]%s", strings.Join(p.groupDisp, ", "), r.keysSuffix(p.groupKeys, nil))
		} else {
			r.line(depth, "Aggregate (global)")
		}
		depth++
	}
	renderNode(r, p.src, depth)

	for i, sub := range p.subplans {
		r.line(0, "Subquery %d:", i+1)
		sub.renderTo(r, 1)
	}
}

func renderNode(r *renderer, n node, depth int) {
	switch t := n.(type) {
	case *scanNode:
		suffix := ""
		if len(t.filterDisp) > 0 {
			suffix = fmt.Sprintf(" [filter: %s]", strings.Join(t.filterDisp, " AND "))
			if step := r.vec.scanStep(t.nid); step != nil {
				kernels := 0
				for _, f := range step.filters {
					kernels += b2i(f.kernel != nil)
				}
				suffix += fmt.Sprintf(" kernel=%d/%d", kernels, len(step.filters))
			}
		}
		r.statLine(depth, t.nid, "Scan %s (%d rows)%s", t.disp, len(t.tab.Rows), suffix)

	case *filterNode:
		r.statLine(depth, t.nid, "Filter (%s)", strings.Join(t.disp, " AND "))
		renderNode(r, t.child, depth+1)

	case *joinNode:
		r.statLine(depth, t.nid, "%s (%s)%s", joinName(t), t.onDisp, r.keysSuffix(t.lKeys, t.rKeys))
		renderNode(r, t.left, depth+1)
		renderNode(r, t.right, depth+1)
	}
}

func joinName(j *joinNode) string {
	hash := j.algo == "hash"
	left := j.typ == sqlparse.JoinLeft
	switch {
	case hash && left:
		return "HashLeftJoin"
	case hash:
		return "HashJoin"
	case left:
		return "NestedLoopLeftJoin"
	default:
		return "NestedLoopJoin"
	}
}

// Shape is a compact one-line plan fingerprint for trace attributes, e.g.
// "project(group(hashjoin(scan,scan)))".
func (p *Plan) Shape() string {
	s := nodeShape(p.src)
	if p.grouped {
		if len(p.groupKeys) > 0 {
			s = "group(" + s + ")"
		} else {
			s = "agg(" + s + ")"
		}
	}
	s = "project(" + s + ")"
	if len(p.orderBy) > 0 {
		s = "sort(" + s + ")"
	}
	if p.distinct {
		s = "distinct(" + s + ")"
	}
	if p.limit >= 0 {
		s = "limit(" + s + ")"
	}
	return s
}

func nodeShape(n node) string {
	switch t := n.(type) {
	case *scanNode:
		if len(t.filter) > 0 {
			return "scan+filter"
		}
		return "scan"
	case *filterNode:
		return "filter(" + nodeShape(t.child) + ")"
	case *joinNode:
		name := "nljoin"
		if t.algo == "hash" {
			name = "hashjoin"
		}
		if t.typ == sqlparse.JoinLeft {
			name += "-left"
		}
		return name + "(" + nodeShape(t.left) + "," + nodeShape(t.right) + ")"
	}
	return "?"
}
