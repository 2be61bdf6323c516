package plan

import (
	"fmt"
	"strings"

	"nlidb/internal/sqldata"
	"nlidb/internal/sqlparse"
)

// Package plan is the middle layer of the bind/plan/execute pipeline: it
// lowers a bound SELECT into a physical operator tree (scan → filter →
// hash-join or nested-loop fallback → hash-aggregate → sort → project →
// limit). Planning applies two optimizations the tree-walking interpreter
// could not: predicate push-down into base-table scans, and hash joins for
// equi-join conditions. Both are gated on static safety analysis
// (analyze.go) so they never add, remove, or reorder the runtime errors
// the naive evaluation order would produce.

// Options disables individual optimizations, mainly so benchmarks can
// measure the naive strategies through the same pipeline.
type Options struct {
	// NoHashJoin forces nested-loop evaluation for every join.
	NoHashJoin bool
	// NoPushdown keeps all WHERE conjuncts in a filter above the joins.
	NoPushdown bool
	// NoVector forces the row-at-a-time executor even for plans the
	// vectorized engine could run.
	NoVector bool
}

// Plan is a fully bound and planned statement, ready to execute. Plans are
// immutable after Prepare, so a cached Plan may run concurrently.
type Plan struct {
	src   node // scan/filter/join tree producing the working tuples
	width int  // columns in the working tuple (sum of FROM table widths)

	grouped    bool
	groupKeys  []bexpr
	groupDisp  []string
	having     bexpr
	havingDisp string

	items     []boundItem
	itemsDisp []string
	cols      []string // output column names

	orderBy   []boundOrder
	orderDisp []string
	distinct  bool
	limit     int // negative = no LIMIT
	// topk is limit when ORDER BY can be a bounded selection instead of a
	// full sort (see boundedK), else -1.
	topk int

	subplans []*Plan // directly nested sub-queries, in bind order

	nstats     int // stat slots across this plan and all sub-plans
	nidGroup   int
	nidProject int
	nidResult  int

	// tabs/toffs record the FROM tables and their tuple offsets, for the
	// cost model and the vectorized compiler.
	tabs  []*sqldata.Table
	toffs []int
	// est holds per-operator estimated output rows (indexed by nid, shared
	// with sub-plans), filled by annotatePlan from column statistics.
	est []int64
	// vec is the compiled vectorized form of the plan, or nil when any
	// part of the statement requires the row-at-a-time executor.
	vec *vplan
}

// Columns returns the output column names.
func (p *Plan) Columns() []string { return p.cols }

// Vectorized reports whether the plan will run on the vectorized
// columnar executor rather than the row-at-a-time interpreter.
func (p *Plan) Vectorized() bool { return p.vec != nil }

// node is one physical operator: it materializes its full output. The
// paper's workloads are interactive-scale, so materialization keeps the
// error and budget semantics of the tree-walker trivially identical while
// still removing the per-row name resolution and quadratic joins.
type node interface {
	rows(env *execEnv) ([]sqldata.Row, error)
}

// scanNode reads one base table, optionally applying pushed-down
// predicates. filter offsets are table-local (rebased by the table's
// offset in the statement tuple).
type scanNode struct {
	nid        int
	tab        *sqldata.Table
	disp       string // table reference as written (name, or "name AS alias")
	span       string // obs span name; "" = no span (right side of a join)
	charge     bool   // meter addRows(table length); first table only
	filter     []bexpr
	filterDisp []string
}

// filterNode applies the WHERE conjuncts that could not be pushed down.
// Every conjunct is evaluated for every row — no short-circuit — because
// AND under three-valued logic evaluates both sides, and a skipped
// conjunct could be one that raises an error.
type filterNode struct {
	nid   int
	child node
	conj  []bexpr
	disp  []string
}

// keyKind selects the canonical encoding for one hash-join key pair, from
// the statically known types of its two sides.
type keyKind int

const (
	kInt keyKind = iota
	kFloat
	kText
	kBool
	kDate
)

// joinNode joins child output with one base table, by hash on equi-key
// pairs when the ON condition statically allows it, else by nested loop.
type joinNode struct {
	nid    int
	left   node
	right  *scanNode
	typ    sqlparse.JoinType
	span   string // "join <table>"
	algo   string // "hash" | "nested-loop"
	rwidth int

	// Nested-loop mode: every ON conjunct, statement offsets, all
	// evaluated per pair (no short-circuit — conjuncts may error).
	on []bexpr

	// Hash mode: key pairs (rKeys are right-table-local) plus safe
	// non-equi residual conjuncts over the combined row.
	lKeys, rKeys []bexpr
	kinds        []keyKind
	residual     []bexpr

	onDisp string
}

// Prepare binds and plans stmt against db.
func Prepare(db *sqldata.Database, stmt *sqlparse.SelectStmt) (*Plan, error) {
	return PrepareOpts(db, stmt, Options{})
}

// PrepareOpts is Prepare with optimizations selectively disabled.
func PrepareOpts(db *sqldata.Database, stmt *sqlparse.SelectStmt, opts Options) (*Plan, error) {
	if stmt == nil {
		return nil, fmt.Errorf("sqlexec: nil statement")
	}
	b := &binder{db: db, opts: opts}
	p, err := b.bindStmt(stmt, nil)
	if err != nil {
		return nil, err
	}
	p.nstats = b.nid
	annotatePlan(p)
	if !opts.NoVector {
		p.vec = compileVec(p)
	}
	return p, nil
}

// planFrom lowers the FROM chain plus the WHERE conjuncts into the
// physical tree, deciding predicate push-down per conjunct and join
// algorithm per join.
func (b *binder) planFrom(p *Plan, stmt *sqlparse.SelectStmt, sc *scope, tabs []*sqldata.Table, ons [][]conjunct, where []conjunct) error {
	// Push-down: a WHERE conjunct may move into table k's scan when it is
	// statically safe (so filtering early cannot skip an error), reads
	// columns of table k only, and table k is not the right side of a LEFT
	// join (filtering before the pad would change which rows get padded).
	// Conjuncts reading no columns at all anchor to table 0.
	pushed := make([][]conjunct, len(tabs))
	var residual []conjunct
	for _, c := range where {
		k, ok := b.pushTarget(c, sc, stmt)
		if ok {
			pushed[k] = append(pushed[k], c)
		} else {
			residual = append(residual, c)
		}
	}

	refs := stmt.From.Tables()
	mkScan := func(k int, span string, charge bool) *scanNode {
		s := &scanNode{nid: b.newNid(), tab: tabs[k], disp: refs[k].String(), span: span, charge: charge}
		for _, c := range pushed[k] {
			s.filter = append(s.filter, rebase(c.b, -sc.tables[k].off))
			s.filterDisp = append(s.filterDisp, c.ast.String())
		}
		return s
	}

	var src node = mkScan(0, "scan "+strings.ToLower(stmt.From.First.Name), true)

	for k, j := range stmt.From.Joins {
		right := mkScan(k+1, "", false)
		jn := &joinNode{
			nid:    b.newNid(),
			left:   src,
			right:  right,
			typ:    j.Type,
			span:   "join " + strings.ToLower(j.Table.Name),
			rwidth: len(tabs[k+1].Schema.Columns),
		}
		var disp []string
		for _, c := range ons[k] {
			disp = append(disp, c.ast.String())
		}
		jn.onDisp = strings.Join(disp, " AND ")

		if b.planHashJoin(jn, ons[k], sc.tables[k+1].off) {
			jn.algo = "hash"
		} else {
			jn.algo = "nested-loop"
			jn.lKeys, jn.rKeys, jn.kinds, jn.residual = nil, nil, nil, nil
			for _, c := range ons[k] {
				jn.on = append(jn.on, c.b)
			}
		}
		src = jn
	}

	if len(residual) > 0 {
		fn := &filterNode{nid: b.newNid(), child: src}
		for _, c := range residual {
			fn.conj = append(fn.conj, c.b)
			fn.disp = append(fn.disp, c.ast.String())
		}
		src = fn
	}

	p.src = src
	p.nidGroup = b.newNid()
	p.nidProject = b.newNid()
	p.nidResult = b.newNid()
	return nil
}

// pushTarget returns the table a WHERE conjunct can be pushed into, if any.
func (b *binder) pushTarget(c conjunct, sc *scope, stmt *sqlparse.SelectStmt) (int, bool) {
	if b.opts.NoPushdown || !c.safe {
		return 0, false
	}
	if len(c.info.offs) == 0 {
		return 0, true // constant (or purely correlated) predicate: table 0
	}
	k := -1
	for _, off := range c.info.offs {
		t := sc.tableAt(off)
		if k < 0 {
			k = t
		} else if t != k {
			return 0, false // spans tables: stays above the joins
		}
	}
	if k > 0 && stmt.From.Joins[k-1].Type != sqlparse.JoinInner {
		return 0, false // right side of a LEFT join: must filter after padding
	}
	return k, true
}

// tableAt maps a statement tuple offset to its table index.
func (s *scope) tableAt(off int) int {
	for i := len(s.tables) - 1; i >= 0; i-- {
		if off >= s.tables[i].off {
			return i
		}
	}
	return 0
}

// planHashJoin inspects the ON conjuncts of jn for hash-joinability:
// at least one statically safe equi-pair whose sides split cleanly into a
// left-tuple key and a right-table key of hash-compatible types, with every
// remaining conjunct statically safe (the hash path skips non-matching
// pairs entirely, so no skipped conjunct may be one that could error).
// On success it fills lKeys/rKeys/kinds/residual and returns true.
func (b *binder) planHashJoin(jn *joinNode, ons []conjunct, rightOff int) bool {
	if b.opts.NoHashJoin {
		return false
	}
	for _, c := range ons {
		if !c.safe {
			return false
		}
	}
	for _, c := range ons {
		if l, r, kind, ok := equiPair(c.b, rightOff, rightOff+jn.rwidth); ok {
			jn.lKeys = append(jn.lKeys, l)
			jn.rKeys = append(jn.rKeys, rebase(r, -rightOff))
			jn.kinds = append(jn.kinds, kind)
		} else {
			jn.residual = append(jn.residual, c.b)
		}
	}
	return len(jn.lKeys) > 0
}

// equiPair decides whether e is `left = right` with one side reading only
// columns below rightOff (the left tuple) and the other reading only
// columns of the right table, with hash-compatible static types. Either
// side may read no level-0 columns at all (a constant or correlated key),
// but the right side must actually touch the right table — otherwise the
// conjunct is just a filter and stays residual.
func equiPair(e bexpr, rightOff, rightEnd int) (l, r bexpr, kind keyKind, ok bool) {
	be, isBin := e.(*bBinary)
	if !isBin || be.op != "=" {
		return nil, nil, 0, false
	}
	side := func(x bexpr) (leftOK, rightOK bool) {
		var info exprInfo
		inspect(x, &info)
		leftOK, rightOK = true, len(info.offs) > 0
		for _, off := range info.offs {
			if off >= rightOff {
				leftOK = false
			}
			if off < rightOff || off >= rightEnd {
				rightOK = false
			}
		}
		return leftOK, rightOK
	}
	lt, rt := safeType(be.l), safeType(be.r)
	kind, compat := hashKind(lt, rt)
	if !compat || !lt.safe || !rt.safe {
		return nil, nil, 0, false
	}
	lLeft, lRight := side(be.l)
	rLeft, rRight := side(be.r)
	switch {
	case lLeft && rRight:
		return be.l, be.r, kind, true
	case rLeft && lRight:
		return be.r, be.l, kind, true
	}
	return nil, nil, 0, false
}

// hashKind picks the canonical key encoding for a statically typed pair.
// Pairs needing runtime coercion (TEXT vs DATE) or of unknown type are not
// hashable; mixed INT/FLOAT pairs hash by float value, matching Compare's
// cross-numeric equality.
func hashKind(l, r sType) (keyKind, bool) {
	if !l.known || !r.known || l.null || r.null {
		return 0, false
	}
	switch {
	case l.t == sqldata.TypeInt && r.t == sqldata.TypeInt:
		return kInt, true
	case l.t.Numeric() && r.t.Numeric():
		return kFloat, true
	case l.t != r.t:
		return 0, false
	case l.t == sqldata.TypeText:
		return kText, true
	case l.t == sqldata.TypeBool:
		return kBool, true
	case l.t == sqldata.TypeDate:
		return kDate, true
	}
	return 0, false
}
