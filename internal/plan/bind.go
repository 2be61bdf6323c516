package plan

import (
	"fmt"
	"strings"

	"nlidb/internal/sqldata"
	"nlidb/internal/sqlparse"
)

// The binder is the first pipeline layer: it resolves every table
// reference, column reference, and select alias of a statement exactly
// once, producing offset-addressed bound expressions (bexpr) the executor
// evaluates without any per-row name lookups. Structural errors — unknown
// tables or columns, duplicate FROM names, an empty select list — surface
// here, before any row is touched.

// boundTable is one table visible in a query scope.
type boundTable struct {
	name   string // effective name (alias or table name), lower-cased
	schema *sqldata.Schema
	off    int // offset of the table's first column in the joined tuple
}

// scope is the set of tables a statement's expressions can reference.
type scope struct {
	tables []boundTable
	width  int
}

func (s *scope) add(name string, schema *sqldata.Schema) error {
	lname := strings.ToLower(name)
	for _, t := range s.tables {
		if t.name == lname {
			return fmt.Errorf("sqlexec: duplicate table name %q in FROM; use aliases", name)
		}
	}
	s.tables = append(s.tables, boundTable{name: lname, schema: schema, off: s.width})
	s.width += len(schema.Columns)
	return nil
}

// resolve finds the tuple offset and declared type of table.col among the
// first n tables (an ON clause sees only the tables joined so far). An
// empty qualifier searches all of them and fails on ambiguity.
//
// Qualifier folding is uniformly ToLower — the same rule duplicate
// detection uses. Effective names (alias or table name) win: the
// underlying schema name of an aliased table is consulted only when no
// effective name matches the qualifier, so an alias that happens to equal
// another table's schema name shadows it instead of turning every
// reference ambiguous.
func (s *scope) resolve(table, col string, n int) (off int, typ sqldata.Type, err error) {
	ltable, lcol := strings.ToLower(table), strings.ToLower(col)
	tables := s.tables[:n]
	found := -1
	var ft sqldata.Type
	match := func(pred func(boundTable) bool) error {
		for _, t := range tables {
			if !pred(t) {
				continue
			}
			if i := t.schema.ColumnIndex(lcol); i >= 0 {
				if found >= 0 {
					return fmt.Errorf("sqlexec: ambiguous column %q", col)
				}
				found = t.off + i
				ft = t.schema.Columns[i].Type
			}
		}
		return nil
	}
	switch {
	case ltable == "":
		err = match(func(boundTable) bool { return true })
	default:
		byEff := false
		for _, t := range tables {
			if t.name == ltable {
				byEff = true
				break
			}
		}
		if byEff {
			err = match(func(t boundTable) bool { return t.name == ltable })
		} else {
			err = match(func(t boundTable) bool { return strings.ToLower(t.schema.Name) == ltable })
		}
	}
	if err != nil {
		return 0, 0, err
	}
	if found < 0 {
		return 0, 0, fmt.Errorf("sqlexec: unknown column %s.%s", table, col)
	}
	return found, ft, nil
}

// bindEnv is one statement's name-resolution environment: its scope, how
// many of the scope's tables are visible (ON clauses see a prefix), the
// select-alias slots visible at the current site (nil outside projection
// and ORDER BY), and the enclosing statement's environment for correlated
// sub-queries.
type bindEnv struct {
	sc      *scope
	n       int            // visible prefix of sc.tables
	aliases map[string]int // lower-cased alias -> projection slot; nil = not in scope
	parent  *bindEnv
}

// noAlias returns env with level-0 aliases hidden: aggregate arguments are
// evaluated per group row, where alias values do not exist yet.
func (env *bindEnv) noAlias() *bindEnv {
	if env.aliases == nil {
		return env
	}
	return &bindEnv{sc: env.sc, n: env.n, parent: env.parent}
}

// binder compiles statements to Plans. subs collects the current
// statement's directly nested sub-plans in bind order.
type binder struct {
	db   *sqldata.Database
	opts Options
	subs []*Plan
	nid  int // next per-operator stats slot, shared across sub-plans
}

// newNid allocates one per-operator row-count slot for EXPLAIN ANALYZE.
func (b *binder) newNid() int {
	n := b.nid
	b.nid++
	return n
}

// bindColumn resolves a column reference against the current scope, then
// select-item aliases, then enclosing scopes (correlated sub-queries) —
// the same precedence the tree-walking evaluator applied per row. Any
// resolution failure in an inner scope (including ambiguity) falls
// through to the enclosing one.
func (b *binder) bindColumn(env *bindEnv, c *sqlparse.ColumnRef) (bexpr, error) {
	level := 0
	for cur := env; cur != nil; cur = cur.parent {
		if off, typ, err := cur.sc.resolve(c.Table, c.Column, cur.n); err == nil {
			return &bCol{level: level, off: off, typ: typ}, nil
		}
		if c.Table == "" && cur.aliases != nil {
			if slot, ok := cur.aliases[strings.ToLower(c.Column)]; ok {
				return &bAlias{level: level, slot: slot}, nil
			}
		}
		level++
	}
	return nil, fmt.Errorf("sqlexec: cannot resolve column %s", c)
}

func (b *binder) bindExpr(env *bindEnv, e sqlparse.Expr) (bexpr, error) {
	switch t := e.(type) {
	case *sqlparse.Literal:
		return &bLit{v: t.Val}, nil

	case *sqlparse.ColumnRef:
		return b.bindColumn(env, t)

	case *sqlparse.BinaryExpr:
		l, err := b.bindExpr(env, t.L)
		if err != nil {
			return nil, err
		}
		r, err := b.bindExpr(env, t.R)
		if err != nil {
			return nil, err
		}
		return &bBinary{op: t.Op, l: l, r: r}, nil

	case *sqlparse.UnaryExpr:
		x, err := b.bindExpr(env, t.X)
		if err != nil {
			return nil, err
		}
		return &bUnary{op: t.Op, x: x}, nil

	case *sqlparse.FuncCall:
		if t.IsAggregate() {
			agg := &bAgg{name: t.Name, distinct: t.Distinct, star: t.Star}
			if !t.Star && len(t.Args) == 1 {
				// Wrong arity stays a runtime error (arg nil); see
				// evalAggregate. The argument sees no level-0 aliases.
				arg, err := b.bindExpr(env.noAlias(), t.Args[0])
				if err != nil {
					return nil, err
				}
				agg.arg = arg
			}
			return agg, nil
		}
		f := &bFunc{name: t.Name}
		if len(t.Args) == 1 {
			// As with aggregates, wrong arity is reported at evaluation
			// time (args nil), so the arguments are never inspected.
			arg, err := b.bindExpr(env, t.Args[0])
			if err != nil {
				return nil, err
			}
			f.args = []bexpr{arg}
		}
		return f, nil

	case *sqlparse.InExpr:
		x, err := b.bindExpr(env, t.X)
		if err != nil {
			return nil, err
		}
		in := &bIn{x: x, not: t.Not}
		if t.Sub != nil {
			sub, err := b.bindSub(env, t.Sub)
			if err != nil {
				return nil, err
			}
			in.sub = sub
			return in, nil
		}
		for _, el := range t.List {
			be, err := b.bindExpr(env, el)
			if err != nil {
				return nil, err
			}
			in.list = append(in.list, be)
		}
		return in, nil

	case *sqlparse.ExistsExpr:
		sub, err := b.bindSub(env, t.Sub)
		if err != nil {
			return nil, err
		}
		return &bExists{not: t.Not, sub: sub}, nil

	case *sqlparse.SubqueryExpr:
		sub, err := b.bindSub(env, t.Sub)
		if err != nil {
			return nil, err
		}
		return &bScalarSub{sub: sub}, nil

	case *sqlparse.BetweenExpr:
		x, err := b.bindExpr(env, t.X)
		if err != nil {
			return nil, err
		}
		lo, err := b.bindExpr(env, t.Lo)
		if err != nil {
			return nil, err
		}
		hi, err := b.bindExpr(env, t.Hi)
		if err != nil {
			return nil, err
		}
		return &bBetween{x: x, lo: lo, hi: hi, not: t.Not}, nil

	case *sqlparse.LikeExpr:
		x, err := b.bindExpr(env, t.X)
		if err != nil {
			return nil, err
		}
		return &bLike{x: x, pattern: t.Pattern, not: t.Not}, nil

	case *sqlparse.IsNullExpr:
		x, err := b.bindExpr(env, t.X)
		if err != nil {
			return nil, err
		}
		return &bIsNull{x: x, not: t.Not}, nil
	}
	return nil, fmt.Errorf("sqlexec: unsupported expression %T", e)
}

// bindSub compiles a nested sub-query. Its parent environment is the
// binding site's, so correlated references resolve one level up.
func (b *binder) bindSub(env *bindEnv, stmt *sqlparse.SelectStmt) (*Plan, error) {
	sub, err := b.bindStmt(stmt, env)
	if err != nil {
		return nil, err
	}
	b.subs = append(b.subs, sub)
	return sub, nil
}

// boundItem is one select item after binding: either a star (offs lists
// the projected tuple offsets) or a single bound expression.
type boundItem struct {
	star      bool
	offs      []int
	starTable string // original qualifier, for the runtime no-match error
	expr      bexpr
}

// boundOrder is one bound ORDER BY key.
type boundOrder struct {
	key  bexpr
	desc bool
}

// conjunct is one top-level AND term of a WHERE or ON clause, kept with
// its AST form for display and push-down analysis.
type conjunct struct {
	b    bexpr
	ast  sqlparse.Expr
	safe bool // statically cannot error and yields BOOL or NULL
	info exprInfo
}

// splitAnd flattens a top-level AND chain into its terms.
func splitAnd(e sqlparse.Expr) []sqlparse.Expr {
	if be, ok := e.(*sqlparse.BinaryExpr); ok && be.Op == "AND" {
		return append(splitAnd(be.L), splitAnd(be.R)...)
	}
	return []sqlparse.Expr{e}
}

// bindConjuncts binds each top-level AND term of e separately, analyzing
// each for safety.
func (b *binder) bindConjuncts(env *bindEnv, e sqlparse.Expr) ([]conjunct, error) {
	if e == nil {
		return nil, nil
	}
	terms := splitAnd(e)
	out := make([]conjunct, 0, len(terms))
	for _, t := range terms {
		be, err := b.bindExpr(env, t)
		if err != nil {
			return nil, err
		}
		c := conjunct{b: be, ast: t, safe: predSafe(be)}
		inspect(be, &c.info)
		out = append(out, c)
	}
	return out, nil
}

// bindStmt compiles one statement (and, recursively, its sub-queries)
// into a Plan: binding, then physical planning via planFrom.
func (b *binder) bindStmt(stmt *sqlparse.SelectStmt, parent *bindEnv) (*Plan, error) {
	if len(stmt.Items) == 0 {
		return nil, fmt.Errorf("sqlexec: empty select list")
	}
	if stmt.From == nil {
		return nil, fmt.Errorf("sqlexec: missing FROM clause")
	}

	// Nested sub-plans collect per statement; restore the enclosing list
	// on the way out.
	outerSubs := b.subs
	b.subs = nil
	defer func() { b.subs = outerSubs }()

	// Resolve FROM tables into the scope.
	sc := &scope{}
	refs := stmt.From.Tables()
	tabs := make([]*sqldata.Table, len(refs))
	for i, ref := range refs {
		t := b.db.Table(ref.Name)
		if t == nil {
			return nil, fmt.Errorf("sqlexec: unknown table %q", ref.Name)
		}
		if err := sc.add(ref.EffName(), t.Schema); err != nil {
			return nil, err
		}
		tabs[i] = t
	}

	p := &Plan{
		width:    sc.width,
		distinct: stmt.Distinct,
		limit:    stmt.Limit,
		grouped:  len(stmt.GroupBy) > 0 || stmt.HasAggregate(),
		tabs:     tabs,
	}
	p.toffs = make([]int, len(sc.tables))
	for i := range sc.tables {
		p.toffs[i] = sc.tables[i].off
	}

	env := &bindEnv{sc: sc, n: len(sc.tables), parent: parent}

	// ON clauses: join k sees tables 0..k+1 only, like the incremental
	// scope the tree-walker built.
	ons := make([][]conjunct, len(stmt.From.Joins))
	for k, j := range stmt.From.Joins {
		onEnv := &bindEnv{sc: sc, n: k + 2, parent: parent}
		cs, err := b.bindConjuncts(onEnv, j.On)
		if err != nil {
			return nil, err
		}
		ons[k] = cs
	}

	where, err := b.bindConjuncts(env, stmt.Where)
	if err != nil {
		return nil, err
	}

	if stmt.Having != nil && !p.grouped {
		return nil, fmt.Errorf("sqlexec: HAVING without GROUP BY or aggregates")
	}
	for _, g := range stmt.GroupBy {
		k, err := b.bindExpr(env, g)
		if err != nil {
			return nil, err
		}
		p.groupKeys = append(p.groupKeys, k)
		p.groupDisp = append(p.groupDisp, g.String())
	}
	if stmt.Having != nil {
		h, err := b.bindExpr(env, stmt.Having)
		if err != nil {
			return nil, err
		}
		p.having = h
		p.havingDisp = stmt.Having.String()
	}

	// Select items. Aliases become visible to later items and to ORDER BY,
	// mapping to the projection slot filled before the reference site.
	itemEnv := &bindEnv{sc: sc, n: len(sc.tables), aliases: map[string]int{}, parent: parent}
	slot := 0
	for _, it := range stmt.Items {
		p.itemsDisp = append(p.itemsDisp, it.String())
		if it.Star {
			bi := boundItem{star: true, starTable: it.StarTable}
			lstar := strings.ToLower(it.StarTable)
			for _, t := range sc.tables {
				if it.StarTable != "" && t.name != lstar {
					continue
				}
				for i, c := range t.schema.Columns {
					bi.offs = append(bi.offs, t.off+i)
					p.cols = append(p.cols, c.Name)
				}
			}
			slot += len(bi.offs)
			p.items = append(p.items, bi)
			continue
		}
		ex, err := b.bindExpr(itemEnv, it.Expr)
		if err != nil {
			return nil, err
		}
		if it.Alias != "" {
			itemEnv.aliases[strings.ToLower(it.Alias)] = slot
			p.cols = append(p.cols, it.Alias)
		} else {
			p.cols = append(p.cols, it.Expr.String())
		}
		p.items = append(p.items, boundItem{expr: ex})
		slot++
	}
	if len(p.cols) == 0 {
		return nil, fmt.Errorf("sqlexec: star matched no tables")
	}

	for _, o := range stmt.OrderBy {
		k, err := b.bindExpr(itemEnv, o.Expr)
		if err != nil {
			return nil, err
		}
		p.orderBy = append(p.orderBy, boundOrder{key: k, desc: o.Desc})
		p.orderDisp = append(p.orderDisp, o.String())
	}
	p.topk = p.boundedK()

	if err := b.planFrom(p, stmt, sc, tabs, ons, where); err != nil {
		return nil, err
	}
	p.subplans = b.subs
	return p, nil
}
