package shard

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"nlidb/internal/plan"
	"nlidb/internal/sqldata"
	"nlidb/internal/sqlparse"
)

// routeKind classifies where an interpreted statement can run.
type routeKind int

const (
	// routeHome: the statement reads no partitioned table, so any one
	// shard answers it whole.
	routeHome routeKind = iota
	// routePruned: every relevant row lives on one shard; run the original
	// statement there.
	routePruned
	// routeScatter: fan a rewritten partial statement out to every shard
	// and merge.
	routeScatter
)

// routeNames are the route labels on spans, metrics and the slow log.
var routeNames = [...]string{routeHome: "home", routePruned: "pruned", routeScatter: "scatter"}

// route is one classified statement: where to run it and how to combine.
type route struct {
	kind       routeKind
	shard      int    // routePruned: the owner shard
	partialSQL string // routeScatter: the per-shard statement
	width      int    // routeScatter: columns in a partial row
	// merge combines the partial rows (routeScatter): an ordinary SELECT
	// over mergeTable, run by the executor like any other statement.
	merge *sqlparse.SelectStmt
}

// mergeTable is the one table a merge statement reads: the gathered
// partial rows, one column per partial output, named by partialCol.
const mergeTable = "partials"

// partialCol references partial output column i in a merge statement.
func partialCol(i int) *sqlparse.ColumnRef {
	return &sqlparse.ColumnRef{Column: "p" + strconv.Itoa(i)}
}

// notDist builds the refusal error for a statement the coordinator cannot
// merge correctly.
func notDist(format string, args ...any) error {
	return &NotDistributableError{Reason: fmt.Sprintf(format, args...)}
}

// conjuncts splits e on top-level ANDs.
func conjuncts(e sqlparse.Expr, out []sqlparse.Expr) []sqlparse.Expr {
	if b, ok := e.(*sqlparse.BinaryExpr); ok && b.Op == "AND" {
		return conjuncts(b.R, conjuncts(b.L, out))
	}
	return append(out, e)
}

// containsAgg reports whether e contains an aggregate call (at any depth,
// not descending into sub-selects).
func containsAgg(e sqlparse.Expr) bool {
	found := false
	var walk func(sqlparse.Expr)
	walk = func(e sqlparse.Expr) {
		switch t := e.(type) {
		case nil:
		case *sqlparse.FuncCall:
			if t.IsAggregate() {
				found = true
			}
			for _, a := range t.Args {
				walk(a)
			}
		case *sqlparse.BinaryExpr:
			walk(t.L)
			walk(t.R)
		case *sqlparse.UnaryExpr:
			walk(t.X)
		case *sqlparse.InExpr:
			walk(t.X)
			for _, a := range t.List {
				walk(a)
			}
		case *sqlparse.BetweenExpr:
			walk(t.X)
			walk(t.Lo)
			walk(t.Hi)
		case *sqlparse.LikeExpr:
			walk(t.X)
		case *sqlparse.IsNullExpr:
			walk(t.X)
		}
	}
	walk(e)
	return found
}

// tableInstance is one FROM entry: the name it is addressable by in the
// query scope and the real table it denotes.
type tableInstance struct {
	eff  string
	real string
}

// classify decides how stmt runs on a cluster partitioned by part. stmt
// has been bound against the full schema: every table it names exists,
// and cols is its output header as the executor names it.
func classify(stmt *sqlparse.SelectStmt, part *Partitioning, cols []string) (*route, error) {
	if stmt.From == nil {
		return &route{kind: routeHome}, nil
	}
	if len(stmt.Subqueries()) > 0 {
		return nil, notDist("sub-queries cannot be evaluated against a single shard's rows")
	}

	refs := stmt.From.Tables()
	insts := make([]tableInstance, len(refs))
	for i, r := range refs {
		insts[i] = tableInstance{eff: r.EffName(), real: r.Name}
	}

	// Pruning: a single-table query whose WHERE pins the partition column
	// to a literal runs complete on the owner shard — aggregates, HAVING,
	// ORDER BY and all, because every relevant row is there.
	if len(refs) == 1 {
		if sh, ok := prunedShard(stmt, insts[0], part); ok {
			return &route{kind: routePruned, shard: sh}, nil
		}
	}

	if stmt.Having != nil {
		return nil, notDist("HAVING filters on merged groups the shards cannot see")
	}
	if len(refs) > 1 {
		if err := checkJoinAlignment(stmt, insts, part); err != nil {
			return nil, err
		}
	}

	hasAgg := false
	for _, it := range stmt.Items {
		if !it.Star && containsAgg(it.Expr) {
			hasAgg = true
		}
	}
	grouped := hasAgg || len(stmt.GroupBy) > 0

	if !grouped {
		return scatterConcat(stmt, cols)
	}
	return scatterGrouped(stmt, cols)
}

// prunedShard looks for a top-level `partition_column = literal` conjunct
// and resolves the owning shard.
func prunedShard(stmt *sqlparse.SelectStmt, inst tableInstance, part *Partitioning) (int, bool) {
	spec := part.Spec(inst.real)
	if stmt.Where == nil || spec == nil {
		return 0, false
	}
	matchCol := func(e sqlparse.Expr) bool {
		c, ok := e.(*sqlparse.ColumnRef)
		if !ok || !strings.EqualFold(c.Column, spec.Column) {
			return false
		}
		return c.Table == "" || strings.EqualFold(c.Table, inst.eff) || strings.EqualFold(c.Table, inst.real)
	}
	for _, conj := range conjuncts(stmt.Where, nil) {
		b, ok := conj.(*sqlparse.BinaryExpr)
		if !ok || b.Op != "=" {
			continue
		}
		var lit *sqlparse.Literal
		if matchCol(b.L) {
			lit, _ = b.R.(*sqlparse.Literal)
		} else if matchCol(b.R) {
			lit, _ = b.L.(*sqlparse.Literal)
		}
		if lit == nil || lit.Val.Null {
			continue
		}
		if sh, ok := part.Owner(inst.real, lit.Val); ok {
			return sh, true
		}
	}
	return 0, false
}

// checkJoinAlignment requires every joined table to be connected to the
// rest through equality conjuncts on co-located columns, so each shard's
// local join sees exactly the row pairs the global join would.
func checkJoinAlignment(stmt *sqlparse.SelectStmt, insts []tableInstance, part *Partitioning) error {
	// Union-find over table instances.
	parent := make([]int, len(insts))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }
	instOf := func(qual string) int {
		for i, in := range insts {
			if strings.EqualFold(qual, in.eff) {
				return i
			}
		}
		return -1
	}

	for _, j := range stmt.From.Joins {
		for _, conj := range conjuncts(j.On, nil) {
			b, ok := conj.(*sqlparse.BinaryExpr)
			if !ok || b.Op != "=" {
				continue
			}
			l, lok := b.L.(*sqlparse.ColumnRef)
			r, rok := b.R.(*sqlparse.ColumnRef)
			if !lok || !rok || l.Table == "" || r.Table == "" {
				continue
			}
			li, ri := instOf(l.Table), instOf(r.Table)
			if li < 0 || ri < 0 || li == ri {
				continue
			}
			if coPartitioned(insts[li].real, l.Column, insts[ri].real, r.Column, part) {
				union(li, ri)
			}
		}
	}
	root := find(0)
	for i := 1; i < len(insts); i++ {
		if find(i) != root {
			return notDist("join between %s and %s is not aligned with the partitioning (no equality on co-located columns)",
				insts[0].real, insts[i].real)
		}
	}
	return nil
}

// coPartitioned reports whether rows of a with a.x = v and rows of b with
// b.y = v always share a shard, for every v.
func coPartitioned(a, x, b, y string, part *Partitioning) bool {
	sa, sb := part.Spec(a), part.Spec(b)
	if sa == nil || sb == nil {
		return false
	}
	ci := strings.EqualFold
	// Child joined to its co-location parent on the FK edge.
	if sa.Parent != "" && ci(sa.Parent, b) && ci(sa.Column, x) && ci(sa.ParentColumn, y) {
		return true
	}
	if sb.Parent != "" && ci(sb.Parent, a) && ci(sb.Column, y) && ci(sb.ParentColumn, x) {
		return true
	}
	// Two siblings co-located via the same parent column.
	if sa.Parent != "" && sb.Parent != "" && ci(sa.Parent, sb.Parent) &&
		ci(sa.ParentColumn, sb.ParentColumn) && ci(sa.Column, x) && ci(sb.Column, y) {
		return true
	}
	// Two hash roots joined on their partition columns (includes
	// self-joins on the primary key).
	if sa.Parent == "" && sa.owners == nil && sb.Parent == "" && sb.owners == nil &&
		ci(sa.Column, x) && ci(sb.Column, y) {
		return true
	}
	return false
}

// scatterConcat plans a plain (aggregate-free, ungrouped) scatter: each
// shard runs the statement as-is — per-shard ORDER BY + LIMIT computes a
// local top-k — and the merge concatenates, with the statement's
// DISTINCT, ORDER BY and LIMIT over the concatenation.
func scatterConcat(stmt *sqlparse.SelectStmt, cols []string) (*route, error) {
	exprs := make([]sqlparse.Expr, len(cols))
	for i := range cols {
		exprs[i] = partialCol(i)
	}
	return mergeRoute(stmt, stmt, len(cols), cols, exprs, nil)
}

// scatterGrouped plans an aggregate (or GROUP BY) scatter: shards run a
// rewritten partial statement — AVG split into SUM + COUNT, ORDER BY and
// LIMIT stripped — and the merge statement regroups the partials on the
// group keys and combines each aggregate: COUNT as SUM, SUM, MIN and MAX
// as themselves, AVG as SUM(sum)/SUM(count).
func scatterGrouped(stmt *sqlparse.SelectStmt, cols []string) (*route, error) {
	var partialItems []sqlparse.SelectItem
	// partial adds it to the partial statement and returns its column.
	partial := func(it sqlparse.SelectItem) sqlparse.Expr {
		partialItems = append(partialItems, it)
		return partialCol(len(partialItems) - 1)
	}
	sum := func(e sqlparse.Expr) sqlparse.Expr {
		return &sqlparse.FuncCall{Name: "SUM", Args: []sqlparse.Expr{e}}
	}
	exprs := make([]sqlparse.Expr, len(stmt.Items))
	keys := map[string]sqlparse.Expr{} // printed group-key item → its partial column
	for i, it := range stmt.Items {
		if it.Star {
			return nil, notDist("star projection mixed with grouping")
		}
		f, isCall := it.Expr.(*sqlparse.FuncCall)
		switch {
		case isCall && f.IsAggregate():
			if f.Distinct {
				return nil, notDist("%s(DISTINCT ...) cannot be combined from per-shard partials", f.Name)
			}
			switch f.Name {
			case "AVG":
				s := partial(sqlparse.SelectItem{Expr: &sqlparse.FuncCall{Name: "SUM", Args: f.Args}})
				n := partial(sqlparse.SelectItem{Expr: &sqlparse.FuncCall{Name: "COUNT", Args: f.Args}})
				exprs[i] = &sqlparse.BinaryExpr{Op: "/", L: sum(s), R: sum(n)}
			case "COUNT":
				exprs[i] = sum(partial(sqlparse.SelectItem{Expr: it.Expr}))
			default:
				exprs[i] = &sqlparse.FuncCall{Name: f.Name, Args: []sqlparse.Expr{partial(sqlparse.SelectItem{Expr: it.Expr})}}
			}
		case containsAgg(it.Expr):
			return nil, notDist("aggregate inside expression %q cannot be combined from per-shard partials", it.Expr)
		default:
			exprs[i] = partial(sqlparse.SelectItem{Expr: it.Expr, Alias: it.Alias})
			if k := strings.ToLower(it.Expr.String()); keys[k] == nil {
				keys[k] = exprs[i]
			}
		}
	}

	// Group keys must surface in the partials, or the merge cannot
	// regroup; require each GROUP BY expression to appear as an item.
	var groupBy []sqlparse.Expr
	for _, g := range stmt.GroupBy {
		k := keys[strings.ToLower(g.String())]
		if k == nil {
			return nil, notDist("GROUP BY key %q is not in the select list", g)
		}
		groupBy = append(groupBy, k)
	}

	partialStmt := &sqlparse.SelectStmt{
		Items:   partialItems,
		From:    stmt.From,
		Where:   stmt.Where,
		GroupBy: stmt.GroupBy,
		Limit:   -1,
	}
	return mergeRoute(stmt, partialStmt, len(partialItems), cols, exprs, groupBy)
}

// mergeRoute is the scatter route running partial, whose rows have width
// columns, on every shard and merging with the statement that selects
// exprs, each aliased to stmt's header in cols, grouped by groupBy, and
// ending in stmt's DISTINCT, ORDER BY and LIMIT.
func mergeRoute(stmt, partial *sqlparse.SelectStmt, width int, cols []string, exprs, groupBy []sqlparse.Expr) (*route, error) {
	items := make([]sqlparse.SelectItem, len(exprs))
	for i, e := range exprs {
		items[i] = sqlparse.SelectItem{Expr: e, Alias: cols[i]}
	}
	order, err := resolveOrder(stmt.OrderBy, cols, exprs)
	if err != nil {
		return nil, err
	}
	return &route{
		kind:       routeScatter,
		partialSQL: partial.String(),
		width:      width,
		merge: &sqlparse.SelectStmt{
			Distinct: stmt.Distinct,
			Items:    items,
			From:     &sqlparse.FromClause{First: sqlparse.TableRef{Name: mergeTable}},
			GroupBy:  groupBy,
			OrderBy:  order,
			Limit:    stmt.Limit,
		},
	}, nil
}

// resolveOrder maps ORDER BY expressions onto the merge expressions of
// output columns, matching the printed expression (and, for qualified
// column refs, the bare column name) case-insensitively against the
// header, so a statement whose merged rows cannot be re-sorted fails at
// classification, not after fanning out.
func resolveOrder(items []sqlparse.OrderItem, cols []string, exprs []sqlparse.Expr) ([]sqlparse.OrderItem, error) {
	out := make([]sqlparse.OrderItem, 0, len(items))
	for _, o := range items {
		idx := -1
		want := o.Expr.String()
		bare := ""
		if c, ok := o.Expr.(*sqlparse.ColumnRef); ok && c.Table != "" {
			bare = c.Column
		}
		for i, col := range cols {
			if strings.EqualFold(col, want) || (bare != "" && strings.EqualFold(col, bare)) {
				idx = i
				break
			}
		}
		if idx < 0 {
			return nil, notDist("ORDER BY %q is not an output column, so merged rows cannot be re-sorted", want)
		}
		out = append(out, sqlparse.OrderItem{Expr: exprs[idx], Desc: o.Desc})
	}
	return out, nil
}

// merge runs rt's merge statement over the per-shard partial results
// (nil entries are missing shards, already accounted as Partial by the
// caller). The partial rows load, in shard order, into a one-table
// database whose column types come from the values, INT widening to FLOAT
// where a shard promoted an overflowing SUM; the executor then groups,
// combines, sorts and limits them under the cluster's budget exactly as
// it does every statement.
func (c *Cluster) merge(ctx context.Context, rt *route, partials []*sqldata.Result) (*sqldata.Result, error) {
	cols := make([]sqldata.Column, rt.width)
	typed := make([]bool, rt.width)
	for i := range cols {
		cols[i].Name = partialCol(i).Column
	}
	for _, p := range partials {
		if p == nil {
			continue
		}
		for _, row := range p.Rows {
			if len(row) != rt.width {
				return nil, fmt.Errorf("shard: partial row has %d columns, need %d", len(row), rt.width)
			}
			for i, v := range row {
				switch {
				case v.Null:
				case !typed[i]:
					cols[i].Type, typed[i] = v.T, true
				case v.T == sqldata.TypeFloat && cols[i].Type == sqldata.TypeInt:
					cols[i].Type = sqldata.TypeFloat
				}
			}
		}
	}
	db := sqldata.NewDatabase(mergeTable)
	t, err := db.CreateTable(&sqldata.Schema{Name: mergeTable, Columns: cols})
	if err != nil {
		return nil, err
	}
	for _, p := range partials {
		if p == nil {
			continue
		}
		for _, row := range p.Rows {
			if err := t.Insert(row); err != nil {
				return nil, fmt.Errorf("shard: merge: %w", err)
			}
		}
	}
	pl, err := plan.Prepare(db, rt.merge)
	if err != nil {
		return nil, fmt.Errorf("shard: merge: %w", err)
	}
	res, _, err := pl.Run(ctx, c.cfg.Gateway.Budget)
	return res, err
}
