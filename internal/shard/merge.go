package shard

import (
	"fmt"
	"sort"
	"strings"

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
	shard      int        // routePruned: the owner shard
	partialSQL string     // routeScatter: the per-shard statement
	merge      *mergePlan // routeScatter
}

// mergeItem describes one final output column of a scatter-gather
// aggregate merge.
type mergeItem struct {
	agg     string // "" = group-key passthrough; else COUNT/SUM/MIN/MAX/AVG
	partIdx int    // column index in the partial result (non-AVG)
	sumIdx  int    // AVG: partial index of the pushed-down SUM
	cntIdx  int    // AVG: partial index of the pushed-down COUNT
}

// mergeOrder is one resolved ORDER BY key over final output columns.
type mergeOrder struct {
	idx  int
	desc bool
}

// mergePlan is everything the coordinator needs to combine per-shard
// partial results into the answer the unsharded engine would have given.
type mergePlan struct {
	grouped     bool     // aggregate/group path (vs plain row concat)
	globalAgg   bool     // aggregate without GROUP BY: exactly one row
	finalCols   []string // output header (grouped path)
	items       []mergeItem
	groupKeyIdx []int // partial indexes forming the group key
	distinct    bool
	orderBy     []sqlparse.OrderItem // resolved against the final header at merge time
	limit       int
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

// outName is the executor's output-column naming rule (alias, else the
// printed expression), so sharded headers match unsharded ones.
func outName(it sqlparse.SelectItem) string {
	if it.Alias != "" {
		return it.Alias
	}
	return it.Expr.String()
}

// tableInstance is one FROM entry: the name it is addressable by in the
// query scope and the real table it denotes.
type tableInstance struct {
	eff  string
	real string
}

// classify decides how stmt runs on a cluster partitioned by part. stmt
// has been bound against the full schema: every table it names exists.
func classify(stmt *sqlparse.SelectStmt, part *Partitioning) (*route, error) {
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
		return scatterConcat(stmt)
	}
	return scatterGrouped(stmt)
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
// local top-k — and the coordinator concatenates, dedups DISTINCT,
// re-sorts, and re-limits.
func scatterConcat(stmt *sqlparse.SelectStmt) (*route, error) {
	hasStar := false
	for _, it := range stmt.Items {
		if it.Star {
			hasStar = true
		}
	}
	if len(stmt.OrderBy) > 0 && !hasStar {
		// Pre-check resolvability so unanswerable questions fail at
		// classification, not after fanning out.
		cols := make([]string, len(stmt.Items))
		for i, it := range stmt.Items {
			cols[i] = outName(it)
		}
		if _, err := resolveOrder(stmt.OrderBy, cols); err != nil {
			return nil, err
		}
	}
	return &route{
		kind:       routeScatter,
		partialSQL: stmt.String(),
		merge: &mergePlan{
			distinct: stmt.Distinct,
			orderBy:  stmt.OrderBy,
			limit:    stmt.Limit,
		},
	}, nil
}

// scatterGrouped plans an aggregate (or GROUP BY) scatter: shards run a
// rewritten partial statement — AVG split into SUM + COUNT, ORDER BY and
// LIMIT stripped — and the coordinator merges partial aggregates with the
// executor's exact combining semantics, then sorts and limits.
func scatterGrouped(stmt *sqlparse.SelectStmt) (*route, error) {
	plan := &mergePlan{grouped: true, distinct: stmt.Distinct, limit: stmt.Limit, orderBy: stmt.OrderBy}
	var partialItems []sqlparse.SelectItem
	for _, it := range stmt.Items {
		if it.Star {
			return nil, notDist("star projection mixed with grouping")
		}
		plan.finalCols = append(plan.finalCols, outName(it))
		f, isCall := it.Expr.(*sqlparse.FuncCall)
		switch {
		case isCall && f.IsAggregate():
			if f.Distinct {
				return nil, notDist("%s(DISTINCT ...) cannot be combined from per-shard partials", f.Name)
			}
			if f.Name == "AVG" {
				plan.items = append(plan.items, mergeItem{agg: "AVG", sumIdx: len(partialItems), cntIdx: len(partialItems) + 1})
				partialItems = append(partialItems,
					sqlparse.SelectItem{Expr: &sqlparse.FuncCall{Name: "SUM", Args: f.Args}},
					sqlparse.SelectItem{Expr: &sqlparse.FuncCall{Name: "COUNT", Args: f.Args}})
				continue
			}
			plan.items = append(plan.items, mergeItem{agg: f.Name, partIdx: len(partialItems)})
			partialItems = append(partialItems, sqlparse.SelectItem{Expr: it.Expr})
		case containsAgg(it.Expr):
			return nil, notDist("aggregate inside expression %q cannot be combined from per-shard partials", it.Expr)
		default:
			plan.items = append(plan.items, mergeItem{partIdx: len(partialItems)})
			plan.groupKeyIdx = append(plan.groupKeyIdx, len(partialItems))
			partialItems = append(partialItems, sqlparse.SelectItem{Expr: it.Expr, Alias: it.Alias})
		}
	}

	// Group keys must surface in the partials, or the coordinator cannot
	// regroup; require each GROUP BY expression to appear as an item.
	for _, g := range stmt.GroupBy {
		found := false
		for i, it := range stmt.Items {
			if !it.Star && plan.items[i].agg == "" && strings.EqualFold(it.Expr.String(), g.String()) {
				found = true
				break
			}
		}
		if !found {
			return nil, notDist("GROUP BY key %q is not in the select list", g)
		}
	}
	plan.globalAgg = len(stmt.GroupBy) == 0
	if len(stmt.OrderBy) > 0 {
		if _, err := resolveOrder(stmt.OrderBy, plan.finalCols); err != nil {
			return nil, err
		}
	}

	partial := &sqlparse.SelectStmt{
		Items:   partialItems,
		From:    stmt.From,
		Where:   stmt.Where,
		GroupBy: stmt.GroupBy,
		Limit:   -1,
	}
	plan.limit = stmt.Limit
	return &route{kind: routeScatter, partialSQL: partial.String(), merge: plan}, nil
}

// resolveOrder maps ORDER BY expressions onto output column indexes,
// matching the printed expression (and, for qualified column refs, the
// bare column name) case-insensitively.
func resolveOrder(items []sqlparse.OrderItem, cols []string) ([]mergeOrder, error) {
	out := make([]mergeOrder, 0, len(items))
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
		out = append(out, mergeOrder{idx: idx, desc: o.Desc})
	}
	return out, nil
}

// numSum accumulates SUM partials with the executor's typing: an all-INT
// input stays INT, any FLOAT widens the total, and an input with no
// non-NULL values yields NULL.
type numSum struct {
	has bool
	isF bool
	i   int64
	f   float64
}

func (s *numSum) add(v sqldata.Value) {
	if v.Null {
		return
	}
	if iv, ok := v.IntOK(); ok {
		s.has = true
		s.i += iv
		s.f += float64(iv)
		return
	}
	if fv, ok := v.FloatOK(); ok {
		s.has = true
		s.isF = true
		s.f += fv
	}
}

func (s *numSum) value() sqldata.Value {
	switch {
	case !s.has:
		return sqldata.NullValue()
	case s.isF:
		return sqldata.NewFloat(s.f)
	default:
		return sqldata.NewInt(s.i)
	}
}

// groupAcc accumulates one merged group.
type groupAcc struct {
	out  sqldata.Row // group-key passthrough values (agg slots overwritten at finalize)
	sums []numSum    // per item: SUM / AVG-sum accumulator
	cnts []int64     // per item: COUNT / AVG-count accumulator
	best []sqldata.Value
	has  []bool // per item: MIN/MAX has a non-NULL candidate
}

// merge combines per-shard partial results (nil entries = missing shards,
// already accounted as Partial by the caller) into the final result.
func (m *mergePlan) merge(partials []*sqldata.Result) (*sqldata.Result, error) {
	if m.grouped {
		return m.mergeGrouped(partials)
	}
	return m.mergeConcat(partials)
}

func (m *mergePlan) mergeConcat(partials []*sqldata.Result) (*sqldata.Result, error) {
	var cols []string
	var rows []sqldata.Row
	for _, p := range partials {
		if p == nil {
			continue
		}
		if cols == nil {
			cols = p.Columns
		}
		rows = append(rows, p.Rows...)
	}
	if cols == nil {
		return nil, fmt.Errorf("shard: no partial results to merge")
	}
	if m.distinct {
		rows = dedupRows(rows)
	}
	if len(m.orderBy) > 0 {
		ord, err := resolveOrder(m.orderBy, cols)
		if err != nil {
			return nil, err
		}
		sortRows(rows, ord)
	}
	if m.limit >= 0 && len(rows) > m.limit {
		rows = rows[:m.limit]
	}
	return &sqldata.Result{Columns: cols, Rows: rows}, nil
}

func (m *mergePlan) mergeGrouped(partials []*sqldata.Result) (*sqldata.Result, error) {
	groups := map[string]*groupAcc{}
	var order []string // first-seen group order, for determinism pre-sort
	for _, p := range partials {
		if p == nil {
			continue
		}
		for _, row := range p.Rows {
			if len(row) < len(m.items)+countAVGExtra(m.items) {
				return nil, fmt.Errorf("shard: partial row has %d columns, need %d", len(row), len(m.items)+countAVGExtra(m.items))
			}
			key := groupKey(row, m.groupKeyIdx)
			acc := groups[key]
			if acc == nil {
				acc = &groupAcc{
					out:  make(sqldata.Row, len(m.items)),
					sums: make([]numSum, len(m.items)),
					cnts: make([]int64, len(m.items)),
					best: make([]sqldata.Value, len(m.items)),
					has:  make([]bool, len(m.items)),
				}
				for i, it := range m.items {
					if it.agg == "" {
						acc.out[i] = row[it.partIdx]
					}
				}
				groups[key] = acc
				order = append(order, key)
			}
			for i, it := range m.items {
				switch it.agg {
				case "":
				case "COUNT":
					if n, ok := row[it.partIdx].IntOK(); ok {
						acc.cnts[i] += n
					}
				case "SUM":
					acc.sums[i].add(row[it.partIdx])
				case "AVG":
					acc.sums[i].add(row[it.sumIdx])
					if n, ok := row[it.cntIdx].IntOK(); ok {
						acc.cnts[i] += n
					}
				case "MIN", "MAX":
					v := row[it.partIdx]
					if v.Null {
						continue
					}
					if !acc.has[i] {
						acc.best[i], acc.has[i] = v, true
						continue
					}
					c, err := sqldata.Compare(v, acc.best[i])
					if err == nil && ((it.agg == "MIN" && c < 0) || (it.agg == "MAX" && c > 0)) {
						acc.best[i] = v
					}
				}
			}
		}
	}

	rows := make([]sqldata.Row, 0, len(order))
	for _, key := range order {
		acc := groups[key]
		for i, it := range m.items {
			switch it.agg {
			case "":
			case "COUNT":
				acc.out[i] = sqldata.NewInt(acc.cnts[i])
			case "SUM":
				acc.out[i] = acc.sums[i].value()
			case "AVG":
				if acc.cnts[i] == 0 {
					acc.out[i] = sqldata.NullValue()
				} else {
					acc.out[i] = sqldata.NewFloat(acc.sums[i].f / float64(acc.cnts[i]))
				}
			case "MIN", "MAX":
				if acc.has[i] {
					acc.out[i] = acc.best[i]
				} else {
					acc.out[i] = sqldata.NullValue()
				}
			}
		}
		rows = append(rows, acc.out)
	}
	if m.globalAgg && len(rows) == 0 {
		// Mirror the executor's empty-input global aggregate: one row of
		// zero counts and NULL sums.
		row := make(sqldata.Row, len(m.items))
		for i, it := range m.items {
			if it.agg == "COUNT" {
				row[i] = sqldata.NewInt(0)
			} else {
				row[i] = sqldata.NullValue()
			}
		}
		rows = append(rows, row)
	}
	if m.distinct {
		rows = dedupRows(rows)
	}
	if len(m.orderBy) > 0 {
		ord, err := resolveOrder(m.orderBy, m.finalCols)
		if err != nil {
			return nil, err
		}
		sortRows(rows, ord)
	}
	if m.limit >= 0 && len(rows) > m.limit {
		rows = rows[:m.limit]
	}
	return &sqldata.Result{Columns: m.finalCols, Rows: rows}, nil
}

func countAVGExtra(items []mergeItem) int {
	n := 0
	for _, it := range items {
		if it.agg == "AVG" {
			n++
		}
	}
	return n
}

func groupKey(row sqldata.Row, idx []int) string {
	if len(idx) == 0 {
		return ""
	}
	parts := make([]string, len(idx))
	for i, j := range idx {
		parts[i] = row[j].Key()
	}
	return strings.Join(parts, "\x1f")
}

func dedupRows(rows []sqldata.Row) []sqldata.Row {
	seen := make(map[string]bool, len(rows))
	out := rows[:0:0]
	for _, r := range rows {
		k := r.Key()
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, r)
	}
	return out
}

// sortRows orders rows by the resolved keys, NULLs first ascending (the
// executor's rule), falling back to collation-key comparison when values
// are incomparable.
func sortRows(rows []sqldata.Row, ord []mergeOrder) {
	sort.SliceStable(rows, func(a, b int) bool {
		for _, o := range ord {
			va, vb := rows[a][o.idx], rows[b][o.idx]
			c := compareForSort(va, vb)
			if c == 0 {
				continue
			}
			if o.desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
}

func compareForSort(a, b sqldata.Value) int {
	switch {
	case a.Null && b.Null:
		return 0
	case a.Null:
		return -1
	case b.Null:
		return 1
	}
	if c, err := sqldata.Compare(a, b); err == nil {
		return c
	}
	return strings.Compare(a.Key(), b.Key())
}
