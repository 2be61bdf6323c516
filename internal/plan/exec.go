package plan

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"nlidb/internal/obs"
	"nlidb/internal/sqldata"
	"nlidb/internal/sqlparse"
)

// The executor runs a prepared Plan: each operator materializes its output
// with the Budget/ctx checks of the old tree-walker at the same row
// boundaries, so budget errors and cancellations fire at identical points.

// execEnv carries one plan run's execution state: the shared budget/ctx
// meter, the enclosing statement frame (for correlated sub-plans), the span
// operator child-spans hang off (nil for sub-plans — a correlated sub-query
// re-runs per outer row, and a span per run would bloat the trace), and the
// per-operator row-count slots and fused-join marks (nil outside RunStats).
type execEnv struct {
	st     *execState
	parent *frame
	span   *obs.Span
	stats  []int64
	fused  []bool
}

// Stats holds per-operator output row counts from one RunStats execution,
// indexed by the node ids assigned at plan time, and which joins aggregated
// as they probed.
type Stats struct {
	rows  []int64
	fused []bool
}

// Run executes the plan under ctx and budget b. Usage is reported for
// failed executions too — a budget-killed query still says how far it got.
// When ctx carries an obs span, the executor annotates it with rows
// scanned/returned, join rows, sub-query count, and budget consumption, and
// hangs per-operator scan/join/group child spans off it.
func (p *Plan) Run(ctx context.Context, b Budget) (*sqldata.Result, Usage, error) {
	res, u, _, err := p.exec(ctx, b, nil)
	return res, u, err
}

// RunStats is Run plus per-operator row counts for EXPLAIN ANALYZE.
func (p *Plan) RunStats(ctx context.Context, b Budget) (*sqldata.Result, Usage, *Stats, error) {
	return p.exec(ctx, b, &Stats{rows: make([]int64, p.nstats), fused: make([]bool, p.nstats)})
}

func (p *Plan) exec(ctx context.Context, b Budget, stats *Stats) (*sqldata.Result, Usage, *Stats, error) {
	st := &execState{ctx: ctx, budget: b, span: obs.FromContext(ctx)}
	if err := st.checkCtx(); err != nil {
		return nil, Usage{}, nil, err
	}
	env := &execEnv{st: st, span: st.span}
	if stats != nil {
		env.stats, env.fused = stats.rows, stats.fused
	}
	res, err := p.run(env)
	u := Usage{Rows: st.rows, JoinRows: st.joinRows, Subqueries: st.subqueries}
	if st.span != nil {
		st.span.Add("rows_scanned", int64(u.Rows))
		st.span.Add("join_rows", int64(u.JoinRows))
		st.span.Add("subqueries", int64(u.Subqueries))
		if res != nil {
			st.span.Add("rows_returned", int64(len(res.Rows)))
		}
		st.span.SetAttr("budget", u.Against(b))
	}
	return res, u, stats, err
}

// runSub evaluates a sub-plan against the enclosing statement's execution
// state, charging one sub-query evaluation. fr becomes the parent frame for
// the sub-plan's correlated references.
func (p *Plan) runSub(st *execState, fr *frame) (*sqldata.Result, error) {
	if err := st.addSubquery(); err != nil {
		return nil, err
	}
	return p.run(&execEnv{st: st, parent: fr})
}

// outRow is one projected output row plus its ORDER BY keys.
type outRow struct {
	proj sqldata.Row
	keys []sqldata.Value
}

// projectFrame fills fr.proj slot by slot, so a select alias bound to an
// earlier slot is readable by later items (and by ORDER BY).
func (p *Plan) projectFrame(st *execState, fr *frame) error {
	fr.proj = make(sqldata.Row, 0, len(p.cols))
	for _, it := range p.items {
		if it.star {
			if len(it.offs) == 0 {
				return fmt.Errorf("sqlexec: %s.* matched no table", it.starTable)
			}
			for _, off := range it.offs {
				fr.proj = append(fr.proj, fr.row[off])
			}
			continue
		}
		v, err := evalExpr(st, fr, it.expr)
		if err != nil {
			return err
		}
		fr.proj = append(fr.proj, v)
	}
	return nil
}

// orderKeysFrame evaluates the ORDER BY keys against a projected frame.
func (p *Plan) orderKeysFrame(st *execState, fr *frame) ([]sqldata.Value, error) {
	if len(p.orderBy) == 0 {
		return nil, nil
	}
	keys := make([]sqldata.Value, len(p.orderBy))
	for i, o := range p.orderBy {
		v, err := evalExpr(st, fr, o.key)
		if err != nil {
			return nil, err
		}
		keys[i] = v
	}
	return keys, nil
}

// emitFrame projects one frame, evaluates its sort keys, charges the row,
// and appends it to out.
func (p *Plan) emitFrame(st *execState, fr *frame, out *[]outRow) error {
	if err := p.projectFrame(st, fr); err != nil {
		return err
	}
	keys, err := p.orderKeysFrame(st, fr)
	if err != nil {
		return err
	}
	if err := st.addRows(1); err != nil {
		return err
	}
	*out = append(*out, outRow{proj: fr.proj, keys: keys})
	return nil
}

// run executes the operator tree and the group/sort/project/limit tail.
func (p *Plan) run(env *execEnv) (*sqldata.Result, error) {
	if p.vec != nil {
		return p.runVec(env)
	}
	st := env.st
	rows, err := p.src.rows(env)
	if err != nil {
		return nil, err
	}

	var out []outRow
	emit := func(fr *frame) error { return p.emitFrame(st, fr, &out) }

	if p.grouped {
		groups, order, err := p.groupRows(env, rows)
		if err != nil {
			return nil, err
		}
		for _, key := range order {
			g := groups[key]
			var rep sqldata.Row
			if len(g) > 0 {
				rep = g[0]
			} else {
				rep = nullRow(p.width) // all-NULL representative for empty global group
			}
			fr := &frame{row: rep, group: g, parent: env.parent}
			if p.having != nil {
				ok, err := evalPredicate(st, fr, p.having)
				if err != nil {
					return nil, err
				}
				if !ok {
					continue
				}
			}
			if err := emit(fr); err != nil {
				return nil, err
			}
		}
	} else {
		for _, r := range rows {
			if err := st.tick(); err != nil {
				return nil, err
			}
			if err := emit(&frame{row: r, parent: env.parent}); err != nil {
				return nil, err
			}
		}
	}

	return p.finishRows(env, out, len(out))
}

// cmpKeys orders two rows by their ORDER BY keys: NULLs first ascending,
// last descending. It fails only where sqldata.Compare does.
func (p *Plan) cmpKeys(x, y []sqldata.Value) (int, error) {
	for k, o := range p.orderBy {
		a, b := x[k], y[k]
		if a.Null || b.Null {
			if a.Null && b.Null {
				continue
			}
			return o.nullOrder(a.Null), nil
		}
		c, err := sqldata.Compare(a, b)
		if err != nil {
			return 0, err
		}
		if c != 0 {
			return o.directed(c), nil
		}
	}
	return 0, nil
}

// nullOrder orders a NULL key against a non-NULL one (aNull says which
// is the NULL): first ascending, last descending.
func (o boundOrder) nullOrder(aNull bool) int {
	if aNull != o.desc {
		return -1
	}
	return 1
}

// directed flips an ascending comparison for DESC.
func (o boundOrder) directed(c int) int {
	if o.desc {
		return -c
	}
	return c
}

// finishRows applies the shared ORDER BY / DISTINCT / LIMIT tail to the
// emitted rows and fills the projection/result stat slots. Both executors
// (row-at-a-time and vectorized) funnel through it, so the output ordering
// and dedup semantics cannot drift between them. projected is how many
// rows the projection produced: the vectorized emit hands over only the
// ones the tail can return.
func (p *Plan) finishRows(env *execEnv, out []outRow, projected int) (*sqldata.Result, error) {
	switch {
	case len(p.orderBy) == 0:
	case p.topk >= 0 && p.topk < len(out):
		// Bounded: keep the topk rows a stable sort would put first.
		// The keys are statically typed, so cmpKeys cannot fail.
		sel := make([]outRow, p.topk)
		for o, i := range topK(len(out), p.topk, func(i, j int32) int {
			c, _ := p.cmpKeys(out[i].keys, out[j].keys)
			return c
		}) {
			sel[o] = out[i]
		}
		out = sel
	default:
		// Stable, so ties keep input order.
		var sortErr error
		sort.SliceStable(out, func(i, j int) bool {
			c, err := p.cmpKeys(out[i].keys, out[j].keys)
			if err != nil {
				sortErr = err
				return false
			}
			return c < 0
		})
		if sortErr != nil {
			return nil, sortErr
		}
	}

	result := &sqldata.Result{Columns: p.cols}
	m := len(out)
	if p.limit >= 0 && p.limit < m {
		m = p.limit
	}
	switch {
	case m == 0:
	case p.distinct:
		// Grown, not sized: m bounds the distinct rows but may exceed them
		// by far, and a cached answer would hold the slack.
		seen := map[string]bool{}
		for _, o := range out {
			k := o.proj.Key()
			if seen[k] {
				continue
			}
			seen[k] = true
			result.Rows = append(result.Rows, o.proj)
			if len(result.Rows) == m {
				break
			}
		}
	default:
		result.Rows = make([]sqldata.Row, m)
		for i := range result.Rows {
			result.Rows[i] = out[i].proj
		}
	}
	if env.stats != nil {
		env.stats[p.nidProject] = int64(projected)
		env.stats[p.nidResult] = int64(len(result.Rows))
	}
	return result, nil
}

// groupRows hash-partitions rows by the GROUP BY key expressions,
// returning the groups plus key order of first appearance (deterministic
// output). With no GROUP BY (global aggregate) it returns one group, which
// may be empty.
func (p *Plan) groupRows(env *execEnv, rows []sqldata.Row) (map[string][]sqldata.Row, []string, error) {
	st := env.st
	groups := map[string][]sqldata.Row{}
	var order []string
	if len(p.groupKeys) == 0 {
		groups[""] = rows
		if env.stats != nil {
			env.stats[p.nidGroup] = 1
		}
		return groups, []string{""}, nil
	}
	gsp := env.span.Child("group")
	defer func() {
		gsp.Add("in_rows", int64(len(rows)))
		gsp.Add("groups", int64(len(order)))
		gsp.End()
	}()
	for _, r := range rows {
		if err := st.tick(); err != nil {
			return nil, nil, err
		}
		fr := &frame{row: r, parent: env.parent}
		var sb strings.Builder
		for _, k := range p.groupKeys {
			v, err := evalExpr(st, fr, k)
			if err != nil {
				// Group-key evaluation errors surface later during
				// projection; bucket such rows together.
				sb.WriteString("\x00ERR")
				continue
			}
			sb.WriteString(v.Key())
			sb.WriteByte(0x1f)
		}
		k := sb.String()
		if _, seen := groups[k]; !seen {
			order = append(order, k)
		}
		groups[k] = append(groups[k], r)
	}
	if env.stats != nil {
		env.stats[p.nidGroup] = int64(len(order))
	}
	return groups, order, nil
}

// rows scans the base table, charges the budget when this is the
// statement's first table, and applies pushed-down predicates. The
// returned slice aliases the table storage when no filter applies; nothing
// downstream mutates rows, and fresh slices are allocated wherever rows
// are dropped.
func (s *scanNode) rows(env *execEnv) ([]sqldata.Row, error) {
	st := env.st
	var sp *obs.Span
	if s.span != "" {
		sp = env.span.Child(s.span)
	}
	if s.charge {
		if err := st.addRows(len(s.tab.Rows)); err != nil {
			sp.End()
			return nil, err
		}
	}
	sp.Add("rows", int64(len(s.tab.Rows)))
	sp.End()

	rows := s.tab.Rows
	if len(s.filter) > 0 {
		kept := make([]sqldata.Row, 0, len(rows))
		for _, r := range rows {
			if err := st.tick(); err != nil {
				return nil, err
			}
			fr := &frame{row: r, parent: env.parent}
			keep := true
			for _, c := range s.filter {
				ok, err := evalPredicate(st, fr, c)
				if err != nil {
					return nil, err // unreachable: pushed conjuncts are statically safe
				}
				if !ok {
					keep = false
					break
				}
			}
			if keep {
				kept = append(kept, r)
			}
		}
		rows = kept
	} else if rows == nil {
		rows = []sqldata.Row{}
	}
	if env.stats != nil {
		env.stats[s.nid] = int64(len(rows))
	}
	return rows, nil
}

// rows applies the residual WHERE conjuncts. Every conjunct is evaluated
// for every row — AND under three-valued logic evaluates both sides, so a
// short-circuit would skip conjuncts whose evaluation errors.
func (f *filterNode) rows(env *execEnv) ([]sqldata.Row, error) {
	st := env.st
	rows, err := f.child.rows(env)
	if err != nil {
		return nil, err
	}
	kept := make([]sqldata.Row, 0, len(rows))
	for _, r := range rows {
		if err := st.tick(); err != nil {
			return nil, err
		}
		fr := &frame{row: r, parent: env.parent}
		keep := true
		for _, c := range f.conj {
			ok, err := evalPredicate(st, fr, c)
			if err != nil {
				return nil, err
			}
			keep = keep && ok
		}
		if keep {
			kept = append(kept, r)
		}
	}
	if env.stats != nil {
		env.stats[f.nid] = int64(len(kept))
	}
	return kept, nil
}

func (j *joinNode) rows(env *execEnv) ([]sqldata.Row, error) {
	left, err := j.left.rows(env)
	if err != nil {
		return nil, err
	}
	right, err := j.right.rows(env)
	if err != nil {
		return nil, err
	}
	sp := env.span.Child(j.span)
	sp.Add("left_rows", int64(len(left)))
	sp.Add("right_rows", int64(len(right)))
	sp.SetAttr("algo", j.algo)
	var joined []sqldata.Row
	if j.algo == "hash" {
		joined, err = j.hashJoin(env, left, right)
	} else {
		joined, err = j.nlJoin(env, left, right)
	}
	sp.Add("out_rows", int64(len(joined)))
	sp.End()
	if err != nil {
		return nil, err
	}
	if env.stats != nil {
		env.stats[j.nid] = int64(len(joined))
	}
	return joined, nil
}

func (j *joinNode) nlJoin(env *execEnv, left, right []sqldata.Row) ([]sqldata.Row, error) {
	st := env.st
	// Non-nil even when no pair matches: a zero-output join must still
	// form a (non-nil, empty) global aggregate group so COUNT returns 0.
	joined := []sqldata.Row{}
	for _, l := range left {
		matched := false
		for _, r := range right {
			if err := st.tick(); err != nil {
				return nil, err
			}
			combined := append(append(sqldata.Row{}, l...), r...)
			fr := &frame{row: combined, parent: env.parent}
			ok := true
			for _, c := range j.on {
				v, err := evalPredicate(st, fr, c)
				if err != nil {
					return nil, err
				}
				ok = ok && v
			}
			if ok {
				matched = true
				if err := st.addJoinRows(1); err != nil {
					return nil, err
				}
				joined = append(joined, combined)
			}
		}
		if !matched && j.typ == sqlparse.JoinLeft {
			if err := st.addJoinRows(1); err != nil {
				return nil, err
			}
			joined = append(joined, append(append(sqldata.Row{}, l...), nullRow(j.rwidth)...))
		}
	}
	return joined, nil
}

// hashJoin builds buckets of right-row indices keyed by the canonical
// encodings of the equi-key values, then probes in left order. Buckets
// keep ascending right-row order, so per left row the matches emit in the
// same order the nested loop would — identical output order and identical
// budget-error points. A NULL key on either side never matches, exactly
// like `=` returning UNKNOWN.
func (j *joinNode) hashJoin(env *execEnv, left, right []sqldata.Row) ([]sqldata.Row, error) {
	st := env.st
	buckets := make(map[string][]int, len(right))
	for ri, r := range right {
		if err := st.tick(); err != nil {
			return nil, err
		}
		key, ok, err := j.hashOf(st, &frame{row: r, parent: env.parent}, j.rKeys)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		buckets[key] = append(buckets[key], ri)
	}

	joined := []sqldata.Row{} // non-nil: see nlJoin
	for _, l := range left {
		if err := st.tick(); err != nil {
			return nil, err
		}
		matched := false
		key, ok, err := j.hashOf(st, &frame{row: l, parent: env.parent}, j.lKeys)
		if err != nil {
			return nil, err
		}
		if ok {
			for _, ri := range buckets[key] {
				combined := append(append(sqldata.Row{}, l...), right[ri]...)
				keep := true
				if len(j.residual) > 0 {
					fr := &frame{row: combined, parent: env.parent}
					for _, c := range j.residual {
						v, err := evalPredicate(st, fr, c)
						if err != nil {
							return nil, err // unreachable: residuals are statically safe
						}
						if !v {
							keep = false
							break
						}
					}
				}
				if keep {
					matched = true
					if err := st.addJoinRows(1); err != nil {
						return nil, err
					}
					joined = append(joined, combined)
				}
			}
		}
		if !matched && j.typ == sqlparse.JoinLeft {
			if err := st.addJoinRows(1); err != nil {
				return nil, err
			}
			joined = append(joined, append(append(sqldata.Row{}, l...), nullRow(j.rwidth)...))
		}
	}
	return joined, nil
}

// hashOf renders the composite key of one side; ok=false means a NULL key
// component (the row cannot match).
func (j *joinNode) hashOf(st *execState, fr *frame, keys []bexpr) (string, bool, error) {
	var sb strings.Builder
	for i, k := range keys {
		v, err := evalExpr(st, fr, k)
		if err != nil {
			return "", false, err // unreachable: keys are statically safe
		}
		if v.Null {
			return "", false, nil
		}
		s, ok := hashKey(v, j.kinds[i])
		if !ok {
			s = v.Key() // defensive: static typing should make this unreachable
		}
		sb.WriteString(s)
		sb.WriteByte(0x1f)
	}
	return sb.String(), true, nil
}

// hashKey canonically encodes one key value under the pair's keyKind so
// that equal-under-Compare values get equal strings. Mixed numeric pairs
// use the canonical Value.Key encoding, which is exact: hashing by
// widened float64 (the previous encoding) collapsed distinct int64s
// beyond 2^53 into one bucket, and since the hash path never re-checks
// equality on bucket hits, that silently joined unequal keys. -0 folds
// into +0 and all NaNs share one slot (Compare treats NaN == NaN).
func hashKey(v sqldata.Value, kind keyKind) (string, bool) {
	switch kind {
	case kInt:
		n, ok := v.IntOK()
		if !ok {
			return "", false
		}
		return strconv.FormatInt(n, 10), true
	case kFloat:
		if _, ok := v.FloatOK(); !ok {
			return "", false
		}
		return v.Key(), true
	case kText:
		s, ok := v.TextOK()
		return s, ok
	case kBool:
		b, ok := v.BoolOK()
		if !ok {
			return "", false
		}
		if b {
			return "1", true
		}
		return "0", true
	case kDate:
		d, ok := v.DateDaysOK()
		if !ok {
			return "", false
		}
		return strconv.FormatInt(d, 10), true
	}
	return "", false
}

// nullRow returns a row of n SQL NULLs (LEFT JOIN padding and empty global
// aggregate groups).
func nullRow(n int) sqldata.Row {
	r := make(sqldata.Row, n)
	for i := range r {
		r[i] = sqldata.NullValue()
	}
	return r
}
