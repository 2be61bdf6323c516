// Package patternnl implements a SQAK-style pattern-based interpreter:
// keyword lookup plus fixed natural-language patterns for aggregation
// ("total", "average", "how many"), grouping ("by X", "per X"), ordering
// ("top N", superlatives), and numeric comparisons ("over 50"). It stays
// on a single table — the class-2 ceiling the tutorial assigns to
// pattern-based systems: aggregation queries, but no joins or nesting.
package patternnl

import (
	"fmt"
	"sort"
	"strings"

	"nlidb/internal/invindex"
	"nlidb/internal/nlq"
	"nlidb/internal/sqldata"
	"nlidb/internal/sqlparse"
)

// Interpreter is a pattern-based NLIDB over one database.
type Interpreter struct {
	db *sqldata.Database
	ix *invindex.Index
}

// New builds the interpreter over ix, the index the caller built for db,
// so every interpreter over one database shares it.
func New(db *sqldata.Database, ix *invindex.Index) *Interpreter {
	return &Interpreter{db: db, ix: ix}
}

// Index exposes the inverted index the interpreter resolves words through.
func (p *Interpreter) Index() *invindex.Index { return p.ix }

// Name implements nlq.Interpreter.
func (p *Interpreter) Name() string { return "pattern" }

// Interpret builds a single-table query with aggregation patterns.
func (p *Interpreter) Interpret(question string) ([]nlq.Interpretation, error) {
	a := nlq.Analyze(question, p.ix, invindex.DefaultOptions())
	if len(a.Spans) == 0 && len(a.Comparisons) == 0 {
		return nil, fmt.Errorf("%w: no pattern or keyword evidence", nlq.ErrNoInterpretation)
	}

	anchor, anchorPos, score := p.pickAnchor(a)
	if anchor == "" {
		return nil, fmt.Errorf("%w: could not determine the target table", nlq.ErrNoInterpretation)
	}
	tbl := p.db.Table(anchor)
	schema := tbl.Schema

	stmt := sqlparse.NewSelect()
	stmt.From = &sqlparse.FromClause{First: sqlparse.TableRef{Name: strings.ToLower(anchor)}}

	var expl []string
	expl = append(expl, fmt.Sprintf("anchor table %s", anchor))

	// WHERE: value equality filters on the anchor + numeric comparisons.
	var where []sqlparse.Expr
	filterCols := map[string]bool{}
	for _, sp := range a.Spans {
		m := sp.Best()
		if m.Kind == invindex.KindValue && strings.EqualFold(m.Table, anchor) {
			filterCols[strings.ToLower(m.Column)] = true
			where = append(where, &sqlparse.BinaryExpr{
				Op: "=",
				L:  &sqlparse.ColumnRef{Column: strings.ToLower(m.Column)},
				R:  &sqlparse.Literal{Val: sqldata.NewText(m.Value)},
			})
			expl = append(expl, fmt.Sprintf("filter %s = %q", m.Column, m.Value))
		}
	}
	for _, cmp := range a.Comparisons {
		col := resolveColumn(schema, cmp.ColumnHint, p.ix, anchor)
		if col == "" {
			col = nlq.FirstNumericColumn(schema)
		}
		if col == "" {
			continue
		}
		filterCols[col] = true
		where = append(where, &sqlparse.BinaryExpr{
			Op: cmp.Op,
			L:  &sqlparse.ColumnRef{Column: col},
			R:  &sqlparse.Literal{Val: nlq.NumLiteral(cmp.Value)},
		})
		expl = append(expl, fmt.Sprintf("comparison %s %s %v", col, cmp.Op, cmp.Value))
	}
	stmt.Where = sqlparse.Conjoin(where)

	// Superlative disambiguation: a superlative *after* the anchor mention
	// reads as top-k ordering; before it (or with no anchor mention), as a
	// MAX/MIN aggregate. "top N" is always ordering.
	topk := a.TopK
	aggCues := a.AggCues
	if topk != nil {
		word := a.Tokens[topk.TokenPos].Lower
		isExplicitTop := word == "top" || word == "bottom" || word == "first" || word == "last"
		if !isExplicitTop && (anchorPos < 0 || anchorPos > topk.TokenPos) {
			f := "MAX"
			if !topk.Desc {
				f = "MIN"
			}
			aggCues = append(aggCues, nlq.AggCue{Func: f, TokenPos: topk.TokenPos})
			topk = nil
		} else if !isExplicitTop {
			// K may be a leading count: "5 employees with the highest pay".
			topk.K = nlq.LeadingK(a, topk.TokenPos)
		}
	}

	// GROUP BY targets.
	var groupCols []string
	for _, g := range a.GroupCues {
		if topk != nil && g.TokenPos > topk.TokenPos {
			continue // "top 5 products by price": by-phrase orders, not groups
		}
		if col := p.columnAtToken(a, g.TokenPos, anchor); col != "" {
			groupCols = append(groupCols, col)
			expl = append(expl, fmt.Sprintf("group by %s", col))
		}
	}
	groupCols = dedupe(groupCols)

	// Resolve the top-k ordering column first so the plain projection can
	// exclude it ("employee with the lowest salary" should project the
	// employee row, not the salary alone).
	orderCol := ""
	if topk != nil {
		orderCol = p.columnAtToken(a, topk.TokenPos+1, anchor)
		if orderCol == "" {
			for _, g := range a.GroupCues {
				if g.TokenPos > topk.TokenPos {
					if c := p.columnAtToken(a, g.TokenPos, anchor); c != "" {
						orderCol = c
						break
					}
				}
			}
		}
		if orderCol == "" {
			orderCol = resolveColumn(schema, a.Tokens[topk.TokenPos].Lower, p.ix, anchor)
		}
		if orderCol == "" {
			orderCol = nlq.FirstNumericColumn(schema)
		}
	}

	// Projections.
	switch {
	case len(aggCues) > 0:
		for _, gc := range groupCols {
			stmt.Items = append(stmt.Items, sqlparse.SelectItem{Expr: &sqlparse.ColumnRef{Column: gc}})
			stmt.GroupBy = append(stmt.GroupBy, &sqlparse.ColumnRef{Column: gc})
		}
		for _, cue := range aggCues {
			target := p.aggTarget(a, cue, anchor, filterCols)
			var e sqlparse.Expr
			if cue.Func == "COUNT" && target == "" {
				e = &sqlparse.FuncCall{Name: "COUNT", Star: true}
			} else {
				if target == "" {
					target = nlq.FirstNumericColumn(schema)
				}
				if target == "" {
					continue
				}
				e = &sqlparse.FuncCall{Name: cue.Func, Args: []sqlparse.Expr{&sqlparse.ColumnRef{Column: target}}}
			}
			stmt.Items = append(stmt.Items, sqlparse.SelectItem{Expr: e})
			expl = append(expl, fmt.Sprintf("aggregate %s(%s)", cue.Func, target))
		}
	default:
		// Plain selection: project matched non-filter columns (excluding
		// the top-k ordering column), else *.
		cols := p.projectionColumns(a, anchor, filterCols)
		for _, c := range cols {
			if c == orderCol {
				continue
			}
			stmt.Items = append(stmt.Items, sqlparse.SelectItem{Expr: &sqlparse.ColumnRef{Column: c}})
		}
		if len(stmt.Items) == 0 {
			if c := nlq.FirstTextColumn(schema); c != "" {
				stmt.Items = []sqlparse.SelectItem{{Expr: &sqlparse.ColumnRef{Column: c}}}
			} else {
				stmt.Items = []sqlparse.SelectItem{{Star: true}}
			}
		}
	}

	// ORDER BY / LIMIT from top-k.
	if topk != nil && orderCol != "" {
		stmt.OrderBy = append(stmt.OrderBy, sqlparse.OrderItem{Expr: &sqlparse.ColumnRef{Column: orderCol}, Desc: topk.Desc})
		stmt.Limit = topk.K
		expl = append(expl, fmt.Sprintf("order by %s desc=%v limit %d", orderCol, topk.Desc, topk.K))
	}

	if len(stmt.Items) == 0 {
		return nil, fmt.Errorf("%w: patterns produced no projection", nlq.ErrNoInterpretation)
	}
	return []nlq.Interpretation{{SQL: stmt, Score: score, Explanation: strings.Join(expl, "; ")}}, nil
}

// pickAnchor selects the single table the query is about and the token
// position of its mention (-1 if the table is implied by columns/values).
func (p *Interpreter) pickAnchor(a *nlq.Analysis) (string, int, float64) {
	scores := map[string]float64{}
	mention := map[string]int{}
	for _, sp := range a.Spans {
		m := sp.Best()
		scores[strings.ToLower(m.Table)] += m.Score
		if m.Kind == invindex.KindTable {
			scores[strings.ToLower(m.Table)] += 0.5
			if _, ok := mention[strings.ToLower(m.Table)]; !ok {
				mention[strings.ToLower(m.Table)] = sp.Start
			}
		}
	}
	best, bestScore := "", 0.0
	keys := make([]string, 0, len(scores))
	for t := range scores {
		keys = append(keys, t)
	}
	sort.Strings(keys)
	for _, t := range keys {
		if scores[t] > bestScore {
			best, bestScore = t, scores[t]
		}
	}
	pos := -1
	if mp, ok := mention[best]; ok {
		pos = mp
	}
	norm := bestScore
	if norm > 1 {
		norm = 1
	}
	return best, pos, norm
}

// columnAtToken resolves the token at position pos (and pos+1 for
// two-word columns) to a column of the anchor table.
func (p *Interpreter) columnAtToken(a *nlq.Analysis, pos int, anchor string) string {
	if pos < 0 || pos >= len(a.Tokens) {
		return ""
	}
	if sp := a.SpanAt(pos); sp != nil {
		for _, m := range sp.Matches {
			if m.Kind == invindex.KindColumn && strings.EqualFold(m.Table, anchor) {
				return strings.ToLower(m.Column)
			}
		}
	}
	tbl := p.db.Table(anchor)
	if tbl == nil {
		return ""
	}
	return resolveColumn(tbl.Schema, a.Tokens[pos].Lower, p.ix, anchor)
}

// aggTarget finds the column an aggregate applies to: the nearest column
// match after the cue, else before it.
func (p *Interpreter) aggTarget(a *nlq.Analysis, cue nlq.AggCue, anchor string, filters map[string]bool) string {
	pick := func(from, to int) string {
		for i := from; i >= 0 && i < len(a.Tokens) && i != to; i += sign(to - from) {
			if c := p.columnAtToken(a, i, anchor); c != "" && !filters[c] {
				return c
			}
		}
		return ""
	}
	if c := pick(cue.TokenPos+1, cue.TokenPos+5); c != "" {
		return c
	}
	return pick(cue.TokenPos-1, cue.TokenPos-4)
}

func sign(x int) int {
	if x < 0 {
		return -1
	}
	return 1
}

// projectionColumns picks matched anchor columns not used as filters.
func (p *Interpreter) projectionColumns(a *nlq.Analysis, anchor string, filters map[string]bool) []string {
	var out []string
	seen := map[string]bool{}
	for _, sp := range a.Spans {
		m := sp.Best()
		if m.Kind == invindex.KindColumn && strings.EqualFold(m.Table, anchor) {
			lc := strings.ToLower(m.Column)
			if !filters[lc] && !seen[lc] {
				seen[lc] = true
				out = append(out, lc)
			}
		}
	}
	return out
}

// resolveColumn fuzzy-matches a word to a column of the schema, using
// name, synonyms, and stems.
func resolveColumn(s *sqldata.Schema, word string, ix *invindex.Index, table string) string {
	if word == "" {
		return ""
	}
	opts := invindex.DefaultOptions()
	opts.KindFilter = []invindex.Kind{invindex.KindColumn}
	for _, m := range ix.Lookup(word, opts) {
		if strings.EqualFold(m.Table, table) {
			return strings.ToLower(m.Column)
		}
	}
	return ""
}

func dedupe(s []string) []string {
	seen := map[string]bool{}
	out := s[:0]
	for _, x := range s {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}
