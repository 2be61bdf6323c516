// Package parsenl implements a NaLIR-style interpreter: a linguistic
// analysis of the question (token types, cue phrases, entity spans) is
// mapped onto the schema, join paths between the mapped tables are
// inferred through the schema graph, and ambiguous mappings surface as
// user clarifications. Its ceiling is the tutorial's class 3: joins and
// aggregation, but no nested sub-queries.
package parsenl

import (
	"fmt"
	"sort"
	"strings"

	"nlidb/internal/invindex"
	"nlidb/internal/nlp"
	"nlidb/internal/nlq"
	"nlidb/internal/schemagraph"
	"nlidb/internal/sqldata"
	"nlidb/internal/sqlparse"
)

// Interpreter is a parse-tree-plus-schema-graph NLIDB over one database.
type Interpreter struct {
	db    *sqldata.Database
	ix    *invindex.Index
	graph *schemagraph.Graph
}

// New builds the interpreter over ix, the index the caller built for db,
// so every interpreter over one database shares it.
func New(db *sqldata.Database, ix *invindex.Index) *Interpreter {
	return &Interpreter{
		db:    db,
		ix:    ix,
		graph: schemagraph.Build(db),
	}
}

// Index exposes the inverted index the interpreter resolves words through.
func (p *Interpreter) Index() *invindex.Index { return p.ix }

// Graph exposes the schema graph so callers can install query-log priors
// (TEMPLAR-style) before interpreting.
func (p *Interpreter) Graph() *schemagraph.Graph { return p.graph }

// Name implements nlq.Interpreter.
func (p *Interpreter) Name() string { return "parse" }

// binding is one resolved reading of the question's mappings.
type binding struct {
	values  []invindex.Match // value filters
	expl    []string
	penalty float64
}

// Interpret maps the question onto tables, infers joins, and emits ranked
// candidates; ambiguous value mappings yield alternative readings with a
// clarification question.
func (p *Interpreter) Interpret(question string) ([]nlq.Interpretation, error) {
	a := nlq.Analyze(question, p.ix, invindex.DefaultOptions())
	if len(a.Spans) == 0 && len(a.Comparisons) == 0 {
		return nil, fmt.Errorf("%w: nothing in the question maps to the schema", nlq.ErrNoInterpretation)
	}

	anchor, anchorPos := p.pickAnchor(a)
	if anchor == "" {
		return nil, fmt.Errorf("%w: no focus table", nlq.ErrNoInterpretation)
	}

	bindings := p.enumerateBindings(a)
	var out []nlq.Interpretation
	for bi, b := range bindings {
		if bi >= 3 {
			break
		}
		in, err := p.build(a, anchor, anchorPos, b)
		if err != nil {
			continue
		}
		in.Score -= b.penalty
		if in.Score < 0.05 {
			in.Score = 0.05
		}
		if len(bindings) > 1 {
			in.Clarification = clarify(bindings)
		}
		// Structurally ambiguous joins (parallel foreign keys) expand into
		// alternative readings with a clarification of their own.
		out = append(out, p.expandJoinAlternatives(*in)...)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%w: no mapping produced an executable query", nlq.ErrNoInterpretation)
	}
	return out, nil
}

// expandJoinAlternatives duplicates an interpretation once per alternative
// parallel foreign-key edge of its first ambiguous join (e.g. a fact table
// referencing the same dimension through origin and destination columns).
func (p *Interpreter) expandJoinAlternatives(in nlq.Interpretation) []nlq.Interpretation {
	out := []nlq.Interpretation{in}
	if in.SQL == nil || in.SQL.From == nil {
		return out
	}
	for ji, j := range in.SQL.From.Joins {
		be, ok := j.On.(*sqlparse.BinaryExpr)
		if !ok || be.Op != "=" {
			continue
		}
		l, lok := be.L.(*sqlparse.ColumnRef)
		r, rok := be.R.(*sqlparse.ColumnRef)
		if !lok || !rok {
			continue
		}
		alts := p.graph.ParallelEdges(l.Table, r.Table)
		if len(alts) <= 1 {
			continue
		}
		var options []string
		options = append(options, be.String())
		for _, e := range alts {
			if strings.EqualFold(e.FromCol, l.Column) && strings.EqualFold(e.ToCol, r.Column) {
				continue
			}
			clone := sqlparse.MustParse(in.SQL.String())
			clone.From.Joins[ji].On = &sqlparse.BinaryExpr{
				Op: "=",
				L:  &sqlparse.ColumnRef{Table: e.From, Column: e.FromCol},
				R:  &sqlparse.ColumnRef{Table: e.To, Column: e.ToCol},
			}
			options = append(options, clone.From.Joins[ji].On.String())
			out = append(out, nlq.Interpretation{
				SQL:         clone,
				Score:       in.Score * 0.95,
				Explanation: in.Explanation + "; alternative join " + e.String(),
			})
			if len(out) >= 3 {
				break
			}
		}
		if len(out) > 1 {
			c := &nlq.Clarification{Question: "Which relationship did you mean?", Options: options}
			for i := range out {
				out[i].Clarification = c
			}
		}
		break
	}
	return out
}

// clarify renders the NaLIR-style multiple-choice question over the
// candidate value bindings.
func clarify(bindings []binding) *nlq.Clarification {
	c := &nlq.Clarification{Question: "Which reading did you mean?"}
	for i, b := range bindings {
		if i >= 3 {
			break
		}
		var parts []string
		for _, v := range b.values {
			parts = append(parts, fmt.Sprintf("%q as %s.%s", v.Value, v.Table, v.Column))
		}
		c.Options = append(c.Options, strings.Join(parts, ", "))
	}
	return c
}

// enumerateBindings expands ambiguous value matches into alternative
// bindings, best combination first.
func (p *Interpreter) enumerateBindings(a *nlq.Analysis) []binding {
	base := binding{}
	alts := []binding{base}
	for _, sp := range a.Spans {
		if sp.Best().Kind != invindex.KindValue {
			continue
		}
		// Candidate value readings of this span, close in score.
		var cands []invindex.Match
		for _, m := range sp.Matches {
			if m.Kind == invindex.KindValue && m.Score >= sp.Best().Score*0.92 {
				cands = append(cands, m)
			}
			if len(cands) == 3 {
				break
			}
		}
		var next []binding
		for _, b := range alts {
			for ci, c := range cands {
				nb := binding{
					values:  append(append([]invindex.Match(nil), b.values...), c),
					penalty: b.penalty + float64(ci)*0.1,
				}
				nb.expl = append(append([]string(nil), b.expl...),
					fmt.Sprintf("%q → %s.%s (%.2f)", sp.Text, c.Table, c.Column, c.Score))
				next = append(next, nb)
				if len(next) >= 6 {
					break
				}
			}
			if len(next) >= 6 {
				break
			}
		}
		if len(next) > 0 {
			alts = next
		}
	}
	sort.SliceStable(alts, func(i, j int) bool { return alts[i].penalty < alts[j].penalty })
	return alts
}

// pickAnchor chooses the focus table: the first table-kind span, else the
// table of the first column match, else of the first value match.
func (p *Interpreter) pickAnchor(a *nlq.Analysis) (string, int) {
	for _, sp := range a.Spans {
		if sp.Best().Kind == invindex.KindTable {
			return strings.ToLower(sp.Best().Table), sp.Start
		}
	}
	for _, sp := range a.Spans {
		if sp.Best().Kind == invindex.KindColumn {
			return strings.ToLower(sp.Best().Table), -1
		}
	}
	for _, sp := range a.Spans {
		return strings.ToLower(sp.Best().Table), -1
	}
	return "", -1
}

// build assembles one interpretation from a binding.
func (p *Interpreter) build(a *nlq.Analysis, anchor string, anchorPos int, b binding) (*nlq.Interpretation, error) {
	required := map[string]bool{anchor: true}
	expl := append([]string{fmt.Sprintf("focus %s", anchor)}, b.expl...)

	// Column matches anywhere in the schema.
	var projCols []colRef
	filterCols := map[string]bool{}

	var where []sqlparse.Expr
	for _, v := range b.values {
		required[strings.ToLower(v.Table)] = true
		filterCols[strings.ToLower(v.Table)+"."+strings.ToLower(v.Column)] = true
		where = append(where, &sqlparse.BinaryExpr{
			Op: "=",
			L:  &sqlparse.ColumnRef{Table: strings.ToLower(v.Table), Column: strings.ToLower(v.Column)},
			R:  &sqlparse.Literal{Val: sqldata.NewText(v.Value)},
		})
	}

	for _, cmp := range a.Comparisons {
		t, c := nlq.ResolveColumn(p.ix, cmp.ColumnHint, anchor, required)
		if c == "" {
			t, c = anchor, nlq.FirstNumericColumn(p.db.Table(anchor).Schema)
		}
		if c == "" {
			continue
		}
		required[t] = true
		filterCols[t+"."+c] = true
		where = append(where, &sqlparse.BinaryExpr{
			Op: cmp.Op,
			L:  &sqlparse.ColumnRef{Table: t, Column: c},
			R:  &sqlparse.Literal{Val: nlq.NumLiteral(cmp.Value)},
		})
		expl = append(expl, fmt.Sprintf("comparison %s.%s %s %v", t, c, cmp.Op, cmp.Value))
	}

	for _, sp := range a.Spans {
		m := sp.Best()
		if m.Kind == invindex.KindColumn {
			lt, lc := strings.ToLower(m.Table), strings.ToLower(m.Column)
			if !filterCols[lt+"."+lc] {
				projCols = append(projCols, colRef{lt, lc})
				required[lt] = true
			}
		}
	}

	// Superlative disambiguation, as in the pattern family.
	topk := a.TopK
	aggCues := a.AggCues
	if topk != nil {
		word := a.Tokens[topk.TokenPos].Lower
		explicitTop := word == "top" || word == "bottom" || word == "first" || word == "last"
		if !explicitTop && (anchorPos < 0 || anchorPos > topk.TokenPos) {
			f := "MAX"
			if !topk.Desc {
				f = "MIN"
			}
			aggCues = append(aggCues, nlq.AggCue{Func: f, TokenPos: topk.TokenPos})
			topk = nil
		} else if !explicitTop {
			topk.K = nlq.LeadingK(a, topk.TokenPos)
		}
	}

	// Grouping (may group by a column on a joined table).
	var groupCols []colRef
	for _, g := range a.GroupCues {
		if topk != nil && g.TokenPos > topk.TokenPos {
			continue
		}
		if t, c := a.ColumnAt(p.db, p.ix, g.TokenPos, anchor, required); c != "" {
			groupCols = append(groupCols, colRef{t, c})
			required[t] = true
		}
	}

	// Ordering column.
	var orderRef *colRef
	if topk != nil {
		if t, c := a.ColumnAt(p.db, p.ix, topk.TokenPos+1, anchor, required); c != "" {
			orderRef = &colRef{t, c}
		} else {
			for _, g := range a.GroupCues {
				if g.TokenPos > topk.TokenPos {
					if t, c := a.ColumnAt(p.db, p.ix, g.TokenPos, anchor, required); c != "" {
						orderRef = &colRef{t, c}
						break
					}
				}
			}
		}
		if orderRef == nil {
			if t, c := nlq.ResolveColumn(p.ix, a.Tokens[topk.TokenPos].Lower, anchor, required); c != "" {
				orderRef = &colRef{t, c}
			}
		}
		if orderRef == nil {
			if c := nlq.FirstNumericColumn(p.db.Table(anchor).Schema); c != "" {
				orderRef = &colRef{anchor, c}
			}
		}
		if orderRef != nil {
			required[orderRef.table] = true
		}
	}

	// FROM with inferred joins.
	tables := make([]string, 0, len(required))
	for t := range required {
		tables = append(tables, t)
	}
	sort.Strings(tables)
	from, err := p.graph.BuildFrom(tables)
	if err != nil {
		return nil, err
	}

	stmt := sqlparse.NewSelect()
	stmt.From = from
	stmt.Where = sqlparse.Conjoin(where)

	qualify := len(from.Tables()) > 1

	mkCol := func(r colRef) *sqlparse.ColumnRef {
		if qualify {
			return &sqlparse.ColumnRef{Table: r.table, Column: r.column}
		}
		return &sqlparse.ColumnRef{Column: r.column}
	}

	switch {
	case len(aggCues) > 0:
		for _, gc := range groupCols {
			stmt.Items = append(stmt.Items, sqlparse.SelectItem{Expr: mkCol(gc)})
			stmt.GroupBy = append(stmt.GroupBy, mkCol(gc))
		}
		for _, cue := range aggCues {
			target := p.aggTargetAnyTable(a, cue, anchor, required, filterCols)
			var e sqlparse.Expr
			if cue.Func == "COUNT" && target == nil {
				e = &sqlparse.FuncCall{Name: "COUNT", Star: true}
			} else {
				if target == nil {
					if c := nlq.FirstNumericColumn(p.db.Table(anchor).Schema); c != "" {
						target = &colRef{anchor, c}
					}
				}
				if target == nil {
					continue
				}
				e = &sqlparse.FuncCall{Name: cue.Func, Args: []sqlparse.Expr{mkCol(*target)}}
			}
			stmt.Items = append(stmt.Items, sqlparse.SelectItem{Expr: e})
			expl = append(expl, fmt.Sprintf("aggregate %s", cue.Func))
		}
	default:
		seen := map[string]bool{}
		for _, c := range projCols {
			if orderRef != nil && c == *orderRef {
				continue
			}
			k := c.table + "." + c.column
			if seen[k] {
				continue
			}
			seen[k] = true
			stmt.Items = append(stmt.Items, sqlparse.SelectItem{Expr: mkCol(c)})
		}
		if len(stmt.Items) == 0 {
			if c := nlq.FirstTextColumn(p.db.Table(anchor).Schema); c != "" {
				stmt.Items = []sqlparse.SelectItem{{Expr: mkCol(colRef{anchor, c})}}
			} else if qualify {
				stmt.Items = []sqlparse.SelectItem{{Star: true, StarTable: anchor}}
			} else {
				stmt.Items = []sqlparse.SelectItem{{Star: true}}
			}
		}
	}

	if topk != nil && orderRef != nil {
		stmt.OrderBy = append(stmt.OrderBy, sqlparse.OrderItem{Expr: mkCol(*orderRef), Desc: topk.Desc})
		stmt.Limit = topk.K
	}

	if len(stmt.Items) == 0 {
		return nil, fmt.Errorf("no projection")
	}

	// Score: coverage of content words by used evidence.
	content, covered := 0, 0
	for _, t := range a.Tokens {
		if t.Kind == nlp.KindWord && !t.IsStop() {
			content++
		}
	}
	for _, sp := range a.Spans {
		covered += sp.End - sp.Start
	}
	score := 0.6
	if content > 0 {
		c := float64(covered) / float64(content)
		if c > 1 {
			c = 1
		}
		score = 0.4 + 0.6*c
	}
	return &nlq.Interpretation{SQL: stmt, Score: score, Explanation: strings.Join(expl, "; ")}, nil
}

// colRef is a fully qualified column reference.
type colRef struct{ table, column string }

// aggTargetAnyTable finds the aggregate's target column near the cue.
func (p *Interpreter) aggTargetAnyTable(a *nlq.Analysis, cue nlq.AggCue, anchor string, required map[string]bool, filters map[string]bool) *colRef {
	try := func(pos int) *colRef {
		t, c := a.ColumnAt(p.db, p.ix, pos, anchor, required)
		if c != "" && !filters[t+"."+c] {
			return &colRef{t, c}
		}
		return nil
	}
	for i := cue.TokenPos + 1; i < len(a.Tokens) && i <= cue.TokenPos+4; i++ {
		if sp := a.SpanAt(i); sp != nil && sp.Best().Kind == invindex.KindTable {
			continue // "number of employees": the table is COUNT(*), not a column
		}
		if r := try(i); r != nil {
			return r
		}
	}
	for i := cue.TokenPos - 1; i >= 0 && i >= cue.TokenPos-3; i-- {
		if r := try(i); r != nil {
			return r
		}
	}
	return nil
}
