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
	"nlidb/internal/lexicon"
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
	opts  invindex.LookupOptions
}

// New builds the interpreter.
func New(db *sqldata.Database, lex *lexicon.Lexicon) *Interpreter {
	return NewWithIndex(db, invindex.Build(db, lex))
}

// NewWithIndex is New over an index already built for db, so the engines
// of one fallback chain can share it.
func NewWithIndex(db *sqldata.Database, ix *invindex.Index) *Interpreter {
	return &Interpreter{
		db:    db,
		ix:    ix,
		graph: schemagraph.Build(db),
		opts:  invindex.DefaultOptions(),
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
	a := nlq.Analyze(question, p.ix, p.opts)
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
		t, c := p.resolveColumnAnyTable(cmp.ColumnHint, anchor, required)
		if c == "" {
			t, c = anchor, firstNumericColumn(p.db.Table(anchor).Schema)
		}
		if c == "" {
			continue
		}
		required[t] = true
		filterCols[t+"."+c] = true
		where = append(where, &sqlparse.BinaryExpr{
			Op: cmp.Op,
			L:  &sqlparse.ColumnRef{Table: t, Column: c},
			R:  &sqlparse.Literal{Val: numLiteral(cmp.Value)},
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
			topk.K = leadingK(a, topk.TokenPos)
		}
	}

	// Grouping (may group by a column on a joined table).
	var groupCols []colRef
	for _, g := range a.GroupCues {
		if topk != nil && g.TokenPos > topk.TokenPos {
			continue
		}
		if t, c := p.columnAtTokenAnyTable(a, g.TokenPos, anchor, required); c != "" {
			groupCols = append(groupCols, colRef{t, c})
			required[t] = true
		}
	}

	// Ordering column.
	var orderRef *colRef
	if topk != nil {
		if t, c := p.columnAtTokenAnyTable(a, topk.TokenPos+1, anchor, required); c != "" {
			orderRef = &colRef{t, c}
		} else {
			for _, g := range a.GroupCues {
				if g.TokenPos > topk.TokenPos {
					if t, c := p.columnAtTokenAnyTable(a, g.TokenPos, anchor, required); c != "" {
						orderRef = &colRef{t, c}
						break
					}
				}
			}
		}
		if orderRef == nil {
			if t, c := p.resolveColumnAnyTable(a.Tokens[topk.TokenPos].Lower, anchor, required); c != "" {
				orderRef = &colRef{t, c}
			}
		}
		if orderRef == nil {
			if c := firstNumericColumn(p.db.Table(anchor).Schema); c != "" {
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
	stmt.Where = conjoin(where)

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
					if c := firstNumericColumn(p.db.Table(anchor).Schema); c != "" {
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
			if c := firstTextColumn(p.db.Table(anchor).Schema); c != "" {
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

// resolveColumnAnyTable resolves a word to a column, preferring the anchor
// table, then already-required tables, then any table.
func (p *Interpreter) resolveColumnAnyTable(word, anchor string, required map[string]bool) (string, string) {
	if word == "" {
		return "", ""
	}
	opts := p.opts
	opts.KindFilter = []invindex.Kind{invindex.KindColumn}
	ms := p.ix.Lookup(word, opts)
	if len(ms) == 0 {
		return "", ""
	}
	for _, m := range ms {
		if strings.EqualFold(m.Table, anchor) {
			return strings.ToLower(m.Table), strings.ToLower(m.Column)
		}
	}
	for _, m := range ms {
		if required[strings.ToLower(m.Table)] {
			return strings.ToLower(m.Table), strings.ToLower(m.Column)
		}
	}
	m := ms[0]
	return strings.ToLower(m.Table), strings.ToLower(m.Column)
}

// columnAtTokenAnyTable resolves the token at pos to a column.
func (p *Interpreter) columnAtTokenAnyTable(a *nlq.Analysis, pos int, anchor string, required map[string]bool) (string, string) {
	if pos < 0 || pos >= len(a.Tokens) {
		return "", ""
	}
	if sp := a.SpanAt(pos); sp != nil {
		for _, m := range sp.Matches {
			if m.Kind == invindex.KindColumn {
				return strings.ToLower(m.Table), strings.ToLower(m.Column)
			}
		}
		// A table mention in a group phrase ("per department") groups by
		// that table's identifying text column.
		for _, m := range sp.Matches {
			if m.Kind == invindex.KindTable {
				if c := firstTextColumn(p.db.Table(m.Table).Schema); c != "" {
					return strings.ToLower(m.Table), c
				}
			}
		}
	}
	return p.resolveColumnAnyTable(a.Tokens[pos].Lower, anchor, required)
}

// colRef is a fully qualified column reference.
type colRef struct{ table, column string }

// aggTargetAnyTable finds the aggregate's target column near the cue.
func (p *Interpreter) aggTargetAnyTable(a *nlq.Analysis, cue nlq.AggCue, anchor string, required map[string]bool, filters map[string]bool) *colRef {
	try := func(pos int) *colRef {
		t, c := p.columnAtTokenAnyTable(a, pos, anchor, required)
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

func leadingK(a *nlq.Analysis, supPos int) int {
	used := map[int]bool{}
	for _, c := range a.Comparisons {
		used[c.TokenPos] = true
	}
	for i := supPos - 1; i >= 0; i-- {
		t := a.Tokens[i]
		if t.Kind == nlp.KindNumber && !used[i] {
			return int(t.Num)
		}
	}
	return 1
}

func firstNumericColumn(s *sqldata.Schema) string {
	for _, c := range s.Columns {
		if c.Type.Numeric() && !c.PrimaryKey {
			return strings.ToLower(c.Name)
		}
	}
	return ""
}

func firstTextColumn(s *sqldata.Schema) string {
	for _, c := range s.Columns {
		if c.Type == sqldata.TypeText {
			return strings.ToLower(c.Name)
		}
	}
	return ""
}

func numLiteral(v float64) sqldata.Value {
	if v == float64(int64(v)) {
		return sqldata.NewInt(int64(v))
	}
	return sqldata.NewFloat(v)
}

func conjoin(exprs []sqlparse.Expr) sqlparse.Expr {
	var out sqlparse.Expr
	for _, e := range exprs {
		if out == nil {
			out = e
		} else {
			out = &sqlparse.BinaryExpr{Op: "AND", L: out, R: e}
		}
	}
	return out
}
