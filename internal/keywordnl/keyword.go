// Package keywordnl implements a SODA/QUICK-style keyword interpreter:
// each query token is looked up in an inverted index over metadata and
// data, matches are aggregated into per-table interpretations, and the
// best-scoring single-table selection query wins. Faithful to the early
// systems the tutorial surveys, it deliberately understands *only*
// selection — no aggregation, grouping, ordering, joins, or nesting —
// which is exactly the class-1 ceiling the taxonomy assigns it.
package keywordnl

import (
	"fmt"
	"sort"
	"strings"

	"nlidb/internal/invindex"
	"nlidb/internal/nlp"
	"nlidb/internal/nlq"
	"nlidb/internal/sqldata"
	"nlidb/internal/sqlparse"
)

// Interpreter is a keyword-lookup NLIDB over one database.
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
func (k *Interpreter) Index() *invindex.Index { return k.ix }

// Name implements nlq.Interpreter.
func (k *Interpreter) Name() string { return "keyword" }

// Interpret maps the question's keywords onto one table and its values.
func (k *Interpreter) Interpret(question string) ([]nlq.Interpretation, error) {
	toks := nlp.Tag(nlp.Tokenize(question))
	spans := nlq.MatchSpans(toks, k.ix, invindex.DefaultOptions())
	if len(spans) == 0 {
		return nil, fmt.Errorf("%w: no keyword matched the data or metadata", nlq.ErrNoInterpretation)
	}

	// Score each candidate anchor table by the evidence pointing at it.
	type evidence struct {
		tableScore  float64
		columns     []invindex.Match
		values      []valueHit
		totalScore  float64
		matchedLen  int
		explanation []string
	}
	byTable := map[string]*evidence{}
	get := func(table string) *evidence {
		lt := strings.ToLower(table)
		if byTable[lt] == nil {
			byTable[lt] = &evidence{}
		}
		return byTable[lt]
	}

	for _, sp := range spans {
		m := sp.Best()
		ev := get(m.Table)
		ev.totalScore += m.Score
		ev.matchedLen += sp.End - sp.Start
		switch m.Kind {
		case invindex.KindTable:
			if m.Score > ev.tableScore {
				ev.tableScore = m.Score
			}
			ev.explanation = append(ev.explanation, fmt.Sprintf("%q → table %s (%.2f)", sp.Text, m.Table, m.Score))
		case invindex.KindColumn:
			ev.columns = append(ev.columns, m)
			ev.explanation = append(ev.explanation, fmt.Sprintf("%q → column %s.%s (%.2f)", sp.Text, m.Table, m.Column, m.Score))
		case invindex.KindValue:
			ev.values = append(ev.values, valueHit{m: m, pos: sp.Start})
			ev.explanation = append(ev.explanation, fmt.Sprintf("%q → value %s.%s=%q (%.2f)", sp.Text, m.Table, m.Column, m.Value, m.Score))
		}
	}

	// Rank anchors: total evidence score, table-name evidence as tiebreak.
	type cand struct {
		table string
		ev    *evidence
	}
	cands := make([]cand, 0, len(byTable))
	for t, ev := range byTable {
		cands = append(cands, cand{t, ev})
	}
	sort.Slice(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if a.ev.totalScore != b.ev.totalScore {
			return a.ev.totalScore > b.ev.totalScore
		}
		if a.ev.tableScore != b.ev.tableScore {
			return a.ev.tableScore > b.ev.tableScore
		}
		return a.table < b.table
	})

	contentWords := 0
	for _, t := range toks {
		if t.Kind == nlp.KindWord && !t.IsStop() {
			contentWords++
		}
	}

	var out []nlq.Interpretation
	for i, c := range cands {
		if i >= 3 { // keep the top readings only
			break
		}
		stmt := k.buildSelect(c.table, c.ev.columns, c.ev.values, toks)
		if stmt == nil {
			continue
		}
		coverage := 1.0
		if contentWords > 0 {
			coverage = float64(c.ev.matchedLen) / float64(contentWords)
			if coverage > 1 {
				coverage = 1
			}
		}
		n := float64(len(c.ev.columns) + len(c.ev.values))
		avg := c.ev.totalScore / (n + boolTo1(c.ev.tableScore > 0))
		out = append(out, nlq.Interpretation{
			SQL:         stmt,
			Score:       0.5*avg + 0.5*coverage,
			Explanation: strings.Join(c.ev.explanation, "; "),
		})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%w: keyword evidence did not form a query", nlq.ErrNoInterpretation)
	}
	return out, nil
}

func boolTo1(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// valueHit is a value match with its token position, so disjunction cues
// between values can be detected.
type valueHit struct {
	m   invindex.Match
	pos int
}

// buildSelect assembles the single-table selection query: matched columns
// become the projection (or the identifying column when none), value
// matches become filters. Values of the same column linked by "or" merge
// into an IN list (Précis-style DNF); distinct columns conjoin. Evidence
// from other tables is discarded — the defining limitation of the keyword
// family.
func (k *Interpreter) buildSelect(table string, cols []invindex.Match, vals []valueHit, toks []nlp.Token) *sqlparse.SelectStmt {
	tbl := k.db.Table(table)
	if tbl == nil {
		return nil
	}
	stmt := sqlparse.NewSelect()
	stmt.From = &sqlparse.FromClause{First: sqlparse.TableRef{Name: strings.ToLower(table)}}

	filterCols := map[string]bool{}
	// Group value filters per column, preserving first-seen order.
	type group struct {
		col    string
		values []string
		pos    []int
	}
	var groups []*group
	byCol := map[string]*group{}
	seenVal := map[string]bool{}
	for _, v := range vals {
		if !strings.EqualFold(v.m.Table, table) {
			continue
		}
		lc := strings.ToLower(v.m.Column)
		key := lc + "=" + v.m.Value
		if seenVal[key] {
			continue
		}
		seenVal[key] = true
		filterCols[lc] = true
		g := byCol[lc]
		if g == nil {
			g = &group{col: lc}
			byCol[lc] = g
			groups = append(groups, g)
		}
		g.values = append(g.values, v.m.Value)
		g.pos = append(g.pos, v.pos)
	}

	var where sqlparse.Expr
	conjoin := func(e sqlparse.Expr) {
		if where == nil {
			where = e
		} else {
			where = &sqlparse.BinaryExpr{Op: "AND", L: where, R: e}
		}
	}
	for _, g := range groups {
		colRef := &sqlparse.ColumnRef{Column: g.col}
		switch {
		case len(g.values) == 1:
			conjoin(&sqlparse.BinaryExpr{Op: "=", L: colRef,
				R: &sqlparse.Literal{Val: sqldata.NewText(g.values[0])}})
		case nlq.OrBetween(toks, g.pos[0], g.pos[len(g.pos)-1]):
			in := &sqlparse.InExpr{X: colRef}
			for _, v := range g.values {
				in.List = append(in.List, &sqlparse.Literal{Val: sqldata.NewText(v)})
			}
			conjoin(in)
		default:
			// Several values of one column without "or" conjoin, which is
			// unsatisfiable but faithful to naive keyword conjunction.
			for _, v := range g.values {
				conjoin(&sqlparse.BinaryExpr{Op: "=", L: colRef,
					R: &sqlparse.Literal{Val: sqldata.NewText(v)}})
			}
		}
	}
	stmt.Where = where

	seenCol := map[string]bool{}
	for _, c := range cols {
		if !strings.EqualFold(c.Table, table) {
			continue
		}
		lc := strings.ToLower(c.Column)
		if filterCols[lc] || seenCol[lc] {
			continue // a column used as a filter is not also projected
		}
		seenCol[lc] = true
		stmt.Items = append(stmt.Items, sqlparse.SelectItem{Expr: &sqlparse.ColumnRef{Column: lc}})
	}
	if len(stmt.Items) == 0 {
		// Default projection: the identifying text column (how NLIDB
		// systems display entities), falling back to *.
		if c := nlq.FirstTextColumn(tbl.Schema); c != "" {
			stmt.Items = []sqlparse.SelectItem{{Expr: &sqlparse.ColumnRef{Column: c}}}
		} else {
			stmt.Items = []sqlparse.SelectItem{{Star: true}}
		}
	}
	return stmt
}
