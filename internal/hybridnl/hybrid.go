// Package hybridnl implements the tutorial's hybrid family, which
// combines entity-based and learning-based understanding in a multi-step
// strategy. Two hybrids are provided:
//
//   - Quest: a QUEST-style interpreter — an HMM, trained on previous
//     (validated) searches, tags query tokens with entity roles; heuristic
//     rules then validate relationships against the schema graph and
//     assemble SQL. Classes 1–3.
//   - Ensemble: a filtering hybrid — a high-precision entity-based
//     primary answers when confident, otherwise a learning-based fallback
//     takes over, trading precision for recall exactly as Section 6 of
//     the tutorial frames the open problem.
package hybridnl

import (
	"fmt"
	"sort"
	"strings"

	"nlidb/internal/dataset"
	"nlidb/internal/hmm"
	"nlidb/internal/invindex"
	"nlidb/internal/nlp"
	"nlidb/internal/nlq"
	"nlidb/internal/schemagraph"
	"nlidb/internal/sqldata"
	"nlidb/internal/sqlparse"
)

// Token roles (HMM states).
const (
	roleO = iota
	roleTable
	roleColumn
	roleValue
	roleNum
	numRoles
)

// Observation signatures.
const (
	obsStop = iota
	obsNumber
	obsTableOnly
	obsColumnOnly
	obsValueOnly
	obsTableColumn
	obsColumnValue
	obsTableValue
	obsAll
	obsUnknownWord
	obsComparative
	obsPrep
	numObs
)

// Quest is the HMM+rules hybrid interpreter.
type Quest struct {
	db    *sqldata.Database
	ix    *invindex.Index
	graph *schemagraph.Graph
	model *hmm.Model
}

// NewQuest trains the role HMM on a corpus of previous searches (pairs
// whose gold SQL supplies the token labels) and returns the interpreter
// over ix, the index the caller built for db.
func NewQuest(db *sqldata.Database, ix *invindex.Index, history []dataset.Pair) (*Quest, error) {
	q := &Quest{
		db:    db,
		ix:    ix,
		graph: schemagraph.Build(db),
	}
	var obs, states [][]int
	for _, p := range history {
		o, s := q.labelPair(p)
		if len(o) > 0 {
			obs = append(obs, o)
			states = append(states, s)
		}
	}
	if len(obs) == 0 {
		return nil, fmt.Errorf("hybridnl: no usable training history")
	}
	m, err := hmm.Train(numRoles, numObs, obs, states)
	if err != nil {
		return nil, err
	}
	q.model = m
	return q, nil
}

// signature maps a token to its observation id via index lookups.
func (q *Quest) signature(t nlp.Token) int {
	switch {
	case t.Kind == nlp.KindNumber:
		return obsNumber
	case t.IsStop():
		return obsStop
	case t.POS == nlp.POSComparative || t.POS == nlp.POSSuperlative:
		return obsComparative
	case t.POS == nlp.POSPrep:
		return obsPrep
	}
	var hasT, hasC, hasV bool
	for _, m := range q.ix.Lookup(t.Lower, invindex.DefaultOptions()) {
		switch m.Kind {
		case invindex.KindTable:
			hasT = true
		case invindex.KindColumn:
			hasC = true
		case invindex.KindValue:
			hasV = true
		}
	}
	switch {
	case hasT && hasC && hasV:
		return obsAll
	case hasT && hasC:
		return obsTableColumn
	case hasC && hasV:
		return obsColumnValue
	case hasT && hasV:
		return obsTableValue
	case hasT:
		return obsTableOnly
	case hasC:
		return obsColumnOnly
	case hasV:
		return obsValueOnly
	default:
		return obsUnknownWord
	}
}

// labelPair aligns a question with its gold SQL to produce a supervised
// role sequence (the QUEST "validated previous search").
func (q *Quest) labelPair(p dataset.Pair) (obs, states []int) {
	if p.SQL == nil || p.SQL.From == nil {
		return nil, nil
	}
	tables := map[string]bool{}
	for _, tr := range p.SQL.From.Tables() {
		tables[nlp.Stem(strings.ToLower(tr.Name))] = true
	}
	columns := map[string]bool{}
	values := map[string]bool{}
	p.SQL.WalkExprs(func(e sqlparse.Expr) {
		switch x := e.(type) {
		case *sqlparse.ColumnRef:
			for _, w := range strings.Fields(nlp.NormalizeIdent(x.Column)) {
				columns[nlp.Stem(w)] = true
			}
		case *sqlparse.Literal:
			if !x.Val.Null && x.Val.T == sqldata.TypeText {
				for _, w := range strings.Fields(strings.ToLower(x.Val.Text())) {
					values[nlp.Stem(w)] = true
				}
			}
		}
	})

	toks := nlp.Tag(nlp.Tokenize(p.Question))
	for _, t := range toks {
		if t.Kind == nlp.KindPunct {
			continue
		}
		obs = append(obs, q.signature(t))
		switch {
		case t.Kind == nlp.KindNumber:
			states = append(states, roleNum)
		case values[t.Stem]:
			states = append(states, roleValue)
		case columns[t.Stem]:
			states = append(states, roleColumn)
		case tables[t.Stem]:
			states = append(states, roleTable)
		default:
			states = append(states, roleO)
		}
	}
	return obs, states
}

// Name implements nlq.Interpreter.
func (q *Quest) Name() string { return "quest" }

// Interpret tags roles with the HMM, filters index matches by role, and
// assembles SQL with schema-graph-validated relationships.
func (q *Quest) Interpret(question string) ([]nlq.Interpretation, error) {
	a := nlq.Analyze(question, q.ix, invindex.DefaultOptions())
	toks := a.Tokens

	var seqToks []nlp.Token
	var obs []int
	for _, t := range toks {
		if t.Kind == nlp.KindPunct {
			continue
		}
		seqToks = append(seqToks, t)
		obs = append(obs, q.signature(t))
	}
	if len(obs) == 0 {
		return nil, fmt.Errorf("%w: empty question", nlq.ErrNoInterpretation)
	}
	path, lp, err := q.model.Viterbi(obs)
	if err != nil {
		return nil, err
	}
	roleAt := map[int]int{} // token position → role
	for i, t := range seqToks {
		roleAt[t.Pos] = path[i]
	}

	// Role-filtered evidence.
	required := map[string]bool{}
	anchor := ""
	var where []sqlparse.Expr
	var projCols [][2]string
	filters := map[string]bool{}

	pickKind := func(sp nlq.SpanMatch, kind invindex.Kind) *invindex.Match {
		for i := range sp.Matches {
			if sp.Matches[i].Kind == kind {
				return &sp.Matches[i]
			}
		}
		return nil
	}

	for _, sp := range a.Spans {
		role := roleAt[sp.Start]
		switch role {
		case roleTable:
			if m := pickKind(sp, invindex.KindTable); m != nil {
				lt := strings.ToLower(m.Table)
				required[lt] = true
				if anchor == "" {
					anchor = lt
				}
				continue
			}
		case roleColumn:
			if m := pickKind(sp, invindex.KindColumn); m != nil {
				lt, lc := strings.ToLower(m.Table), strings.ToLower(m.Column)
				projCols = append(projCols, [2]string{lt, lc})
				required[lt] = true
				continue
			}
		case roleValue:
			if m := pickKind(sp, invindex.KindValue); m != nil {
				lt, lc := strings.ToLower(m.Table), strings.ToLower(m.Column)
				required[lt] = true
				filters[lt+"."+lc] = true
				where = append(where, &sqlparse.BinaryExpr{
					Op: "=",
					L:  &sqlparse.ColumnRef{Table: lt, Column: lc},
					R:  &sqlparse.Literal{Val: sqldata.NewText(m.Value)},
				})
				continue
			}
		}
		// Fallback: trust the span's own best reading.
		m := sp.Best()
		lt := strings.ToLower(m.Table)
		switch m.Kind {
		case invindex.KindTable:
			required[lt] = true
			if anchor == "" {
				anchor = lt
			}
		case invindex.KindColumn:
			projCols = append(projCols, [2]string{lt, strings.ToLower(m.Column)})
			required[lt] = true
		case invindex.KindValue:
			lc := strings.ToLower(m.Column)
			required[lt] = true
			filters[lt+"."+lc] = true
			where = append(where, &sqlparse.BinaryExpr{
				Op: "=",
				L:  &sqlparse.ColumnRef{Table: lt, Column: lc},
				R:  &sqlparse.Literal{Val: sqldata.NewText(m.Value)},
			})
		}
	}

	if anchor == "" {
		for t := range required {
			if anchor == "" || t < anchor {
				anchor = t
			}
		}
	}
	if anchor == "" {
		return nil, fmt.Errorf("%w: no entities identified", nlq.ErrNoInterpretation)
	}

	// Numeric comparisons via shared rules.
	for _, cmp := range a.Comparisons {
		lt, lc := nlq.ResolveColumn(q.ix, cmp.ColumnHint, anchor, required)
		if lc == "" {
			lt, lc = anchor, nlq.FirstNumericColumn(q.db.Table(anchor).Schema)
		}
		if lc == "" {
			continue
		}
		required[lt] = true
		filters[lt+"."+lc] = true
		where = append(where, &sqlparse.BinaryExpr{
			Op: cmp.Op,
			L:  &sqlparse.ColumnRef{Table: lt, Column: lc},
			R:  &sqlparse.Literal{Val: nlq.NumLiteral(cmp.Value)},
		})
	}

	// Relationship validation: every required table must connect to the
	// anchor through foreign keys — the QUEST heuristic-rule step.
	tables := make([]string, 0, len(required))
	for t := range required {
		tables = append(tables, t)
	}
	sort.Strings(tables)
	from, err := q.graph.BuildFrom(tables)
	if err != nil {
		return nil, fmt.Errorf("%w: relationship validation failed: %v", nlq.ErrNoInterpretation, err)
	}

	stmt := sqlparse.NewSelect()
	stmt.From = from
	stmt.Where = sqlparse.Conjoin(where)
	qualify := len(from.Tables()) > 1

	mkCol := func(t, c string) *sqlparse.ColumnRef {
		if qualify {
			return &sqlparse.ColumnRef{Table: t, Column: c}
		}
		return &sqlparse.ColumnRef{Column: c}
	}

	// Aggregation via shared rule cues.
	if len(a.AggCues) > 0 {
		var groupCols [][2]string
		for _, g := range a.GroupCues {
			if t, c := a.ColumnAt(q.db, q.ix, g.TokenPos, anchor, required); c != "" {
				groupCols = append(groupCols, [2]string{t, c})
			}
		}
		for _, gc := range groupCols {
			stmt.Items = append(stmt.Items, sqlparse.SelectItem{Expr: mkCol(gc[0], gc[1])})
			stmt.GroupBy = append(stmt.GroupBy, mkCol(gc[0], gc[1]))
		}
		for _, cue := range a.AggCues {
			var target [2]string
			for i := cue.TokenPos + 1; i < len(toks) && i <= cue.TokenPos+4; i++ {
				if roleAt[i] == roleColumn {
					if t, c := a.ColumnAt(q.db, q.ix, i, anchor, required); c != "" {
						target = [2]string{t, c}
						break
					}
				}
			}
			var e sqlparse.Expr
			if target[1] == "" {
				if cue.Func != "COUNT" {
					if c := nlq.FirstNumericColumn(q.db.Table(anchor).Schema); c != "" {
						target = [2]string{anchor, c}
					}
				}
			}
			if target[1] == "" {
				e = &sqlparse.FuncCall{Name: "COUNT", Star: true}
			} else {
				e = &sqlparse.FuncCall{Name: cue.Func, Args: []sqlparse.Expr{mkCol(target[0], target[1])}}
			}
			stmt.Items = append(stmt.Items, sqlparse.SelectItem{Expr: e})
		}
	} else {
		seen := map[string]bool{}
		for _, pc := range projCols {
			k := pc[0] + "." + pc[1]
			if filters[k] || seen[k] {
				continue
			}
			seen[k] = true
			stmt.Items = append(stmt.Items, sqlparse.SelectItem{Expr: mkCol(pc[0], pc[1])})
		}
		if len(stmt.Items) == 0 {
			if c := nlq.FirstTextColumn(q.db.Table(anchor).Schema); c != "" {
				stmt.Items = []sqlparse.SelectItem{{Expr: mkCol(anchor, c)}}
			} else {
				stmt.Items = []sqlparse.SelectItem{{Star: true}}
			}
		}
	}

	// Top-k via shared cue.
	if a.TopK != nil {
		word := toks[a.TopK.TokenPos].Lower
		if word == "top" || word == "bottom" || word == "first" || word == "last" {
			// The ordering key follows a later "by" phrase ("top 3
			// products by price") or directly follows the cue.
			var ot, oc string
			for _, g := range a.GroupCues {
				if g.TokenPos > a.TopK.TokenPos {
					if t, c := a.ColumnAt(q.db, q.ix, g.TokenPos, anchor, required); c != "" {
						ot, oc = t, c
						break
					}
				}
			}
			if oc == "" {
				if t, c := a.ColumnAt(q.db, q.ix, a.TopK.TokenPos+1, anchor, required); c != "" {
					ot, oc = t, c
				}
			}
			if oc != "" {
				stmt.OrderBy = []sqlparse.OrderItem{{Expr: mkCol(ot, oc), Desc: a.TopK.Desc}}
				stmt.Limit = a.TopK.K
			}
		}
	}

	// Confidence: normalized HMM path probability blended with coverage.
	conf := 0.5 + 0.5/(1.0+(-lp)/float64(len(obs)*4))
	return []nlq.Interpretation{{
		SQL:         stmt,
		Score:       conf,
		Explanation: fmt.Sprintf("HMM role tagging (logP=%.1f) + relationship rules over %v", lp, tables),
	}}, nil
}

// Ensemble is the filtering hybrid: the entity-based primary answers when
// confident; otherwise the learning-based fallback does.
type Ensemble struct {
	Primary   nlq.Interpreter
	Fallback  nlq.Interpreter
	Threshold float64
}

// Name implements nlq.Interpreter.
func (e *Ensemble) Name() string { return "hybrid" }

// Interpret delegates by confidence.
func (e *Ensemble) Interpret(question string) ([]nlq.Interpretation, error) {
	prim, perr := e.Primary.Interpret(question)
	if perr == nil {
		if best, err := nlq.Best(prim); err == nil && best.Score >= e.Threshold {
			return prim, nil
		}
	}
	fall, ferr := e.Fallback.Interpret(question)
	if ferr == nil {
		// Keep the primary's readings behind the fallback's.
		return append(fall, prim...), nil
	}
	if perr == nil && len(prim) > 0 {
		return prim, nil
	}
	return nil, fmt.Errorf("%w: both hybrid stages failed (%v; %v)", nlq.ErrNoInterpretation, perr, ferr)
}
