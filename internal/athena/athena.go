// Package athena implements an ATHENA-style ontology-driven interpreter,
// the class-4 (nested BI) family of the tutorial's taxonomy. The question
// is annotated with evidence against a domain ontology (concepts, data
// properties, relationships), assembled into an intermediate ontology
// query (package ir), and compiled to SQL with inferred joins. It covers
// the nested patterns the tutorial highlights as the hardest:
//
//   - comparisons against aggregates ("earning more than the average
//     salary") → scalar sub-queries,
//   - exclusion ("departments without employees") → NOT EXISTS,
//   - related-entity counting ("customers with more than 3 orders") →
//     join + GROUP BY + HAVING COUNT,
//
// plus everything the lower classes do. It also implements the query
// relaxation of Lei et al. (2020): unmatched terms retry through lexicon
// synonym/hypernym expansion, at a score penalty.
package athena

import (
	"fmt"
	"sort"
	"strings"

	"nlidb/internal/invindex"
	"nlidb/internal/ir"
	"nlidb/internal/lexicon"
	"nlidb/internal/nlp"
	"nlidb/internal/nlq"
	"nlidb/internal/ontology"
	"nlidb/internal/schemagraph"
	"nlidb/internal/sqldata"
)

// Interpreter is the ontology-driven NLIDB over one database.
type Interpreter struct {
	db       *sqldata.Database
	ont      *ontology.Ontology
	ix       *invindex.Index
	lex      *lexicon.Lexicon
	compiler *ir.Compiler
	opts     invindex.LookupOptions

	// Relax enables query relaxation over the lexicon for unmatched terms.
	Relax bool
}

// New builds the interpreter with an ontology auto-generated from the
// database (the Jammi et al. tooling path).
func New(db *sqldata.Database, lex *lexicon.Lexicon) *Interpreter {
	return NewWithIndex(db, invindex.Build(db, lex), lex)
}

// NewWithIndex is New over an index already built for db with lex, so the
// engines of one fallback chain can share it.
func NewWithIndex(db *sqldata.Database, ix *invindex.Index, lex *lexicon.Lexicon) *Interpreter {
	return newInterpreter(db, ontology.FromDatabase(db), ix, lex)
}

// NewWithOntology uses a hand-curated ontology instead.
func NewWithOntology(db *sqldata.Database, ont *ontology.Ontology, lex *lexicon.Lexicon) *Interpreter {
	return newInterpreter(db, ont, invindex.Build(db, lex), lex)
}

func newInterpreter(db *sqldata.Database, ont *ontology.Ontology, ix *invindex.Index, lex *lexicon.Lexicon) *Interpreter {
	return &Interpreter{
		db:       db,
		ont:      ont,
		ix:       ix,
		lex:      lex,
		compiler: &ir.Compiler{Ont: ont, Graph: schemagraph.Build(db)},
		opts:     invindex.DefaultOptions(),
		Relax:    true,
	}
}

// Ontology exposes the domain model (examples enrich it with synonyms).
func (at *Interpreter) Ontology() *ontology.Ontology { return at.ont }

// Graph exposes the schema graph for query-log priors.
func (at *Interpreter) Graph() *schemagraph.Graph { return at.compiler.Graph }

// Index exposes the inverted index the interpreter resolves words through.
func (at *Interpreter) Index() *invindex.Index { return at.ix }

// Name implements nlq.Interpreter.
func (at *Interpreter) Name() string { return "athena" }

// Interpret annotates the question with ontology evidence, builds the
// intermediate query, and compiles it to SQL.
func (at *Interpreter) Interpret(question string) ([]nlq.Interpretation, error) {
	a := nlq.Analyze(question, at.ix, at.opts)
	relaxed := 0
	if at.Relax {
		relaxed = at.relax(a)
	}
	if len(a.Spans) == 0 && len(a.Comparisons) == 0 && len(a.SubCompares) == 0 {
		return nil, fmt.Errorf("%w: no ontology evidence", nlq.ErrNoInterpretation)
	}

	q, expl, err := at.buildIR(a)
	if err != nil {
		return nil, err
	}
	stmt, err := at.compiler.Compile(q)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", nlq.ErrNoInterpretation, err)
	}

	score := at.score(a)
	if relaxed > 0 {
		score *= 0.85
		expl = append(expl, fmt.Sprintf("relaxed %d term(s) via lexicon", relaxed))
	}
	return []nlq.Interpretation{{SQL: stmt, Score: score, Explanation: strings.Join(expl, "; ")}}, nil
}

// relax retries unmatched content words through lexicon expansion and
// appends any hits as extra spans; it returns how many terms it relaxed.
// This reproduces the Lei et al. medical-KB relaxation mechanism.
func (at *Interpreter) relax(a *nlq.Analysis) int {
	covered := map[int]bool{}
	for _, sp := range a.Spans {
		for i := sp.Start; i < sp.End; i++ {
			covered[i] = true
		}
	}
	relaxed := 0
	for i, t := range a.Tokens {
		if covered[i] || t.Kind != nlp.KindWord || t.IsStop() || t.POS == nlp.POSPrep ||
			t.POS == nlp.POSComparative || t.POS == nlp.POSSuperlative || t.POS == nlp.POSNeg {
			continue
		}
		for _, rel := range at.lex.Related(t.Lower) {
			if rel == nlp.Stem(t.Lower) {
				continue
			}
			ms := at.ix.Lookup(rel, invindex.LookupOptions{})
			if len(ms) == 0 {
				continue
			}
			for j := range ms {
				ms[j].Score *= 0.8
				ms[j].Via = "relaxed"
			}
			a.Spans = append(a.Spans, nlq.SpanMatch{Start: i, End: i + 1, Text: t.Text, Matches: ms})
			relaxed++
			break
		}
	}
	sort.SliceStable(a.Spans, func(x, y int) bool { return a.Spans[x].Start < a.Spans[y].Start })
	return relaxed
}

// evidence is the ontology-level reading of the spans.
type evidence struct {
	anchor    string // concept name
	anchorPos int
	props     []propHit
	values    []valueHit
	tableCons []conceptHit
}

type propHit struct {
	prop ir.PropRef
	pos  int
}

type valueHit struct {
	prop  ir.PropRef
	value string
	pos   int
}

type conceptHit struct {
	concept string
	pos     int
}

// annotate lifts index matches to ontology evidence.
func (at *Interpreter) annotate(a *nlq.Analysis) *evidence {
	ev := &evidence{anchorPos: -1}
	for _, sp := range a.Spans {
		m := sp.Best()
		c := at.ont.ConceptForTable(m.Table)
		if c == nil {
			continue
		}
		switch m.Kind {
		case invindex.KindTable:
			ev.tableCons = append(ev.tableCons, conceptHit{concept: c.Name, pos: sp.Start})
			if ev.anchor == "" {
				ev.anchor = c.Name
				ev.anchorPos = sp.Start
			}
		case invindex.KindColumn:
			if p := c.Property(m.Column); p != nil {
				ev.props = append(ev.props, propHit{prop: ir.PropRef{Concept: c.Name, Property: p.Name}, pos: sp.Start})
			}
		case invindex.KindValue:
			if p := c.Property(m.Column); p != nil {
				ev.values = append(ev.values, valueHit{prop: ir.PropRef{Concept: c.Name, Property: p.Name}, value: m.Value, pos: sp.Start})
			}
		}
	}
	if ev.anchor == "" {
		if len(ev.props) > 0 {
			ev.anchor = ev.props[0].prop.Concept
		} else if len(ev.values) > 0 {
			ev.anchor = ev.values[0].prop.Concept
		}
	}
	return ev
}

// buildIR assembles the intermediate query from the analysis.
func (at *Interpreter) buildIR(a *nlq.Analysis) (*ir.Query, []string, error) {
	ev := at.annotate(a)
	if ev.anchor == "" {
		return nil, nil, fmt.Errorf("%w: no concept identified", nlq.ErrNoInterpretation)
	}
	expl := []string{fmt.Sprintf("anchor concept %s", ev.anchor)}
	q := ir.NewQuery(ev.anchor)

	usedValuePos := map[int]bool{}
	filterProps := map[string]bool{}

	// Negation: "without C" / "with no C" → NOT EXISTS; "not in V" /
	// "except V" against a value → negated equality.
	negatedValuePos := -1
	if a.NegationPos >= 0 {
		if c := at.conceptNear(a, ev, a.NegationPos+1, 2); c != "" && !strings.EqualFold(c, ev.anchor) {
			q.Exists = append(q.Exists, ir.ExistsCond{Concept: c, Not: true})
			expl = append(expl, fmt.Sprintf("NOT EXISTS %s", c))
			// The negated concept's mention must not also join.
			for i := range ev.tableCons {
				if ev.tableCons[i].concept == c {
					ev.tableCons[i].concept = ""
				}
			}
		} else {
			for _, v := range ev.values {
				if v.pos > a.NegationPos && v.pos <= a.NegationPos+3 {
					negatedValuePos = v.pos
					break
				}
			}
		}
	}

	// Value conditions. Values of the same property linked by "or" merge
	// into one IN condition; others conjoin as equalities.
	for vi, v := range ev.values {
		if usedValuePos[v.pos] {
			continue
		}
		usedValuePos[v.pos] = true
		// Collect "or"-linked siblings on the same property.
		inVals := []sqldata.Value{sqldata.NewText(v.value)}
		for _, w := range ev.values[vi+1:] {
			if usedValuePos[w.pos] || w.prop != v.prop {
				continue
			}
			if orLinked(a.Tokens, v.pos, w.pos) {
				usedValuePos[w.pos] = true
				inVals = append(inVals, sqldata.NewText(w.value))
			}
		}
		if len(inVals) > 1 {
			q.Conditions = append(q.Conditions, ir.Condition{Prop: v.prop, Op: "in", InValues: inVals})
			expl = append(expl, fmt.Sprintf("%s IN %d values", v.prop, len(inVals)))
		} else {
			val := inVals[0]
			cond := ir.Condition{Prop: v.prop, Op: "=", Operand: ir.Operand{Value: &val}}
			if v.pos == negatedValuePos {
				cond.Op = "!="
				expl = append(expl, fmt.Sprintf("%s != %q", v.prop, v.value))
			} else {
				expl = append(expl, fmt.Sprintf("%s = %q", v.prop, v.value))
			}
			q.Conditions = append(q.Conditions, cond)
		}
		filterProps[v.prop.String()] = true
	}

	// Numeric comparisons: either plain property filters or, when the
	// comparison's object is a *concept*, a HAVING COUNT over the related
	// entity ("customers with more than 3 orders").
	subAggPos := map[int]bool{}
	for _, s := range a.SubCompares {
		subAggPos[s.AggPos] = true
	}
	for _, cmp := range a.Comparisons {
		if c := at.conceptNear(a, ev, cmp.TokenPos+1, 2); c != "" && !strings.EqualFold(c, ev.anchor) {
			// HAVING COUNT pattern over a related concept.
			cc := at.ont.Concept(c)
			pk := firstPropertyName(cc)
			n := sqldata.NewInt(int64(cmp.Value))
			q.Conditions = append(q.Conditions, ir.Condition{
				Agg: ir.AggCount, Prop: ir.PropRef{Concept: c, Property: pk},
				Op: cmp.Op, Operand: ir.Operand{Value: &n},
			})
			anchorID := at.identifying(ev.anchor)
			q.GroupBy = append(q.GroupBy, ir.PropRef{Concept: ev.anchor, Property: anchorID})
			expl = append(expl, fmt.Sprintf("HAVING COUNT(%s) %s %v grouped by %s", c, cmp.Op, cmp.Value, anchorID))
			continue
		}
		prop, ok := at.resolveProp(cmp.ColumnHint, ev)
		if !ok {
			prop, ok = at.firstNumericProp(ev.anchor)
			if !ok {
				continue
			}
		}
		val := numLiteral(cmp.Value)
		q.Conditions = append(q.Conditions, ir.Condition{Prop: prop, Op: cmp.Op, Operand: ir.Operand{Value: &val}})
		filterProps[prop.String()] = true
		expl = append(expl, fmt.Sprintf("%s %s %v", prop, cmp.Op, cmp.Value))
	}

	// Nested scalar-sub-query comparisons.
	for _, sc := range a.SubCompares {
		outer, ok := at.resolveProp(sc.ColumnHint, ev)
		if !ok {
			outer, ok = at.firstNumericProp(ev.anchor)
			if !ok {
				continue
			}
		}
		// Inner property: the column word after the aggregate cue, else
		// the same property as the outer side.
		inner := outer
		if sc.AggPos+1 < len(a.Tokens) {
			if p, ok := at.resolveProp(a.Tokens[sc.AggPos+1].Lower, ev); ok {
				inner = p
			}
		}
		sub := ir.NewQuery(inner.Concept)
		sub.Projections = []ir.Projection{{Agg: ir.Agg(sc.AggFunc), Prop: &inner}}
		q.Conditions = append(q.Conditions, ir.Condition{Prop: outer, Op: sc.Op, Operand: ir.Operand{Sub: sub}})
		filterProps[outer.String()] = true
		expl = append(expl, fmt.Sprintf("%s %s (%s %s)", outer, sc.Op, sc.AggFunc, inner))
	}

	// Superlative disambiguation (shared convention with the other
	// families): after the anchor mention → top-k; before → MAX/MIN.
	topk := a.TopK
	aggCues := a.AggCues
	if topk != nil {
		word := a.Tokens[topk.TokenPos].Lower
		explicitTop := word == "top" || word == "bottom" || word == "first" || word == "last"
		if !explicitTop && (ev.anchorPos < 0 || ev.anchorPos > topk.TokenPos) {
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

	// Grouping.
	for _, g := range a.GroupCues {
		if topk != nil && g.TokenPos > topk.TokenPos {
			continue
		}
		if p, ok := at.groupTarget(a, ev, g.TokenPos); ok {
			q.GroupBy = append(q.GroupBy, p)
			expl = append(expl, fmt.Sprintf("group by %s", p))
		}
	}

	// Projections.
	switch {
	case len(aggCues) > 0:
		for _, g := range q.GroupBy {
			q.Projections = append(q.Projections, ir.Projection{Prop: &ir.PropRef{Concept: g.Concept, Property: g.Property}})
		}
		for _, cue := range aggCues {
			target, ok := at.aggTarget(a, ev, cue, filterProps)
			switch {
			case cue.Func == "COUNT" && !ok:
				q.Projections = append(q.Projections, ir.Projection{Agg: ir.AggCount, Star: true})
			case ok:
				q.Projections = append(q.Projections, ir.Projection{Agg: ir.Agg(cue.Func), Prop: &target})
			default:
				if p, ok2 := at.firstNumericProp(ev.anchor); ok2 {
					q.Projections = append(q.Projections, ir.Projection{Agg: ir.Agg(cue.Func), Prop: &p})
				}
			}
			expl = append(expl, fmt.Sprintf("aggregate %s", cue.Func))
		}
	default:
		seen := map[string]bool{}
		orderProp := at.orderProp(a, ev, topk)
		for _, ph := range ev.props {
			k := ph.prop.String()
			if filterProps[k] || seen[k] {
				continue
			}
			if orderProp != nil && k == orderProp.String() {
				continue
			}
			seen[k] = true
			p := ph.prop
			q.Projections = append(q.Projections, ir.Projection{Prop: &p})
		}
		if len(q.Projections) == 0 {
			// Project the anchor's identifying property.
			idp := at.identifying(ev.anchor)
			q.Projections = append(q.Projections, ir.Projection{Prop: &ir.PropRef{Concept: ev.anchor, Property: idp}})
		}
		// When a HAVING pattern grouped the query, the projection must be
		// the grouped property.
		if len(q.GroupBy) > 0 {
			q.Projections = q.Projections[:0]
			for _, g := range q.GroupBy {
				q.Projections = append(q.Projections, ir.Projection{Prop: &ir.PropRef{Concept: g.Concept, Property: g.Property}})
			}
		}
	}

	// Ordering.
	if topk != nil {
		if p := at.orderProp(a, ev, topk); p != nil {
			q.OrderBy = append(q.OrderBy, ir.OrderSpec{Prop: p, Desc: topk.Desc})
			q.Limit = topk.K
			expl = append(expl, fmt.Sprintf("order by %s desc=%v limit %d", p, topk.Desc, topk.K))
		}
	}

	return q, expl, nil
}

// conceptNear returns a concept mentioned within `window` tokens at/after
// pos (skipping stopwords), or "".
func (at *Interpreter) conceptNear(a *nlq.Analysis, ev *evidence, pos, window int) string {
	for i := pos; i < len(a.Tokens) && i <= pos+window; i++ {
		for _, tc := range ev.tableCons {
			if tc.pos == i {
				return tc.concept
			}
		}
		if sp := a.SpanAt(i); sp != nil {
			for _, m := range sp.Matches {
				if m.Kind == invindex.KindTable {
					if c := at.ont.ConceptForTable(m.Table); c != nil {
						return c.Name
					}
				}
			}
		}
	}
	return ""
}

// resolveProp maps a word to a property, preferring the anchor concept.
func (at *Interpreter) resolveProp(word string, ev *evidence) (ir.PropRef, bool) {
	if word == "" {
		return ir.PropRef{}, false
	}
	if c := at.ont.Concept(ev.anchor); c != nil {
		if p := c.Property(word); p != nil {
			return ir.PropRef{Concept: c.Name, Property: p.Name}, true
		}
	}
	for _, cc := range at.ont.Concepts() {
		if p := cc.Property(word); p != nil {
			return ir.PropRef{Concept: cc.Name, Property: p.Name}, true
		}
	}
	// Lexicon-relaxed resolution.
	if at.Relax && at.lex != nil {
		for _, rel := range at.lex.Related(word) {
			for _, cc := range at.ont.Concepts() {
				if p := cc.Property(rel); p != nil {
					return ir.PropRef{Concept: cc.Name, Property: p.Name}, true
				}
			}
		}
	}
	return ir.PropRef{}, false
}

func (at *Interpreter) firstNumericProp(concept string) (ir.PropRef, bool) {
	c := at.ont.Concept(concept)
	if c == nil {
		return ir.PropRef{}, false
	}
	for _, p := range c.Properties {
		if p.Type.Numeric() && !strings.EqualFold(p.Column, "id") {
			return ir.PropRef{Concept: c.Name, Property: p.Name}, true
		}
	}
	return ir.PropRef{}, false
}

// identifying returns the anchor concept's identifying property name.
func (at *Interpreter) identifying(concept string) string {
	c := at.ont.Concept(concept)
	if c == nil {
		return "name"
	}
	if p := c.IdentifyingProperty(); p != nil {
		return p.Name
	}
	if len(c.Properties) > 0 {
		return c.Properties[0].Name
	}
	return "name"
}

// groupTarget resolves a group cue token to a property; a concept mention
// groups by that concept's identifying property.
func (at *Interpreter) groupTarget(a *nlq.Analysis, ev *evidence, pos int) (ir.PropRef, bool) {
	if pos < 0 || pos >= len(a.Tokens) {
		return ir.PropRef{}, false
	}
	if sp := a.SpanAt(pos); sp != nil {
		for _, m := range sp.Matches {
			if m.Kind == invindex.KindColumn {
				if c := at.ont.ConceptForTable(m.Table); c != nil {
					if p := c.Property(m.Column); p != nil {
						return ir.PropRef{Concept: c.Name, Property: p.Name}, true
					}
				}
			}
		}
		for _, m := range sp.Matches {
			if m.Kind == invindex.KindTable {
				if c := at.ont.ConceptForTable(m.Table); c != nil {
					return ir.PropRef{Concept: c.Name, Property: at.identifying(c.Name)}, true
				}
			}
		}
	}
	return at.resolveProp(a.Tokens[pos].Lower, ev)
}

// aggTarget resolves the aggregate's target property near the cue.
func (at *Interpreter) aggTarget(a *nlq.Analysis, ev *evidence, cue nlq.AggCue, filters map[string]bool) (ir.PropRef, bool) {
	try := func(i int) (ir.PropRef, bool) {
		if i < 0 || i >= len(a.Tokens) {
			return ir.PropRef{}, false
		}
		if sp := a.SpanAt(i); sp != nil && sp.Best().Kind == invindex.KindTable {
			return ir.PropRef{}, false
		}
		p, ok := at.resolveProp(a.Tokens[i].Lower, ev)
		if ok && !filters[p.String()] {
			return p, true
		}
		return ir.PropRef{}, false
	}
	for i := cue.TokenPos + 1; i <= cue.TokenPos+4; i++ {
		if p, ok := try(i); ok {
			return p, true
		}
	}
	for i := cue.TokenPos - 1; i >= cue.TokenPos-3; i-- {
		if p, ok := try(i); ok {
			return p, true
		}
	}
	return ir.PropRef{}, false
}

// orderProp resolves the top-k ordering property.
func (at *Interpreter) orderProp(a *nlq.Analysis, ev *evidence, topk *nlq.TopKCue) *ir.PropRef {
	if topk == nil {
		return nil
	}
	if topk.TokenPos+1 < len(a.Tokens) {
		if p, ok := at.resolveProp(a.Tokens[topk.TokenPos+1].Lower, ev); ok {
			return &p
		}
	}
	for _, g := range a.GroupCues {
		if g.TokenPos > topk.TokenPos {
			if p, ok := at.groupTarget(a, ev, g.TokenPos); ok {
				return &p
			}
		}
	}
	if p, ok := at.resolveProp(a.Tokens[topk.TokenPos].Lower, ev); ok {
		return &p
	}
	if p, ok := at.firstNumericProp(ev.anchor); ok {
		return &p
	}
	return nil
}

// score rates evidence coverage of the question's content words.
func (at *Interpreter) score(a *nlq.Analysis) float64 {
	content, covered := 0, 0
	for _, t := range a.Tokens {
		if t.Kind == nlp.KindWord && !t.IsStop() && t.POS != nlp.POSPrep {
			content++
		}
	}
	for _, sp := range a.Spans {
		covered += sp.End - sp.Start
	}
	if content == 0 {
		return 0.7
	}
	c := float64(covered) / float64(content)
	if c > 1 {
		c = 1
	}
	return 0.5 + 0.5*c
}

func firstPropertyName(c *ontology.Concept) string {
	if c == nil {
		return "id"
	}
	if len(c.Properties) > 0 {
		return c.Properties[0].Name
	}
	return "id"
}

// orLinked reports whether an "or" token lies between two token positions.
func orLinked(toks []nlp.Token, a, b int) bool {
	if a > b {
		a, b = b, a
	}
	for i := a; i < b && i < len(toks); i++ {
		if toks[i].Lower == "or" {
			return true
		}
	}
	return false
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

func numLiteral(v float64) sqldata.Value {
	if v == float64(int64(v)) {
		return sqldata.NewInt(int64(v))
	}
	return sqldata.NewFloat(v)
}
