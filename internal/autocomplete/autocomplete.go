// Package autocomplete implements TR-Discover-style query auto-completion
// (§4.1 of the survey): as the user types, the system suggests the next
// lexical entries — entities, properties, relationships, comparison
// phrases, and data values — that are grammatically reachable from what
// has been typed so far, ranked by the centrality of the corresponding
// node in the ontology graph. The grammar is the same one the entity-based
// interpreters consume, so accepted completions always parse.
package autocomplete

import (
	"sort"
	"strings"

	"nlidb/internal/invindex"
	"nlidb/internal/lexicon"
	"nlidb/internal/nlp"
	"nlidb/internal/nlq"
	"nlidb/internal/ontology"
	"nlidb/internal/sqldata"
)

// Suggestion is one ranked completion.
type Suggestion struct {
	// Text is the completion to append.
	Text string
	// Kind says what the completion is: concept, property, relationship,
	// value, comparison, or aggregate.
	Kind string
	// Score ranks suggestions; higher first.
	Score float64
}

// Completer suggests next entries for one database + ontology.
type Completer struct {
	db  *sqldata.Database
	ont *ontology.Ontology
	ix  *invindex.Index
	// centrality scores each concept by its degree in the ontology graph
	// (the TR Discover ranking signal).
	centrality map[string]float64
}

// New builds a completer; the ontology may be auto-generated.
func New(db *sqldata.Database, ont *ontology.Ontology, lex *lexicon.Lexicon) *Completer {
	return NewWithIndex(db, ont, invindex.Build(db, lex))
}

// NewWithIndex is New over an index already built for db.
func NewWithIndex(db *sqldata.Database, ont *ontology.Ontology, ix *invindex.Index) *Completer {
	c := &Completer{
		db:         db,
		ont:        ont,
		ix:         ix,
		centrality: map[string]float64{},
	}
	// Degree centrality: relationships touching the concept, plus a small
	// weight per property (richer concepts are likelier query subjects).
	maxDeg := 1.0
	for _, cc := range ont.Concepts() {
		deg := float64(len(ont.RelationshipsOf(cc.Name)))*2 + float64(len(cc.Properties))*0.25
		c.centrality[strings.ToLower(cc.Name)] = deg
		if deg > maxDeg {
			maxDeg = deg
		}
	}
	for k := range c.centrality {
		c.centrality[k] = 0.25 + 0.75*c.centrality[k]/maxDeg
	}
	return c
}

// state captures what the typed prefix already establishes.
type state struct {
	anchor      *ontology.Concept // concept the query is about
	lastConcept *ontology.Concept // most recent concept mention
	lastProp    *ontology.Property
	hasFilterOn bool // "with"/"whose" style opener seen
	hasCompare  bool // a comparative phrase seen, awaiting a number
	empty       bool
}

// analyze derives the completion state from the typed prefix.
func (c *Completer) analyze(prefix string) state {
	toks := nlp.Tag(nlp.Tokenize(prefix))
	st := state{empty: len(toks) == 0}
	spans := nlq.MatchSpans(toks, c.ix, invindex.DefaultOptions())
	for _, sp := range spans {
		m := sp.Best()
		switch m.Kind {
		case invindex.KindTable:
			if cc := c.ont.ConceptForTable(m.Table); cc != nil {
				if st.anchor == nil {
					st.anchor = cc
				}
				st.lastConcept = cc
				st.lastProp = nil
			}
		case invindex.KindColumn:
			if cc := c.ont.ConceptForTable(m.Table); cc != nil {
				if st.anchor == nil {
					st.anchor = cc
				}
				st.lastConcept = cc
				st.lastProp = cc.Property(m.Column)
			}
		}
	}
	for _, t := range toks {
		switch {
		case t.Lower == "with" || t.Lower == "whose" || t.Lower == "having":
			st.hasFilterOn = true
		case t.POS == nlp.POSComparative || compareWords[t.Lower]:
			st.hasCompare = true
		case t.Kind == nlp.KindNumber:
			st.hasCompare = false // comparison completed
		}
	}
	return st
}

// compareWords are comparison cues the POS tagger files as prepositions.
var compareWords = map[string]bool{
	"over": true, "under": true, "above": true, "below": true,
	"than": true, "between": true, "exceeding": true,
}

// Suggest returns up to limit ranked completions for the typed prefix.
func (c *Completer) Suggest(prefix string, limit int) []Suggestion {
	if limit <= 0 {
		limit = 8
	}
	st := c.analyze(prefix)
	var out []Suggestion
	add := func(text, kind string, score float64) {
		out = append(out, Suggestion{Text: text, Kind: kind, Score: score})
	}

	switch {
	case st.empty || st.anchor == nil:
		// Opening position: suggest concepts by centrality, and the
		// aggregate openers.
		for _, cc := range c.ont.Concepts() {
			add(pluralize(cc.Name), "concept", c.centrality[strings.ToLower(cc.Name)])
		}
		add("how many", "aggregate", 0.6)
		add("average", "aggregate", 0.5)
		add("total", "aggregate", 0.5)

	case st.hasCompare:
		// A comparative awaits a number or an aggregate sub-expression.
		add("<number>", "comparison", 1.0)
		if st.lastProp != nil {
			add("the average "+st.lastProp.Name, "aggregate", 0.9)
		}

	case st.hasFilterOn && st.lastProp == nil:
		// After "with": the anchor's filterable properties, best first by
		// type usefulness (text values filter, numerics compare).
		for _, p := range propertiesOf(st.lastConceptOr(st.anchor)) {
			score := 0.6
			if p.Type == sqldata.TypeText {
				score = 0.8
			}
			if p.Type.Numeric() {
				score = 0.7
			}
			add(p.Name, "property", score)
		}

	case st.lastProp != nil && st.lastProp.Type == sqldata.TypeText:
		// A text property wants a value.
		if tbl := c.db.Table(st.lastConceptOr(st.anchor).Table); tbl != nil {
			vals, err := tbl.DistinctText(st.lastProp.Column)
			if err == nil {
				for i, v := range vals {
					if i == 12 {
						break
					}
					add(v, "value", 0.9-float64(i)*0.01)
				}
			}
		}

	case st.lastProp != nil && st.lastProp.Type.Numeric():
		// A numeric property wants a comparison.
		for i, phr := range []string{"over", "under", "greater than", "less than", "between"} {
			add(phr, "comparison", 0.9-float64(i)*0.05)
		}

	default:
		// After a bare concept: filter openers, relationships to related
		// concepts (ranked by the target's centrality), and grouping.
		add("with", "keyword", 0.9)
		for _, rel := range c.ont.RelationshipsOf(st.anchor.Name) {
			other := rel.To
			if strings.EqualFold(other, st.anchor.Name) {
				other = rel.From
			}
			add("of the "+other, "relationship", 0.5+0.4*c.centrality[strings.ToLower(other)])
			add("without "+pluralize(other), "relationship", 0.3+0.3*c.centrality[strings.ToLower(other)])
		}
		add("per", "grouping", 0.45)
	}

	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Text < out[j].Text
	})
	if len(out) > limit {
		out = out[:limit]
	}
	return out
}

func (s state) lastConceptOr(fallback *ontology.Concept) *ontology.Concept {
	if s.lastConcept != nil {
		return s.lastConcept
	}
	return fallback
}

func propertiesOf(c *ontology.Concept) []ontology.Property {
	if c == nil {
		return nil
	}
	var out []ontology.Property
	for _, p := range c.Properties {
		if strings.EqualFold(p.Column, "id") {
			continue
		}
		out = append(out, p)
	}
	return out
}

func pluralize(w string) string {
	switch {
	case strings.HasSuffix(w, "s"):
		return w
	case strings.HasSuffix(w, "y"):
		return w[:len(w)-1] + "ies"
	default:
		return w + "s"
	}
}
