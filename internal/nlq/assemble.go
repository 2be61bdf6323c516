package nlq

import (
	"strings"

	"nlidb/internal/invindex"
	"nlidb/internal/nlp"
	"nlidb/internal/sqldata"
)

// LeadingK finds a bare count before the superlative at supPos ("5
// cheapest ..."), skipping numbers a comparison consumed; 1 when none.
func LeadingK(a *Analysis, supPos int) int {
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

// NumLiteral is the SQL value of a number read from a question: INT when
// it is integral and fits an int64, FLOAT otherwise. The range is tested
// first because Go leaves int64(v) implementation-defined outside
// [-2^63, 2^63).
func NumLiteral(v float64) sqldata.Value {
	if v >= -(1<<63) && v < 1<<63 && v == float64(int64(v)) {
		return sqldata.NewInt(int64(v))
	}
	return sqldata.NewFloat(v)
}

// FirstTextColumn names the schema's first TEXT column, lower-cased ("" when
// it has none): the column an entity is displayed by.
func FirstTextColumn(s *sqldata.Schema) string {
	for _, c := range s.Columns {
		if c.Type == sqldata.TypeText {
			return strings.ToLower(c.Name)
		}
	}
	return ""
}

// FirstNumericColumn names the schema's first numeric column that is not
// the primary key, lower-cased ("" when it has none): the default target
// of an aggregate or superlative that names no column.
func FirstNumericColumn(s *sqldata.Schema) string {
	for _, c := range s.Columns {
		if c.Type.Numeric() && !c.PrimaryKey {
			return strings.ToLower(c.Name)
		}
	}
	return ""
}

// ResolveColumn maps a word to a column: a match in the anchor table
// first, then one in a table the question already requires, then the
// index's best match. Both names come back lower-cased ("" when the word
// names no column).
func ResolveColumn(ix *invindex.Index, word, anchor string, required map[string]bool) (string, string) {
	if word == "" {
		return "", ""
	}
	opts := invindex.DefaultOptions()
	opts.KindFilter = []invindex.Kind{invindex.KindColumn}
	ms := ix.Lookup(word, opts)
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
	return strings.ToLower(ms[0].Table), strings.ToLower(ms[0].Column)
}

// ColumnAt resolves the token at pos to a column: a column its span
// matches, else the first text column of a table its span names ("per
// department" groups by the department's display column), else
// ResolveColumn on the word itself.
func (a *Analysis) ColumnAt(db *sqldata.Database, ix *invindex.Index, pos int, anchor string, required map[string]bool) (string, string) {
	if pos < 0 || pos >= len(a.Tokens) {
		return "", ""
	}
	if sp := a.SpanAt(pos); sp != nil {
		for _, m := range sp.Matches {
			if m.Kind == invindex.KindColumn {
				return strings.ToLower(m.Table), strings.ToLower(m.Column)
			}
		}
		for _, m := range sp.Matches {
			if m.Kind == invindex.KindTable {
				if c := FirstTextColumn(db.Table(m.Table).Schema); c != "" {
					return strings.ToLower(m.Table), c
				}
			}
		}
	}
	return ResolveColumn(ix, a.Tokens[pos].Lower, anchor, required)
}

// OrBetween reports whether an "or" token lies between two token
// positions: the disjunction cue that turns two value filters on one
// column into an IN list.
func OrBetween(toks []nlp.Token, a, b int) bool {
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
