package nlq

import (
	"strings"

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
