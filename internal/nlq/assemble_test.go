package nlq

import (
	"math"
	"testing"

	"nlidb/internal/nlp"
	"nlidb/internal/sqldata"
)

func TestNumLiteral(t *testing.T) {
	cases := []struct {
		v       float64
		wantInt bool
		want    int64
	}{
		{42, true, 42},
		{-7, true, -7},
		{3.5, false, 0},
		{math.Copysign(0, -1), true, 0},
		{-(1 << 63), true, math.MinInt64},
		{1 << 63, false, 0},
		{1e19, false, 0},
		{-1e19, false, 0},
		{math.Inf(1), false, 0},
		{math.NaN(), false, 0},
	}
	for _, c := range cases {
		got := NumLiteral(c.v)
		if c.wantInt {
			if got.T != sqldata.TypeInt || got.Int() != c.want {
				t.Errorf("NumLiteral(%g) = %v (%s), want INT %d", c.v, got, got.T, c.want)
			}
			continue
		}
		if got.T != sqldata.TypeFloat || math.Float64bits(got.Float()) != math.Float64bits(c.v) {
			t.Errorf("NumLiteral(%g) = %v (%s), want FLOAT %g", c.v, got, got.T, c.v)
		}
	}
}

func TestLeadingK(t *testing.T) {
	cases := []struct {
		q, sup string
		want   int
	}{
		{"5 cheapest products", "cheapest", 5},
		{"cheapest product", "cheapest", 1},
		// The only number belongs to the comparison, not to the limit.
		{"products with price over 10 cheapest", "cheapest", 1},
		{"products with price over 10 the 3 cheapest", "cheapest", 3},
	}
	for _, c := range cases {
		toks := nlp.Tag(nlp.Tokenize(c.q))
		a := &Analysis{Tokens: toks, Comparisons: FindComparisons(toks)}
		sup := -1
		for i, tk := range toks {
			if tk.Lower == c.sup {
				sup = i
			}
		}
		if got := LeadingK(a, sup); got != c.want {
			t.Errorf("LeadingK(%q) = %d, want %d", c.q, got, c.want)
		}
	}
}

func TestFirstColumns(t *testing.T) {
	cases := []struct {
		name          string
		cols          []sqldata.Column
		text, numeric string
	}{
		{"key skipped", []sqldata.Column{
			{Name: "ID", Type: sqldata.TypeInt, PrimaryKey: true},
			{Name: "Name", Type: sqldata.TypeText},
			{Name: "Price", Type: sqldata.TypeFloat},
			{Name: "Label", Type: sqldata.TypeText},
			{Name: "Stock", Type: sqldata.TypeInt},
		}, "name", "price"},
		{"only a key", []sqldata.Column{
			{Name: "id", Type: sqldata.TypeInt, PrimaryKey: true},
		}, "", ""},
		{"text key", []sqldata.Column{
			{Name: "code", Type: sqldata.TypeText, PrimaryKey: true},
			{Name: "qty", Type: sqldata.TypeInt},
		}, "code", "qty"},
	}
	for _, c := range cases {
		s := &sqldata.Schema{Name: "t", Columns: c.cols}
		if got := FirstTextColumn(s); got != c.text {
			t.Errorf("%s: FirstTextColumn = %q, want %q", c.name, got, c.text)
		}
		if got := FirstNumericColumn(s); got != c.numeric {
			t.Errorf("%s: FirstNumericColumn = %q, want %q", c.name, got, c.numeric)
		}
	}
}
