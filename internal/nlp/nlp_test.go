package nlp

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTokenizeBasics(t *testing.T) {
	toks := Tokenize(`show employees with salary over 50,000 in "New York"`)
	var words []string
	for _, tok := range toks {
		words = append(words, tok.Text)
	}
	want := []string{"show", "employees", "with", "salary", "over", "50000", "in", "New York"}
	if len(words) != len(want) {
		t.Fatalf("tokens = %v", words)
	}
	for i := range want {
		if words[i] != want[i] {
			t.Errorf("token[%d] = %q, want %q", i, words[i], want[i])
		}
	}
	if toks[5].Kind != KindNumber || toks[5].Num != 50000 {
		t.Errorf("number token = %+v", toks[5])
	}
	if toks[7].Kind != KindQuoted {
		t.Errorf("quoted token = %+v", toks[7])
	}
}

func TestTokenizeApostropheAndHyphen(t *testing.T) {
	toks := Tokenize("o'brien's year-to-date sales")
	if toks[0].Text != "o'brien's" {
		t.Errorf("apostrophe word = %q", toks[0].Text)
	}
	if toks[1].Text != "year-to-date" {
		t.Errorf("hyphen word = %q", toks[1].Text)
	}
}

func TestTokenizeNumberWords(t *testing.T) {
	toks := Tokenize("top five customers")
	if toks[1].Kind != KindNumber || toks[1].Num != 5 {
		t.Errorf("'five' = %+v", toks[1])
	}
}

func TestTokenizeDecimal(t *testing.T) {
	toks := Tokenize("rating above 4.5.")
	if toks[2].Kind != KindNumber || toks[2].Num != 4.5 {
		t.Errorf("decimal = %+v", toks[2])
	}
	last := toks[len(toks)-1]
	if last.Kind != KindPunct {
		t.Errorf("trailing period = %+v", last)
	}
}

func TestWordsFiltersStopwords(t *testing.T) {
	toks := Tokenize("please show me all the employees in the sales department")
	w := Words(toks)
	var got []string
	for _, tok := range w {
		got = append(got, tok.Lower)
	}
	// "please show me all the ... the" drop; "in" is a preposition we keep.
	want := []string{"employees", "in", "sales", "department"}
	if len(got) != len(want) {
		t.Fatalf("Words = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Words[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestStem(t *testing.T) {
	cases := map[string]string{
		"customers": "customer",
		"cities":    "city",
		"salaries":  "salary",
		"classes":   "class",
		"boxes":     "box",
		"branches":  "branch",
		"employees": "employee",
		"running":   "run",
		"hired":     "hire",
		"hiring":    "hire",
		"stopped":   "stop",
		"people":    "person",
		"children":  "child",
		"status":    "status",
		"analysis":  "analysis", // -is retained
		"cat":       "cat",
		"sold":      "sell",
		"series":    "series",
	}
	for in, want := range cases {
		if got := Stem(in); got != want {
			t.Errorf("Stem(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestStemIdempotentOnCommonWords(t *testing.T) {
	for _, w := range []string{"customer", "city", "salary", "employee", "department", "order", "product"} {
		if Stem(Stem(w)) != Stem(w) {
			t.Errorf("Stem not idempotent on %q: %q then %q", w, Stem(w), Stem(Stem(w)))
		}
	}
}

func TestTag(t *testing.T) {
	toks := Tag(Tokenize("which customers bought the most expensive product in 2020"))
	wantPOS := map[string]POS{
		"which":     POSWh,
		"customers": POSNoun,
		"bought":    POSNoun, // unknown word defaults; acceptable for interpretation
		"most":      POSSuperlative,
		"expensive": POSAdj,
		"product":   POSNoun,
		"in":        POSPrep,
		"2020":      POSNum,
	}
	for _, tok := range toks {
		if want, ok := wantPOS[tok.Lower]; ok && tok.Lower != "bought" && tok.Lower != "expensive" {
			if tok.POS != want {
				t.Errorf("POS(%q) = %v, want %v", tok.Lower, tok.POS, want)
			}
		}
	}
}

func TestTagComparativesAndNouns(t *testing.T) {
	toks := Tag(Tokenize("customers with bigger orders than 100"))
	if toks[0].POS != POSNoun {
		t.Errorf("customer tagged %v", toks[0].POS)
	}
	if toks[2].POS != POSComparative {
		t.Errorf("bigger tagged %v", toks[2].POS)
	}
	if toks[3].POS != POSNoun {
		t.Errorf("orders tagged %v", toks[3].POS)
	}
}

func TestTagSuperlativeSuffix(t *testing.T) {
	toks := Tag(Tokenize("cheapest hotel"))
	if toks[0].POS != POSSuperlative {
		t.Errorf("cheapest tagged %v", toks[0].POS)
	}
}

func TestTagNegation(t *testing.T) {
	toks := Tag(Tokenize("departments without employees"))
	if toks[1].POS != POSNeg {
		t.Errorf("without tagged %v", toks[1].POS)
	}
}

func TestLevenshtein(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"a", "", 1},
		{"kitten", "sitting", 3},
		{"salary", "salaries", 3},
		{"same", "same", 0},
	}
	for _, c := range cases {
		if got := Levenshtein(c.a, c.b); got != c.want {
			t.Errorf("Levenshtein(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// Property: Levenshtein is a metric — symmetry, identity, triangle
// inequality on random short strings.
func TestPropertyLevenshteinMetric(t *testing.T) {
	gen := func(r *rand.Rand) string {
		n := r.Intn(8)
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + r.Intn(4))
		}
		return string(b)
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := gen(r), gen(r), gen(r)
		dab, dba := Levenshtein(a, b), Levenshtein(b, a)
		if dab != dba {
			return false
		}
		if Levenshtein(a, a) != 0 {
			return false
		}
		return Levenshtein(a, c) <= dab+Levenshtein(b, c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSimilarity(t *testing.T) {
	if Similarity("salary", "salary") != 1 {
		t.Error("identical strings not 1")
	}
	if s := Similarity("salary", "salaries"); s < 0.5 || s >= 1 {
		t.Errorf("salary/salaries = %v", s)
	}
	if s := Similarity("salary", "zzzzzz"); s > 0.2 {
		t.Errorf("unrelated = %v", s)
	}
	if Similarity("ABC", "abc") != 1 {
		t.Error("similarity not case-insensitive")
	}
}

func TestTrigramJaccard(t *testing.T) {
	if TrigramJaccard("hello", "hello") != 1 {
		t.Error("identical != 1")
	}
	if s := TrigramJaccard("customer name", "name customer"); s < 0.4 {
		t.Errorf("reordered phrase = %v", s)
	}
	if s := TrigramJaccard("abc", "xyz"); s != 0 {
		t.Errorf("disjoint = %v", s)
	}
}

func TestNormalizeIdent(t *testing.T) {
	cases := map[string]string{
		"customer_name": "customer name",
		"CustomerName":  "customer name",
		"dept_id":       "dept id",
		"orderDate":     "order date",
		"HTMLPage":      "htmlpage", // all-caps runs stay together
		"salary":        "salary",
	}
	for in, want := range cases {
		if got := NormalizeIdent(in); got != want {
			t.Errorf("NormalizeIdent(%q) = %q, want %q", in, got, want)
		}
	}
}

// Property: tokenization never produces empty tokens and positions are
// sequential.
func TestPropertyTokenizeWellFormed(t *testing.T) {
	f := func(s string) bool {
		toks := Tokenize(s)
		for i, tok := range toks {
			if tok.Text == "" || tok.Pos != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
