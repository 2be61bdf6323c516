package autocomplete

import (
	"strings"
	"testing"

	"nlidb/internal/benchdata"
	"nlidb/internal/invindex"
	"nlidb/internal/lexicon"
	"nlidb/internal/ontology"
)

func completer(t testing.TB) *Completer {
	t.Helper()
	d := benchdata.Sales(1)
	return New(d.DB, ontology.FromDatabase(d.DB), invindex.Build(d.DB, lexicon.New()))
}

func texts(ss []Suggestion) []string {
	out := make([]string, len(ss))
	for i, s := range ss {
		out[i] = s.Text
	}
	return out
}

func contains(ss []Suggestion, text string) bool {
	for _, s := range ss {
		if s.Text == text {
			return true
		}
	}
	return false
}

func TestEmptyPrefixSuggestsConcepts(t *testing.T) {
	c := completer(t)
	ss := c.Suggest("", 10)
	if len(ss) == 0 {
		t.Fatal("no suggestions")
	}
	if !contains(ss, "customers") || !contains(ss, "products") {
		t.Errorf("concepts missing: %v", texts(ss))
	}
	if !contains(ss, "how many") {
		t.Errorf("aggregate opener missing: %v", texts(ss))
	}
}

func TestCentralityRanksHubConceptsFirst(t *testing.T) {
	c := completer(t)
	ss := c.Suggest("", 20)
	// orders has two relationships (customer, product) → highest degree.
	pos := map[string]int{}
	for i, s := range ss {
		pos[s.Text] = i
	}
	if pos["orders"] > pos["categories"] {
		t.Errorf("hub concept not ranked above leaf: %v", texts(ss))
	}
}

func TestAfterConceptSuggestsFiltersAndRelationships(t *testing.T) {
	c := completer(t)
	ss := c.Suggest("customers", 10)
	if !contains(ss, "with") {
		t.Errorf("'with' missing: %v", texts(ss))
	}
	found := false
	for _, s := range ss {
		if strings.HasPrefix(s.Text, "without ") {
			found = true
		}
	}
	if !found {
		t.Errorf("relationship completions missing: %v", texts(ss))
	}
}

func TestAfterWithSuggestsProperties(t *testing.T) {
	c := completer(t)
	ss := c.Suggest("customers with", 10)
	if !contains(ss, "city") || !contains(ss, "credit") {
		t.Errorf("properties missing: %v", texts(ss))
	}
	for _, s := range ss {
		if s.Text == "id" {
			t.Error("id suggested as filter")
		}
	}
}

func TestAfterTextPropertySuggestsValues(t *testing.T) {
	c := completer(t)
	ss := c.Suggest("customers with city", 10)
	if !contains(ss, "Berlin") {
		t.Errorf("values missing: %v", texts(ss))
	}
	for _, s := range ss {
		if s.Kind != "value" {
			t.Errorf("non-value suggestion %+v", s)
		}
	}
}

func TestAfterNumericPropertySuggestsComparisons(t *testing.T) {
	c := completer(t)
	ss := c.Suggest("customers with credit", 10)
	if !contains(ss, "over") || !contains(ss, "between") {
		t.Errorf("comparisons missing: %v", texts(ss))
	}
}

func TestAfterComparativeSuggestsNumberOrAggregate(t *testing.T) {
	c := completer(t)
	ss := c.Suggest("customers with credit over", 10)
	if !contains(ss, "<number>") {
		t.Errorf("number placeholder missing: %v", texts(ss))
	}
	if !contains(ss, "the average credit") {
		t.Errorf("nested aggregate completion missing: %v", texts(ss))
	}
}

func TestCompletedComparisonMovesOn(t *testing.T) {
	c := completer(t)
	ss := c.Suggest("customers with credit over 5000", 10)
	// The comparison is complete; we should be back to clause-level
	// suggestions, not numbers.
	if contains(ss, "<number>") {
		t.Errorf("stale comparison state: %v", texts(ss))
	}
}

func TestLimitRespected(t *testing.T) {
	c := completer(t)
	if got := len(c.Suggest("", 3)); got != 3 {
		t.Errorf("limit ignored: %d", got)
	}
	if got := len(c.Suggest("", 0)); got == 0 || got > 8 {
		t.Errorf("default limit wrong: %d", got)
	}
}

func TestDeterministic(t *testing.T) {
	c := completer(t)
	a := texts(c.Suggest("customers with", 8))
	b := texts(c.Suggest("customers with", 8))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic: %v vs %v", a, b)
		}
	}
}
