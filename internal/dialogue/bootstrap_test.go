package dialogue

import (
	"context"
	"strings"
	"testing"

	"nlidb/internal/benchdata"
	"nlidb/internal/invindex"
	"nlidb/internal/lexicon"
	"nlidb/internal/ontology"
)

func artifacts(t testing.TB) (*Artifacts, *benchdata.Domain) {
	t.Helper()
	d := benchdata.Sales(5)
	ont := ontology.FromDatabase(d.DB)
	return Bootstrap(d.DB, ont, 5), d
}

func TestBootstrapGeneratesIntentFamilies(t *testing.T) {
	a, _ := artifacts(t)
	names := map[string]bool{}
	for _, in := range a.Intents {
		names[in.Name] = true
		if len(in.Examples) == 0 {
			t.Errorf("intent %s has no examples", in.Name)
		}
	}
	for _, want := range []string{
		"lookup_customer", "aggregate_customer",
		"lookup_product", "aggregate_orders",
		"relate_orders_customer", "relate_product_category",
		"refine", "count_result",
	} {
		if !names[want] {
			t.Errorf("intent %s missing; have %v", want, keys(names))
		}
	}
}

func keys(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestBootstrapGeneratesEntities(t *testing.T) {
	a, d := artifacts(t)
	var cityEnt *EntityArtifact
	for i := range a.Entities {
		if a.Entities[i].Name == "customer_city" {
			cityEnt = &a.Entities[i]
		}
	}
	if cityEnt == nil {
		t.Fatalf("customer_city entity missing: %+v", a.Entities)
	}
	vals, err := d.DB.Table("customer").DistinctText("city")
	if err != nil || len(cityEnt.Values) != len(vals) {
		t.Errorf("entity values = %d, want %d", len(cityEnt.Values), len(vals))
	}
}

func TestBootstrapDeterministic(t *testing.T) {
	a1, _ := artifacts(t)
	a2, _ := artifacts(t)
	if len(a1.Intents) != len(a2.Intents) {
		t.Fatal("nondeterministic intent count")
	}
	for i := range a1.Intents {
		if strings.Join(a1.Intents[i].Examples, "|") != strings.Join(a2.Intents[i].Examples, "|") {
			t.Fatalf("nondeterministic examples for %s", a1.Intents[i].Name)
		}
	}
}

func TestIntentClassifierLearnsArtifacts(t *testing.T) {
	a, _ := artifacts(t)
	c, err := TrainIntentClassifier(a, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Held-out phrasings per family (not verbatim training examples).
	cases := []struct {
		utterance string
		want      string // intent prefix
	}{
		{"list the customers", "lookup_customer"},
		{"how many customers are there", "aggregate_customer"},
		{"number of products", "aggregate_product"},
		{"count them", "count_result"},
		{"only those with credit over 900", "refine"},
	}
	correct := 0
	for _, cse := range cases {
		got, p := c.Classify(cse.utterance)
		if strings.HasPrefix(got, cse.want) {
			correct++
		} else {
			t.Logf("Classify(%q) = %s (%.2f), want %s*", cse.utterance, got, p, cse.want)
		}
	}
	if correct < 4 {
		t.Errorf("intent classifier too weak: %d/%d", correct, len(cases))
	}
	if len(c.Intents()) != len(a.Intents) {
		t.Error("Intents() size mismatch")
	}
}

func TestAgentWithIntentModel(t *testing.T) {
	a, d := artifacts(t)
	cls, err := TrainIntentClassifier(a, 3)
	if err != nil {
		t.Fatal(err)
	}
	lex := lexicon.New()
	ix := invindex.Build(d.DB, lex)
	agent := NewAgent(ix, testBackend(d, ix, lex))
	agent.IntentModel = cls
	if _, err := agent.Respond(context.Background(), "show customers with city Berlin"); err != nil {
		t.Fatal(err)
	}
	// A refinement phrased without any rule opener: the statistical
	// classifier must catch it.
	r, err := agent.Respond(context.Background(), "those with credit over 20000")
	if err != nil {
		t.Fatalf("statistical refine failed: %v", err)
	}
	if r.SQL == nil || !containsStr(r.SQL.String(), "credit > 20000") {
		t.Fatalf("refine not applied: %v", r.SQL)
	}
	if !containsStr(r.SQL.String(), "Berlin") {
		t.Fatalf("context lost: %v", r.SQL)
	}
}

func containsStr(s, sub string) bool { return strings.Contains(s, sub) }

func TestTrainIntentClassifierEmpty(t *testing.T) {
	if _, err := TrainIntentClassifier(&Artifacts{}, 1); err == nil {
		t.Fatal("empty artifacts accepted")
	}
}
