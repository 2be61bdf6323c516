package dialogue

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"nlidb/internal/neural"
	"nlidb/internal/nlp"
	"nlidb/internal/ontology"
	"nlidb/internal/sqldata"
)

// This file implements the ontology-driven conversation bootstrap of
// Quamar et al. (SIGMOD 2020), as presented in §5 of the survey: the
// domain ontology is mapped against expected workload patterns to
// generate the artifacts a conversation platform needs — intents,
// training examples for each intent, and entity value lists — "to
// minimize the required manual labor" of setting up a domain-specific
// conversational interface. A compact neural intent classifier trained on
// the generated examples demonstrates the artifacts are sufficient.

// IntentArtifact is one generated intent with its training utterances.
type IntentArtifact struct {
	// Name follows the pattern family: lookup_<concept>,
	// aggregate_<concept>, relate_<child>_<parent>, refine, count_result.
	Name string
	// Examples are generated training utterances.
	Examples []string
}

// EntityArtifact is one generated entity with its value list.
type EntityArtifact struct {
	// Name is "<concept>_<property>".
	Name string
	// Values are the distinct data values.
	Values []string
}

// Artifacts is the full bootstrap output.
type Artifacts struct {
	Intents  []IntentArtifact
	Entities []EntityArtifact
}

// Bootstrap generates conversation artifacts from a database + ontology.
// Generation is seeded and deterministic.
func Bootstrap(db *sqldata.Database, ont *ontology.Ontology, seed int64) *Artifacts {
	r := rand.New(rand.NewSource(seed))
	a := &Artifacts{}

	for _, c := range ont.Concepts() {
		cname := strings.ToLower(c.Name)
		pl := nlp.Pluralize(cname)
		tbl := db.Table(c.Table)

		// lookup_<concept>: selection questions.
		lookup := IntentArtifact{Name: "lookup_" + identifier(cname)}
		lookup.Examples = append(lookup.Examples,
			"show "+pl, "list all "+pl, "which "+pl+" are there")
		var textProps, numProps []ontology.Property
		for _, p := range c.Properties {
			if strings.EqualFold(p.Column, "id") {
				continue
			}
			switch {
			case p.Type == sqldata.TypeText:
				textProps = append(textProps, p)
			case p.Type.Numeric():
				numProps = append(numProps, p)
			}
		}
		for _, p := range textProps {
			if tbl == nil {
				continue
			}
			vals, err := tbl.DistinctText(p.Column)
			if err != nil || len(vals) == 0 {
				continue
			}
			v := vals[r.Intn(len(vals))]
			lookup.Examples = append(lookup.Examples,
				fmt.Sprintf("%s with %s %s", pl, p.Name, v),
				fmt.Sprintf("list %s whose %s is %s", pl, p.Name, v))
			a.Entities = append(a.Entities, EntityArtifact{
				Name:   identifier(cname) + "_" + identifier(p.Name),
				Values: vals,
			})
		}
		for _, p := range numProps {
			lookup.Examples = append(lookup.Examples,
				fmt.Sprintf("%s with %s over 100", pl, p.Name),
				fmt.Sprintf("show %s with %s under 50", pl, p.Name))
		}
		a.Intents = append(a.Intents, lookup)

		// aggregate_<concept>: counting and statistics.
		agg := IntentArtifact{Name: "aggregate_" + identifier(cname)}
		agg.Examples = append(agg.Examples,
			"how many "+pl+" are there", "count the "+pl, "number of "+pl)
		for _, p := range numProps {
			agg.Examples = append(agg.Examples,
				fmt.Sprintf("what is the average %s of %s", p.Name, pl),
				fmt.Sprintf("total %s of %s", p.Name, pl),
				fmt.Sprintf("highest %s of %s", p.Name, pl))
		}
		a.Intents = append(a.Intents, agg)
	}

	// relate_<from>_<to>: relationship traversal intents.
	for _, rel := range ont.Relationships {
		from, to := ont.Concept(rel.From), ont.Concept(rel.To)
		if from == nil || to == nil {
			continue
		}
		ri := IntentArtifact{
			Name: fmt.Sprintf("relate_%s_%s", identifier(from.Name), identifier(to.Name)),
		}
		toPl := nlp.Pluralize(strings.ToLower(to.Name))
		fromPl := nlp.Pluralize(strings.ToLower(from.Name))
		ri.Examples = append(ri.Examples,
			fmt.Sprintf("%s of the %s", fromPl, strings.ToLower(to.Name)),
			fmt.Sprintf("%s per %s", fromPl, strings.ToLower(to.Name)),
			fmt.Sprintf("%s without %s", toPl, fromPl))
		if tblTo := db.Table(to.Table); tblTo != nil {
			if idp := to.IdentifyingProperty(); idp != nil {
				if vals, err := tblTo.DistinctText(idp.Column); err == nil && len(vals) > 0 {
					v := vals[r.Intn(len(vals))]
					ri.Examples = append(ri.Examples,
						fmt.Sprintf("%s of the %s %s", fromPl, strings.ToLower(to.Name), v))
				}
			}
		}
		a.Intents = append(a.Intents, ri)
	}

	// Context intents shared across domains.
	a.Intents = append(a.Intents,
		IntentArtifact{Name: "refine", Examples: []string{
			"only those with price over 10", "just the big ones",
			"filter to the first kind", "keep the ones with value under 5",
			"restrict to those with size over 3",
		}},
		IntentArtifact{Name: "count_result", Examples: []string{
			"how many are there", "count them", "how many of those",
		}},
	)

	sort.Slice(a.Intents, func(i, j int) bool { return a.Intents[i].Name < a.Intents[j].Name })
	sort.Slice(a.Entities, func(i, j int) bool { return a.Entities[i].Name < a.Entities[j].Name })
	return a
}

func identifier(s string) string {
	return strings.ReplaceAll(strings.ToLower(strings.TrimSpace(s)), " ", "_")
}

// IntentClassifier is a neural classifier trained on bootstrap artifacts,
// demonstrating Quamar et al.'s point that generated artifacts suffice to
// stand up intent recognition without manual labelling.
type IntentClassifier struct {
	names []string
	mlp   *neural.MLP
}

const intentFeatDim = 160

func intentFeatures(utterance string) []float64 {
	f := make([]float64, intentFeatDim)
	toks := nlp.Tokenize(utterance)
	prev := ""
	for _, t := range toks {
		if t.Kind == nlp.KindPunct {
			continue
		}
		f[hash32("u:"+t.Stem)%intentFeatDim]++
		if prev != "" {
			f[hash32("b:"+prev+"_"+t.Stem)%intentFeatDim]++
		}
		prev = t.Stem
	}
	var norm float64
	for _, v := range f {
		norm += v * v
	}
	if norm > 0 {
		inv := 1 / math.Sqrt(norm)
		for i := range f {
			f[i] *= inv
		}
	}
	return f
}

func hash32(s string) int {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return int(h & 0x7fffffff)
}

// TrainIntentClassifier fits a classifier on the generated artifacts.
func TrainIntentClassifier(a *Artifacts, seed int64) (*IntentClassifier, error) {
	if len(a.Intents) == 0 {
		return nil, fmt.Errorf("dialogue: no intents to train on")
	}
	rng := rand.New(rand.NewSource(seed))
	var xs [][]float64
	var ys []int
	names := make([]string, 0, len(a.Intents))
	for i, in := range a.Intents {
		names = append(names, in.Name)
		for _, ex := range in.Examples {
			xs = append(xs, intentFeatures(ex))
			ys = append(ys, i)
		}
	}
	mlp := neural.NewMLP(rng, intentFeatDim, 32, len(names))
	mlp.Fit(rng, xs, ys, 120, 8, 0.2, 0.9)
	return &IntentClassifier{names: names, mlp: mlp}, nil
}

// Classify returns the most likely intent name with its probability.
func (c *IntentClassifier) Classify(utterance string) (string, float64) {
	probs := c.mlp.Probs(intentFeatures(utterance))
	best, bi := -1.0, 0
	for i, p := range probs {
		if p > best {
			best, bi = p, i
		}
	}
	return c.names[bi], best
}

// Intents lists the classifier's intent names.
func (c *IntentClassifier) Intents() []string { return append([]string(nil), c.names...) }
