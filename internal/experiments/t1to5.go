package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"nlidb/internal/athena"
	"nlidb/internal/benchdata"
	"nlidb/internal/dataset"
	"nlidb/internal/eval"
	"nlidb/internal/hybridnl"
	"nlidb/internal/invindex"
	"nlidb/internal/keywordnl"
	"nlidb/internal/lexicon"
	"nlidb/internal/mlsql"
	"nlidb/internal/nlq"
	"nlidb/internal/parsenl"
	"nlidb/internal/patternnl"
	"nlidb/internal/resilient"
	"nlidb/internal/synth"
)

// interpreterSet builds the entity-based family over a domain, all over
// ix, the domain's one index. Every interpreter is wrapped in
// resilient.Safe so a panic in one engine surfaces as a per-query error
// instead of aborting the whole experiment.
func interpreterSet(d *benchdata.Domain, ix *invindex.Index, lex *lexicon.Lexicon) map[string]nlq.Interpreter {
	return map[string]nlq.Interpreter{
		"keyword": resilient.Safe(keywordnl.New(d.DB, ix)),
		"pattern": resilient.Safe(patternnl.New(d.DB, ix)),
		"parse":   resilient.Safe(parsenl.New(d.DB, ix)),
		"athena":  resilient.Safe(athena.New(d.DB, ix, lex)),
	}
}

// trainMLFor trains the sketch parser on a domain's synthetic corpus.
func trainMLFor(d *benchdata.Domain, lex *lexicon.Lexicon, seed int64, cfg mlsql.Config) (*mlsql.Model, error) {
	train := synth.TrainingSet(d, 400, 1, lex, seed)
	m, _, err := mlsql.Train([]*dataset.Set{train}, cfg)
	return m, err
}

// T1ComplexityCeiling reproduces Section 3's central claim: each
// interpreter family has a query-complexity ceiling — keyword systems stop
// at selection, pattern systems add single-table aggregation, parse-based
// systems add joins, and only ontology-driven (BI) systems reach nesting;
// learned single-table parsers sit at classes 1–2.
func T1ComplexityCeiling(seed int64) (*Table, error) {
	lex := lexicon.New()
	domains := benchdata.Domains(seed)

	order := []string{"keyword", "pattern", "mlsql", "quest", "parse", "athena"}
	classes := []nlq.Complexity{nlq.Simple, nlq.Aggregation, nlq.Join, nlq.Nested}
	agg := map[string]map[nlq.Complexity]*eval.Counts{}
	for _, name := range order {
		agg[name] = map[nlq.Complexity]*eval.Counts{}
		for _, c := range classes {
			agg[name][c] = &eval.Counts{}
		}
	}

	for di, d := range domains {
		set := &dataset.Set{Name: d.Name, DB: d.DB,
			Pairs: d.GeneratePairs(80, seed+int64(di)*31)}
		ix := invindex.Build(d.DB, lex)
		interps := interpreterSet(d, ix, lex)

		model, err := trainMLFor(d, lex, seed+int64(di), mlsql.DefaultConfig())
		if err != nil {
			return nil, err
		}
		interps["mlsql"] = resilient.Safe(mlsql.NewInterpreter(d.DB, model))

		history := d.GeneratePairs(150, seed+int64(di)*7+1, nlq.Simple, nlq.Aggregation, nlq.Join)
		quest, err := hybridnl.NewQuest(d.DB, ix, history)
		if err != nil {
			return nil, err
		}
		interps["quest"] = resilient.Safe(quest)

		for name, in := range interps {
			rep, err := eval.Evaluate(in, set)
			if err != nil {
				return nil, err
			}
			for _, c := range classes {
				if got := rep.ByClass[c]; got != nil {
					agg[name][c].Total += got.Total
					agg[name][c].Answered += got.Answered
					agg[name][c].Correct += got.Correct
					agg[name][c].Exact += got.Exact
				}
			}
		}
	}

	t := &Table{
		ID:     "T1",
		Title:  "Execution accuracy by query-complexity class and interpreter family",
		Claim:  "§3: keyword systems \"can only handle simple filter queries\"; pattern systems add aggregation; parse+schema systems add joins; only ontology-driven BI systems generate nested queries; learned single-table parsers stop at classes 1–2.",
		Header: []string{"interpreter", "simple", "aggregation", "join", "nested"},
	}
	for _, name := range order {
		row := []string{name}
		for _, c := range classes {
			row = append(row, pct(agg[name][c].Accuracy()))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"expected shape: accuracy is roughly monotone down each column and each family collapses past its ceiling class",
		fmt.Sprintf("5 domains × 80 questions, seed %d", seed))
	return t, nil
}

// T2Paraphrase reproduces §4.1/§4.2: entity-based systems are "highly
// sensitive to variations and paraphrasing of the user query"; ML-based
// systems are "robust to NL variations".
func T2Paraphrase(seed int64) (*Table, error) {
	lex := lexicon.New()
	d := benchdata.Sales(seed)

	// Single-table corpus (the classes every family can express).
	base := benchdata.WikiSQLStyle(d, 120, seed+5)

	ix := invindex.Build(d.DB, lex)
	interps := map[string]nlq.Interpreter{
		"keyword": keywordnl.New(d.DB, ix),
		"pattern": patternnl.New(d.DB, ix),
		"athena":  athena.New(d.DB, ix, lex),
	}
	// The learned parser trains WITH paraphrase augmentation (DBPal-style),
	// which is exactly where its robustness comes from.
	model, err := trainMLFor(d, lex, seed+9, mlsql.DefaultConfig())
	if err != nil {
		return nil, err
	}
	mlin := mlsql.NewInterpreter(d.DB, model)
	mlin.FixedTable = d.Main
	interps["mlsql"] = mlin

	strengths := []int{0, 1, 2, 3}
	t := &Table{
		ID:     "T2",
		Title:  "Execution accuracy under increasing paraphrase strength",
		Claim:  "§4.1: entity-based systems are \"highly sensitive to variations and paraphrasing\"; §4.2: ML approaches are \"robust to NL variations\".",
		Header: []string{"interpreter", "p=0", "p=1", "p=2", "p=3", "drop(0→3)"},
	}
	for _, name := range []string{"keyword", "pattern", "athena", "mlsql"} {
		in := interps[name]
		row := []string{name}
		var first, last float64
		for si, s := range strengths {
			r := rand.New(rand.NewSource(seed + int64(100*s)))
			para := &dataset.Set{Name: base.Name, DB: base.DB}
			for _, p := range base.Pairs {
				p.Question = synth.Paraphrase(p.Question, s, lex, r)
				para.Pairs = append(para.Pairs, p)
			}
			rep, err := eval.Evaluate(in, para)
			if err != nil {
				return nil, err
			}
			acc := rep.Overall.Accuracy()
			if si == 0 {
				first = acc
			}
			last = acc
			row = append(row, pct(acc))
		}
		row = append(row, pct(first-last))
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"expected shape: the mlsql row has the flattest curve (smallest drop); fixed cue lists degrade under comparison-phrase swaps and reordering",
		"paraphrase operators: synonym swap, politeness prefix, fillers, typos, comparison-phrase swap, determiner drop, clause reorder")
	return t, nil
}

// abstainer wraps an interpreter with a confidence threshold: readings
// below it are withheld. Entity-based production systems behave this way
// (they reject queries they cannot map confidently), and it is what gives
// them their precision profile.
type abstainer struct {
	inner     nlq.Interpreter
	threshold float64
}

func (a *abstainer) Name() string { return a.inner.Name() + "+abstain" }

func (a *abstainer) Interpret(q string) ([]nlq.Interpretation, error) {
	ins, err := a.inner.Interpret(q)
	if err != nil {
		return nil, err
	}
	best, err := nlq.Best(ins)
	if err != nil || best.Score < a.threshold {
		return nil, nlq.ErrNoInterpretation
	}
	return ins, nil
}

// T3PrecisionRecall reproduces §6 (Hybrid Approach): "entity-based
// approaches provide better accuracy (precision) while the ML-based
// approaches offer greater flexibility (recall)"; a hybrid should take
// the best of both.
func T3PrecisionRecall(seed int64) (*Table, error) {
	lex := lexicon.New()
	d := benchdata.Sales(seed)

	// Corpus: 120 heavily varied single-table questions (strengths 0–3)
	// plus 40 lightly varied join questions — the realistic mixture where
	// neither family dominates outright.
	base := benchdata.WikiSQLStyle(d, 120, seed+13)
	r := rand.New(rand.NewSource(seed + 17))
	set := &dataset.Set{Name: "mixed-variation", DB: d.DB}
	for i, p := range base.Pairs {
		p.Question = synth.Paraphrase(p.Question, i%4, lex, r)
		set.Pairs = append(set.Pairs, p)
	}
	for i, p := range d.GeneratePairs(40, seed+23, nlq.Join) {
		p.Question = synth.Paraphrase(p.Question, i%2, lex, r)
		set.Pairs = append(set.Pairs, p)
	}

	const tau = 0.8
	ix := invindex.Build(d.DB, lex)
	at := athena.New(d.DB, ix, lex)
	atAbstain := &abstainer{inner: at, threshold: tau}
	kwAbstain := &abstainer{inner: keywordnl.New(d.DB, ix), threshold: tau}
	model, err := trainMLFor(d, lex, seed+21, mlsql.DefaultConfig())
	if err != nil {
		return nil, err
	}
	ml := mlsql.NewInterpreter(d.DB, model) // routes tables itself
	hybrid := &hybridnl.Ensemble{Primary: at, Fallback: ml, Threshold: tau}

	interps := []nlq.Interpreter{kwAbstain, atAbstain, ml, hybrid}

	t := &Table{
		ID:     "T3",
		Title:  "Precision / recall / F1 on a heavily varied corpus (entity systems abstain below confidence 0.8)",
		Claim:  "§6: \"the entity-based approaches provide better accuracy [precision] while the machine learning-based approaches offer greater flexibility (recall)\"; hybrids should leverage the best of both.",
		Header: []string{"interpreter", "precision", "recall", "F1", "answered"},
	}
	for _, in := range interps {
		rep, err := eval.Evaluate(in, set)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			in.Name(),
			pct(rep.Overall.Precision()), pct(rep.Overall.Recall()),
			pct(rep.Overall.F1()),
			fmt.Sprintf("%d/%d", rep.Overall.Answered, rep.Overall.Total),
		})
	}
	t.Notes = append(t.Notes,
		"expected shape: the athena row leads the precision column; the mlsql row leads recall among single systems; the hybrid row has the top F1",
		"the hybrid answers with the entity reading when confident and falls back to the learned parser otherwise — the filtering strategy §4.3 describes")
	return t, nil
}

// T4TrainingCurve reproduces §4.2: ML systems "require large amounts of
// training data"; DBPal's synthetic generation with paraphrase
// augmentation substitutes for manual labelling.
func T4TrainingCurve(seed int64) (*Table, error) {
	lex := lexicon.New()
	d := benchdata.Sales(seed)
	test := benchdata.WikiSQLStyle(d, 100, seed+777)

	sizes := []int{10, 25, 50, 100, 200, 400}
	const repeats = 3 // average over training seeds to damp SGD variance
	t := &Table{
		ID:     "T4",
		Title:  "Learned-parser accuracy vs training-set size, with and without synthetic augmentation",
		Claim:  "§4.2: ML approaches \"require large amounts of training data, which makes the domain adaption challenging\"; DBPal bootstraps with synthetically generated training sets.",
		Header: []string{"train size", "accuracy", "accuracy (+2x synthetic aug)"},
	}
	for _, n := range sizes {
		row := []string{fmt.Sprintf("%d", n)}
		reps := repeats
		if n <= 50 {
			reps = 5 // small-sample training is noisier; average harder
		}
		for _, augment := range []int{0, 2} {
			var acc float64
			for rep := 0; rep < reps; rep++ {
				cfg := mlsql.DefaultConfig()
				cfg.Seed = seed + int64(n) + int64(augment) + int64(rep)*97
				train := synth.TrainingSet(d, n, augment, lex, seed+3+int64(rep))
				model, _, err := mlsql.Train([]*dataset.Set{train}, cfg)
				if err != nil {
					return nil, err
				}
				in := mlsql.NewInterpreter(d.DB, model)
				in.FixedTable = d.Main
				r, err := eval.Evaluate(in, test)
				if err != nil {
					return nil, err
				}
				acc += r.Overall.Accuracy()
			}
			row = append(row, pct(acc/float64(reps)))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"expected shape: accuracy climbs with size; the augmented column dominates the plain column at small sizes")
	return t, nil
}

// domainIdioms are domain-specific phrasings real users employ; each
// domain's questions are rewritten with its own idioms. They are what
// makes domain adaptation genuinely hard: an in-domain model sees them in
// training, a zero-shot model never does.
var domainIdioms = map[string][][2]string{
	"sales": {
		{" with credit over ", " worth upwards of "},
		{" with credit under ", " worth no more than "},
		{" with city ", " based in "},
		{" with segment ", " classified as "},
	},
	"movies": {
		{" with rating over ", " rated past "},
		{" with rating under ", " rated short of "},
		{" with gross over ", " grossing past "},
		{" with year over ", " released past "},
	},
	"hospital": {
		{" with salary over ", " earning upwards of "},
		{" with salary under ", " earning at best "},
		{" with experience over ", " practicing beyond "},
		{" with age over ", " aged past "},
	},
	"flights": {
		{" with price over ", " priced past "},
		{" with price under ", " priced within "},
		{" with distance over ", " spanning past "},
		{" with origin ", " departing "},
		{" with destination ", " landing in "},
	},
	"university": {
		{" with salary over ", " paid upwards of "},
		{" with tenure over ", " tenured beyond "},
		{" with enrollment over ", " enrolling past "},
		{" with credits over ", " crediting past "},
	},
}

// applyIdioms rewrites a question with its domain's idioms.
func applyIdioms(q, domain string) string {
	padded := " " + q + " "
	for _, sub := range domainIdioms[domain] {
		padded = strings.ReplaceAll(padded, sub[0], sub[1])
	}
	return strings.TrimSpace(padded)
}

// idiomatic rewrites a whole set (every pair) with the domain's idioms.
func idiomatic(set *dataset.Set, domain string) *dataset.Set {
	out := &dataset.Set{Name: set.Name + "+idioms", DB: set.DB}
	for _, p := range set.Pairs {
		p.Question = applyIdioms(p.Question, domain)
		out.Pairs = append(out.Pairs, p)
	}
	return out
}

// T5DomainAdaptation reproduces §4.2 vs §4.1: cross-domain transfer is the
// hard case for learned parsers, while entity-based systems only need the
// new domain's metadata.
func T5DomainAdaptation(seed int64) (*Table, error) {
	lex := lexicon.New()
	domains := benchdata.Domains(seed)

	t := &Table{
		ID:     "T5",
		Title:  "Held-out-domain accuracy: zero-shot learned parser vs in-domain learned parser vs ontology-driven",
		Claim:  "§4.2: for ML approaches \"domain adaption [is] challenging\"; §4.1: entity-based systems incorporate a new domain through its ontology/metadata alone.",
		Header: []string{"held-out domain", "mlsql zero-shot", "mlsql in-domain", "athena (no training)"},
	}
	const repeats = 2 // average over training seeds
	for hi, held := range domains {
		// Every domain speaks with its own idioms; the held-out test does
		// too. Zero-shot models have only seen *other* domains' idioms.
		test := idiomatic(benchdata.WikiSQLStyle(held, 80, seed+int64(hi)*101), held.Name)

		var zeroAcc, inAcc float64
		for rep := 0; rep < repeats; rep++ {
			cfg := mlsql.DefaultConfig()
			cfg.Seed = seed + int64(hi) + int64(rep)*131

			// Zero-shot: train on the other four domains (their idioms).
			var trainSets []*dataset.Set
			for di, d := range domains {
				if di == hi {
					continue
				}
				trainSets = append(trainSets,
					idiomatic(synth.TrainingSet(d, 250, 1, lex, seed+int64(di)*11+int64(rep)), d.Name))
			}
			zero, _, err := mlsql.Train(trainSets, cfg)
			if err != nil {
				return nil, err
			}
			zin := mlsql.NewInterpreter(held.DB, zero)
			zin.FixedTable = held.Main
			zrep, err := eval.Evaluate(zin, test)
			if err != nil {
				return nil, err
			}
			zeroAcc += zrep.Overall.Accuracy()

			// In-domain: train on the held-out domain itself (same idioms).
			train := idiomatic(synth.TrainingSet(held, 400, 1, lex, seed+int64(hi)+500+int64(rep)), held.Name)
			indom, _, err := mlsql.Train([]*dataset.Set{train}, cfg)
			if err != nil {
				return nil, err
			}
			iin := mlsql.NewInterpreter(held.DB, indom)
			iin.FixedTable = held.Main
			irep, err := eval.Evaluate(iin, test)
			if err != nil {
				return nil, err
			}
			inAcc += irep.Overall.Accuracy()
		}

		arep, err := eval.Evaluate(athena.New(held.DB, invindex.Build(held.DB, lex), lex), test)
		if err != nil {
			return nil, err
		}

		t.Rows = append(t.Rows, []string{
			held.Name,
			pct(zeroAcc / repeats),
			pct(inAcc / repeats),
			pct(arep.Overall.Accuracy()),
		})
	}
	t.Notes = append(t.Notes,
		"expected shape: zero-shot trails in-domain in every row; the athena column is uniformly high with zero training")
	return t, nil
}
