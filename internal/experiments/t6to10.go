package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"nlidb/internal/athena"
	"nlidb/internal/benchdata"
	"nlidb/internal/dataset"
	"nlidb/internal/dialogue"
	"nlidb/internal/eval"
	"nlidb/internal/invindex"
	"nlidb/internal/lexicon"
	"nlidb/internal/mlsql"
	"nlidb/internal/nlq"
	"nlidb/internal/parsenl"
	"nlidb/internal/resilient"
	"nlidb/internal/schemagraph"
	"nlidb/internal/sqlexec"
	"nlidb/internal/sqlparse"
	"nlidb/internal/synth"
)

// T6Dialogue reproduces §5: context persistence enables follow-ups, and
// the three dialogue-manager families form a flexibility ladder —
// rule-based (finite-state) < frame-based < agent-based.
func T6Dialogue(seed int64) (*Table, error) {
	lex := lexicon.New()
	t := &Table{
		ID:     "T6",
		Title:  "Turn-level accuracy by dialogue-manager family and follow-up kind",
		Claim:  "§5: finite-state managers \"restrict user input to predetermined words and phrases\"; frame-based systems allow more flexible slot filling; \"agent-based systems are able to manage complex dialogues\" and are the most flexible.",
		Header: []string{"manager", "full", "refine", "aggregate", "shift", "overall"},
	}

	kinds := []dataset.TurnKind{dataset.TurnFull, dataset.TurnRefine, dataset.TurnAggregate, dataset.TurnShift}
	sum := map[string]map[dataset.TurnKind]*eval.Counts{}
	overall := map[string]*eval.Counts{}
	order := []string{"finite-state", "frame", "agent"}
	for _, n := range order {
		sum[n] = map[dataset.TurnKind]*eval.Counts{}
		for _, k := range kinds {
			sum[n][k] = &eval.Counts{}
		}
		overall[n] = &eval.Counts{}
	}

	for di, d := range []*benchdata.Domain{benchdata.Sales(seed), benchdata.Hospital(seed + 2)} {
		cs := benchdata.Conversations(d, 15, seed+int64(di)*41)
		// Agent flexibility shows when follow-ups are phrased freely:
		// paraphrase shift turns lightly.
		r := rand.New(rand.NewSource(seed + int64(di)))
		for ci := range cs.Conversations {
			for ti := range cs.Conversations[ci].Turns {
				turn := &cs.Conversations[ci].Turns[ti]
				if turn.Kind == dataset.TurnShift && r.Intn(2) == 0 {
					turn.Utterance = strings.Replace(turn.Utterance, "show their", "what about their", 1)
				}
			}
		}
		ix := invindex.Build(d.DB, lex)
		// Every manager reads full questions through athena alone, with no
		// simplified retry: the table compares the managers, not the chain.
		back := resilient.New(d.DB, []nlq.Interpreter{athena.New(d.DB, ix, lex)}, resilient.Config{NoTrace: true, NoRetry: true})
		mgrs := []dialogue.Manager{
			dialogue.NewFiniteState(back),
			dialogue.NewFrame(ix, back),
			dialogue.NewAgent(ix, back),
		}
		for _, m := range mgrs {
			rep, err := eval.EvaluateConversations(m, cs)
			if err != nil {
				return nil, err
			}
			for _, k := range kinds {
				if c := rep.ByKind[k]; c != nil {
					sum[m.Name()][k].Total += c.Total
					sum[m.Name()][k].Answered += c.Answered
					sum[m.Name()][k].Correct += c.Correct
				}
			}
			overall[m.Name()].Total += rep.Overall.Total
			overall[m.Name()].Correct += rep.Overall.Correct
		}
	}

	for _, n := range order {
		row := []string{n}
		for _, k := range kinds {
			row = append(row, pct(sum[n][k].Accuracy()))
		}
		row = append(row, pct(overall[n].Accuracy()))
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"expected shape: each row dominates the one above; finite-state scores 0 on every context-dependent column",
		"half the shift turns are paraphrased (\"what about their …\"), which only the agent family resolves")
	return t, nil
}

// T7Feedback reproduces the NaLIR/DialSQL interaction claim: user feedback
// over ranked hypotheses repairs ambiguous interpretations.
func T7Feedback(seed int64) (*Table, error) {
	lex := lexicon.New()
	d := benchdata.Airports(seed)
	eng := sqlexec.New(d.DB)

	// Ambiguous corpus: the value names an airport; the question does not
	// say whether it is the origin or the destination. Gold: origin.
	type item struct {
		q    string
		gold *sqlparse.SelectStmt
	}
	var items []item
	names, err := d.DB.Table("airport").DistinctText("name")
	if err != nil {
		return nil, err
	}
	for _, n := range names {
		gold := sqlparse.MustParse(fmt.Sprintf(
			"SELECT hop.code FROM hop JOIN airport ON hop.origin_id = airport.id WHERE airport.name = '%s'", n))
		items = append(items, item{q: fmt.Sprintf("hops of the airport %s", n), gold: gold})
	}

	in := parsenl.New(d.DB, invindex.Build(d.DB, lex))
	evalRounds := func(rounds int) (float64, float64, error) {
		correct, asked := 0, 0
		for _, it := range items {
			goldRes, err := eng.Run(it.gold)
			if err != nil {
				return 0, 0, err
			}
			ins, err := in.Interpret(it.q)
			if err != nil || len(ins) == 0 {
				continue
			}
			pick := ins[0]
			if rounds > 0 && len(ins) > 1 {
				u, err := dialogue.NewUserSim(d.DB, it.gold)
				if err != nil {
					return 0, 0, err
				}
				idx := u.Choose(ins)
				asked += u.Interactions
				pick = ins[idx]
			}
			res, err := eng.Run(pick.SQL)
			if err != nil {
				continue
			}
			if res.EqualUnordered(goldRes) {
				correct++
			}
		}
		return float64(correct) / float64(len(items)), float64(asked) / float64(len(items)), nil
	}

	t := &Table{
		ID:     "T7",
		Title:  "Accuracy on ambiguous questions with and without a clarification round",
		Claim:  "§4.1/§4.2: NaLIR clarifies ambiguous mappings with the user; DialSQL \"leverages human intelligence to boost the performance of existing algorithms via user interaction\".",
		Header: []string{"feedback", "accuracy", "user questions per query"},
	}
	a0, q0, err := evalRounds(0)
	if err != nil {
		return nil, err
	}
	a1, q1, err := evalRounds(1)
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows,
		[]string{"none (top-1)", pct(a0), fmt.Sprintf("%.2f", q0)},
		[]string{"1 clarification round", pct(a1), fmt.Sprintf("%.2f", q1)},
	)
	t.Notes = append(t.Notes,
		"the corpus is built to be structurally ambiguous: every question admits an origin- and a destination-join reading",
		"expected shape: the clarification row is strictly higher, at the cost of one user question per query")
	return t, nil
}

// T8Datasets reproduces §6's benchmark-landscape discussion by generating
// each dataset style and tabulating its profile next to the cited numbers.
func T8Datasets(seed int64) (*Table, error) {
	domains := benchdata.Domains(seed)

	wiki := benchdata.WikiSQLStyle(domains[0], 300, seed)
	wikiStats := wiki.ComputeStats()

	spiderSets := benchdata.SpiderStyle(domains, 20, seed)
	var spider dataset.Stats
	spider.PerClass = map[nlq.Complexity]int{}
	tables := 0
	var tblSum float64
	for _, s := range spiderSets {
		st := s.ComputeStats()
		spider.Pairs += st.Pairs
		tables += st.Tables
		for k, v := range st.PerClass {
			spider.PerClass[k] += v
		}
		tblSum += st.AvgPerPair * float64(st.Pairs)
	}
	spider.Tables = tables
	if spider.Pairs > 0 {
		spider.AvgPerPair = tblSum / float64(spider.Pairs)
	}

	convTurns, convs := 0, 0
	for di, d := range domains {
		cs := benchdata.Conversations(d, 12, seed+int64(di)*3)
		convs += len(cs.Conversations)
		convTurns += cs.TotalTurns()
	}

	classMix := func(st dataset.Stats) string {
		return fmt.Sprintf("S%d/A%d/J%d/N%d",
			st.PerClass[nlq.Simple], st.PerClass[nlq.Aggregation],
			st.PerClass[nlq.Join], st.PerClass[nlq.Nested])
	}

	t := &Table{
		ID:     "T8",
		Title:  "Generated benchmark profiles vs the datasets the survey cites",
		Claim:  "§6: WikiSQL (80,654 pairs, 24,241 tables, low complexity), Spider (cross-domain, joins+nesting), SParC (4k+ coherent question sequences), CoSQL (30k+ turns) define the evaluation landscape.",
		Header: []string{"corpus style", "pairs/turns", "tables", "class mix (S/A/J/N)", "avg tables per query"},
	}
	t.Rows = append(t.Rows,
		[]string{"wikisql-style", fmt.Sprintf("%d", wikiStats.Pairs), fmt.Sprintf("%d", 1),
			classMix(wikiStats), fmt.Sprintf("%.2f", wikiStats.AvgPerPair)},
		[]string{"spider-style", fmt.Sprintf("%d", spider.Pairs), fmt.Sprintf("%d", spider.Tables),
			classMix(spider), fmt.Sprintf("%.2f", spider.AvgPerPair)},
		[]string{"sparc-style", fmt.Sprintf("%d turns / %d convs", convTurns, convs), "-", "-", "-"},
	)
	t.Notes = append(t.Notes,
		"the generators reproduce each dataset's *profile* (single-table & simple vs cross-domain & stratified vs multi-turn), scaled down for a laptop",
		"cited real sizes: WikiSQL 80,654 pairs / 24,241 tables; WikiTableQuestions 22,033 questions / 2,108 tables; SParC 4,000+ sequences / 200 DBs; CoSQL 30k+ turns")
	return t, nil
}

// T9Relaxation reproduces Lei et al. (2020) as the survey presents it:
// query relaxation over external lexical knowledge closes the gap between
// colloquial user vocabulary and KB terms.
func T9Relaxation(seed int64) (*Table, error) {
	d := benchdata.Medical(seed)
	lex := lexicon.New()
	// Domain taxonomy: colloquial/hyponym vocabulary → KB terms.
	lex.AddHypernym("statin", "drug")
	lex.AddHypernym("painkiller", "drug")
	lex.AddHypernym("sedative", "drug")
	lex.AddSynonyms("ailment", "condition")
	lex.AddHypernym("hypertension", "condition")
	lex.AddHypernym("diabetes", "condition")

	eng := sqlexec.New(d.DB)
	type item struct {
		q, kind string
		gold    string
	}
	items := []item{
		// Exact vocabulary.
		{"drugs with price over 100", "exact", "SELECT name FROM drug WHERE price > 100"},
		{"how many patients are there", "exact", "SELECT COUNT(*) FROM patient"},
		{"conditions with severity over 5", "exact", "SELECT name FROM condition WHERE severity > 5"},
		// Synonym vocabulary (index synonym tier).
		{"medications with price over 100", "synonym", "SELECT name FROM drug WHERE price > 100"},
		{"medicines with cost under 50", "synonym", "SELECT name FROM drug WHERE price < 50"},
		{"ailments with severity over 5", "synonym", "SELECT name FROM condition WHERE severity > 5"},
		// Hyponym/colloquial vocabulary: the gapped term is the only
		// route to the table, and the relaxed answer is the expanded set
		// (Lei et al.'s "expanding query answers").
		{"list all statins", "relaxed", "SELECT name FROM drug"},
		{"show the painkillers", "relaxed", "SELECT name FROM drug"},
		{"list the sedatives", "relaxed", "SELECT name FROM drug"},
	}

	ix := invindex.Build(d.DB, lex)
	evalMode := func(relax bool, kind string) (int, int, error) {
		in := athena.New(d.DB, ix, lex)
		in.Relax = relax
		total, correct := 0, 0
		for _, it := range items {
			if it.kind != kind {
				continue
			}
			total++
			goldRes, err := eng.RunSQL(it.gold)
			if err != nil {
				return 0, 0, err
			}
			ins, err := in.Interpret(it.q)
			if err != nil {
				continue
			}
			best, _ := nlq.Best(ins)
			res, err := eng.Run(best.SQL)
			if err != nil {
				continue
			}
			if res.EqualUnordered(goldRes) {
				correct++
			}
		}
		return correct, total, nil
	}

	t := &Table{
		ID:     "T9",
		Title:  "Medical-KB accuracy by vocabulary gap, with relaxation on and off",
		Claim:  "§4.1: Lei et al.'s relaxation \"fills the gap between the terms stored in the KBs and the colloquial and imprecise terminology used in user queries\".",
		Header: []string{"vocabulary", "relaxation off", "relaxation on"},
	}
	for _, kind := range []string{"exact", "synonym", "relaxed"} {
		row := []string{kind}
		for _, relax := range []bool{false, true} {
			c, n, err := evalMode(relax, kind)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%d/%d", c, n))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"expected shape: the relaxed-vocabulary row flips from ~0 to high when relaxation is enabled; exact/synonym rows are unaffected")
	return t, nil
}

// T10QueryLog reproduces TEMPLAR (§3): priors mined from a SQL query log
// repair join-path inference when the schema admits several readings.
func T10QueryLog(seed int64) (*Table, error) {
	lex := lexicon.New()
	d := benchdata.Airports(seed)
	eng := sqlexec.New(d.DB)

	names, err := d.DB.Table("airport").DistinctText("name")
	if err != nil {
		return nil, err
	}

	ix := invindex.Build(d.DB, lex)
	run := func(applyLog bool) (float64, error) {
		in := parsenl.New(d.DB, ix)
		if applyLog {
			// The workload log: users historically join through origin.
			var log []*sqlparse.SelectStmt
			for i := 0; i < 10; i++ {
				log = append(log, sqlparse.MustParse(
					"SELECT hop.code FROM hop JOIN airport ON hop.origin_id = airport.id WHERE airport.city = 'Berlin'"))
			}
			in.Graph().ApplyQueryLog(log, 0.5, 0.05)
		}
		correct := 0
		for _, n := range names {
			gold, err := eng.RunSQL(fmt.Sprintf(
				"SELECT hop.code FROM hop JOIN airport ON hop.origin_id = airport.id WHERE airport.name = '%s'", n))
			if err != nil {
				return 0, err
			}
			ins, err := in.Interpret(fmt.Sprintf("hops of the airport %s", n))
			if err != nil {
				continue
			}
			best, _ := nlq.Best(ins)
			res, err := eng.Run(best.SQL)
			if err != nil {
				continue
			}
			if res.EqualUnordered(gold) {
				correct++
			}
		}
		return float64(correct) / float64(len(names)), nil
	}

	t := &Table{
		ID:     "T10",
		Title:  "Join-path inference accuracy with and without query-log priors",
		Claim:  "§3: TEMPLAR \"leverages information from the SQL query log to improve keyword mapping and join path inference\".",
		Header: []string{"configuration", "accuracy"},
	}
	off, err := run(false)
	if err != nil {
		return nil, err
	}
	on, err := run(true)
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows,
		[]string{"no priors (structural tie-break)", pct(off)},
		[]string{"query-log priors (TEMPLAR-style)", pct(on)},
	)
	t.Notes = append(t.Notes,
		"the schema has two foreign keys from hop to airport; without priors the tie-break is arbitrary and wrong for the origin-reading workload",
		fmt.Sprintf("graph: %d tables", len(schemagraph.Build(d.DB).Tables())))
	return t, nil
}

// A1SketchVsSeq is the SQLNet-vs-Seq2SQL ablation (§4.2): a set ("sketch")
// decoder for WHERE clauses beats an order-sensitive decoder when
// condition order in the training data carries no signal.
func A1SketchVsSeq(seed int64) (*Table, error) {
	lex := lexicon.New()
	d := benchdata.Sales(seed)

	// Test corpus: multi-condition questions, where condition order is the
	// thing under test.
	raw := benchdata.WikiSQLStyle(d, 400, seed+88)
	test := &dataset.Set{Name: "two-cond", DB: d.DB}
	for _, p := range raw.Pairs {
		if strings.Contains(p.SQL.String(), " AND ") {
			test.Pairs = append(test.Pairs, p)
		}
		if len(test.Pairs) == 80 {
			break
		}
	}

	const repeats = 3
	t := &Table{
		ID:     "A1",
		Title:  "Ablation: order-free sketch decoding vs Seq2SQL-style ordered decoding on multi-condition questions",
		Claim:  "§4.2: SQLNet \"fundamentally avoids the sequence-to-sequence structure when ordering does not matter in SQL query conditions\".",
		Header: []string{"decoder", "execution accuracy (2-condition questions)"},
	}
	for _, ordered := range []bool{false, true} {
		var acc float64
		for rep := 0; rep < repeats; rep++ {
			cfg := mlsql.DefaultConfig()
			cfg.Ordered = ordered
			cfg.Seed = seed + int64(rep)*53
			train := synth.TrainingSet(d, 400, 1, lex, seed+5+int64(rep))
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
		name := "sketch (SQLNet-style)"
		if ordered {
			name = "ordered (Seq2SQL-style)"
		}
		t.Rows = append(t.Rows, []string{name, pct(acc / repeats)})
	}
	t.Notes = append(t.Notes,
		"two-condition training questions randomize condition order in both NL and gold, so position-specific operator decoders receive contradictory supervision",
		"expected shape: the sketch row is at or above the ordered row")
	return t, nil
}

// A2TypeFeatures is the TypeSQL ablation (§4.2): type-aware features help
// the model understand entities and numbers.
func A2TypeFeatures(seed int64) (*Table, error) {
	lex := lexicon.New()
	domains := benchdata.Domains(seed)
	held := domains[len(domains)-1] // university
	test := benchdata.WikiSQLStyle(held, 80, seed+88)

	const repeats = 3
	t := &Table{
		ID:     "A2",
		Title:  "Ablation: TypeSQL-style typed feature channel, evaluated zero-shot on a held-out domain",
		Claim:  "§4.2: TypeSQL \"utiliz[es] types extracted from either knowledge graph or table content to help [the] model better understand entities and numbers in the question\".",
		Header: []string{"features", "held-out-domain execution accuracy"},
	}
	for _, typed := range []bool{true, false} {
		var acc float64
		for rep := 0; rep < repeats; rep++ {
			cfg := mlsql.DefaultConfig()
			cfg.TypeFeatures = typed
			cfg.Seed = seed + int64(rep)*71
			var trainSets []*dataset.Set
			for _, d := range domains[:len(domains)-1] {
				trainSets = append(trainSets, synth.TrainingSet(d, 200, 1, lex, seed+5+int64(rep)))
			}
			model, _, err := mlsql.Train(trainSets, cfg)
			if err != nil {
				return nil, err
			}
			in := mlsql.NewInterpreter(held.DB, model)
			in.FixedTable = held.Main
			r, err := eval.Evaluate(in, test)
			if err != nil {
				return nil, err
			}
			acc += r.Overall.Accuracy()
		}
		name := "typed channel on"
		if !typed {
			name = "typed channel off"
		}
		t.Rows = append(t.Rows, []string{name, pct(acc / repeats)})
	}
	t.Notes = append(t.Notes,
		"the cross-domain setting is where typing pays: <col>/<val>/<num> patterns transfer across schemas while raw n-grams do not",
		"expected shape: the typed row is at or above the untyped row")
	return t, nil
}
