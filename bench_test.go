// Package repro holds the top-level benchmark harness: one testing.B
// benchmark per experiment table (T1…T10, A1, A2 — run with
// `go test -bench=.`), plus micro-benchmarks for the hot paths
// (interpretation latency per family, SQL execution, index lookup).
// Experiment benchmarks report their headline numbers as custom metrics
// so `go test -bench` output doubles as a results record.
package repro

import (
	"strconv"
	"strings"
	"testing"

	"nlidb/internal/athena"
	"nlidb/internal/benchdata"
	"nlidb/internal/experiments"
	"nlidb/internal/invindex"
	"nlidb/internal/keywordnl"
	"nlidb/internal/lexicon"
	"nlidb/internal/nlq"
	"nlidb/internal/parsenl"
	"nlidb/internal/patternnl"
	"nlidb/internal/sqlexec"
	"nlidb/internal/sqlparse"
)

// benchExperiment runs one experiment per iteration and reports the first
// percentage cell of every row as a metric, so the claim's shape is
// visible straight from the bench output.
func benchExperiment(b *testing.B, id string) {
	var run func(int64) (*experiments.Table, error)
	for _, e := range experiments.All() {
		if e.ID == id {
			run = e.Run
		}
	}
	if run == nil {
		b.Fatalf("unknown experiment %s", id)
	}
	var last *experiments.Table
	for i := 0; i < b.N; i++ {
		t, err := run(1)
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	for _, row := range last.Rows {
		for _, cell := range row[1:] {
			v := strings.TrimSuffix(strings.TrimSpace(cell), "%")
			if f, err := strconv.ParseFloat(v, 64); err == nil {
				name := strings.ReplaceAll(strings.Fields(row[0])[0], "/", "-")
				b.ReportMetric(f, name+"_pct")
				break
			}
		}
	}
}

func BenchmarkT1ComplexityCeiling(b *testing.B) { benchExperiment(b, "T1") }
func BenchmarkT2Paraphrase(b *testing.B)        { benchExperiment(b, "T2") }
func BenchmarkT3PrecisionRecall(b *testing.B)   { benchExperiment(b, "T3") }
func BenchmarkT4TrainingCurve(b *testing.B)     { benchExperiment(b, "T4") }
func BenchmarkT5DomainAdaptation(b *testing.B)  { benchExperiment(b, "T5") }
func BenchmarkT6Dialogue(b *testing.B)          { benchExperiment(b, "T6") }
func BenchmarkT7Feedback(b *testing.B)          { benchExperiment(b, "T7") }
func BenchmarkT8Datasets(b *testing.B)          { benchExperiment(b, "T8") }
func BenchmarkT9Relaxation(b *testing.B)        { benchExperiment(b, "T9") }
func BenchmarkT10QueryLog(b *testing.B)         { benchExperiment(b, "T10") }
func BenchmarkT11Decomposition(b *testing.B)    { benchExperiment(b, "T11") }
func BenchmarkA1SketchVsSeq(b *testing.B)       { benchExperiment(b, "A1") }
func BenchmarkA2TypeFeatures(b *testing.B)      { benchExperiment(b, "A2") }

// --- micro-benchmarks --------------------------------------------------------

// benchInterpret measures one family's end-to-end interpretation latency
// over a fixed question mix.
func benchInterpret(b *testing.B, mk func(d *benchdata.Domain, ix *invindex.Index, lex *lexicon.Lexicon) nlq.Interpreter) {
	d := benchdata.Sales(1)
	lex := lexicon.New()
	in := mk(d, invindex.Build(d.DB, lex), lex)
	questions := []string{
		"customers with city Berlin",
		"how many products are there",
		"average credit of customers by segment",
		"products of the category toys",
		"customers with credit greater than the average credit",
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = in.Interpret(questions[i%len(questions)])
	}
}

func BenchmarkInterpretKeyword(b *testing.B) {
	benchInterpret(b, func(d *benchdata.Domain, ix *invindex.Index, lex *lexicon.Lexicon) nlq.Interpreter {
		return keywordnl.New(d.DB, ix)
	})
}

func BenchmarkInterpretPattern(b *testing.B) {
	benchInterpret(b, func(d *benchdata.Domain, ix *invindex.Index, lex *lexicon.Lexicon) nlq.Interpreter {
		return patternnl.New(d.DB, ix)
	})
}

func BenchmarkInterpretParse(b *testing.B) {
	benchInterpret(b, func(d *benchdata.Domain, ix *invindex.Index, lex *lexicon.Lexicon) nlq.Interpreter {
		return parsenl.New(d.DB, ix)
	})
}

func BenchmarkInterpretAthena(b *testing.B) {
	benchInterpret(b, func(d *benchdata.Domain, ix *invindex.Index, lex *lexicon.Lexicon) nlq.Interpreter {
		return athena.New(d.DB, ix, lex)
	})
}

// BenchmarkSQLParse measures the SQL front end.
func BenchmarkSQLParse(b *testing.B) {
	sql := "SELECT customer.name, AVG(orders.total) FROM customer JOIN orders ON customer.id = orders.customer_id WHERE customer.city = 'Berlin' GROUP BY customer.name HAVING COUNT(orders.id) > 2 ORDER BY AVG(orders.total) DESC LIMIT 5"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sqlparse.Parse(sql); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSQLExec measures the executor on a join + aggregate.
func BenchmarkSQLExec(b *testing.B) {
	d := benchdata.Sales(1)
	eng := sqlexec.New(d.DB)
	stmt := sqlparse.MustParse("SELECT customer.name, SUM(orders.total) FROM customer JOIN orders ON customer.id = orders.customer_id GROUP BY customer.name")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(stmt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSQLExecNested measures correlated sub-query execution.
func BenchmarkSQLExecNested(b *testing.B) {
	d := benchdata.Sales(1)
	eng := sqlexec.New(d.DB)
	stmt := sqlparse.MustParse("SELECT name FROM customer WHERE NOT (EXISTS (SELECT id FROM orders WHERE orders.customer_id = customer.id))")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(stmt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIndexLookup measures the inverted-index lookup path (with the
// fuzzy tier, the interpreters' hot spot).
func BenchmarkIndexLookup(b *testing.B) {
	d := benchdata.Sales(1)
	ix := invindex.Build(d.DB, lexicon.New())
	words := []string{"customers", "Berlin", "credit", "widget", "segmnt"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Lookup(words[i%len(words)], invindex.DefaultOptions())
	}
}

// BenchmarkIndexBuild measures index construction for a whole domain.
func BenchmarkIndexBuild(b *testing.B) {
	d := benchdata.Sales(1)
	lex := lexicon.New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		invindex.Build(d.DB, lex)
	}
}

// BenchmarkDomainGeneration measures seeded corpus generation.
func BenchmarkDomainGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d := benchdata.Sales(int64(i))
		_ = d.GeneratePairs(20, int64(i))
	}
}

// sanity check: the harness must know every experiment id exactly once.
func TestBenchHarnessCoversAllExperiments(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range experiments.All() {
		if seen[e.ID] {
			t.Fatalf("duplicate experiment id %s", e.ID)
		}
		seen[e.ID] = true
	}
	for _, id := range []string{"T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8", "T9", "T10", "T11", "A1", "A2"} {
		if !seen[id] {
			t.Fatalf("experiment %s missing from All()", id)
		}
	}
}
