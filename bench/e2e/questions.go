package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"nlidb/internal/benchdata"
	"nlidb/internal/lexicon"
	"nlidb/internal/nlq"
	"nlidb/internal/qcache"
	"nlidb/internal/synth"
)

// question is one natural-language input with the SQL a correct
// interpreter would run for it.
type question struct {
	Text string
	Gold string
}

// stream is a workload's request sequence: request i asks
// Pool[Picks[i mod len(Picks)]]. It is a function of the seed alone.
type stream struct {
	Pool  []question
	Picks []int
}

func (s *stream) at(i int) question { return s.Pool[s.Picks[i%len(s.Picks)]] }

// inOrder asks every pool entry once, in order, then starts over.
func inOrder(pool []question) *stream {
	picks := make([]int, len(pool))
	for i := range picks {
		picks[i] = i
	}
	return &stream{Pool: pool, Picks: picks}
}

const (
	// vocabDraws template draws give about 3,100 distinct questions, three
	// times the answer cache. The cache is a sharded LRU, so a run fast
	// enough to wrap around the stream still misses every time.
	vocabDraws         = 12000
	vocabParaphrasePct = 30
	hotPool            = 200
	// hotDraws template draws give about 350 distinct questions, enough to
	// pick hotPool from.
	hotDraws      = 1000
	hotPicks      = 1 << 17
	hotZipfS      = 1.1
	scanQuestions = 6000
)

// vocabPool draws questions from benchdata's simple, aggregation, join and
// nested templates over d, keeps each distinct question once, and rewrites
// paraphrasePct percent of them with one synth.Paraphrase operator. The
// template space holds well over 20,000 distinct questions (one per
// customer or product name and attribute alone gives 5,880). Gold statements with a sub-query are left out: the
// row executor re-runs them per outer row, which takes seconds on this
// data and would make execution, not interpretation, the measured layer.
func vocabPool(d *benchdata.Domain, seed int64, draws, paraphrasePct int) []question {
	r := rand.New(rand.NewSource(seed))
	lex := lexicon.New()
	seen := map[string]bool{}
	var pool []question
	for _, p := range d.GeneratePairs(draws, seed, nlq.Simple, nlq.Aggregation, nlq.Join, nlq.Nested) {
		gold := p.SQL.String()
		if strings.Contains(gold, "(SELECT") || seen[p.Question] {
			continue
		}
		seen[p.Question] = true
		text := p.Question
		if r.Intn(100) < paraphrasePct {
			text = synth.Paraphrase(text, 1, lex, r)
		}
		pool = append(pool, question{Text: text, Gold: gold})
	}
	return pool
}

// vocabStream asks distinct questions, so the answer cache almost never
// hits and every request pays for interpretation.
func vocabStream(d *benchdata.Domain, seed int64) *stream {
	return inOrder(vocabPool(d, seed, vocabDraws, vocabParaphrasePct))
}

// hotStream asks each of hotPool questions once (the warm-up), then
// samples them Zipf(1.1): after the warm-up every request is an
// answer-cache hit. The pool is ranked by answer size, smallest first, so
// the hottest questions are one-row aggregates and lookups and the long
// tail holds the thousand-row listings whatever the seed; ranked at random,
// one seed's favourite question would cost a hundred times another's.
// None is paraphrased: a paraphrase can be refused, a refusal is not
// cached, and one hot refusal would turn this into an interpretation
// workload.
func hotStream(d *benchdata.Domain, seed int64) *stream {
	// Distinct cache keys, not just distinct texts: two texts that
	// normalize to one key would make the second warm-up request a hit.
	keys := map[string]bool{}
	var hot []question
	for _, q := range vocabPool(d, seed, hotDraws, 0) {
		if k := qcache.Key(q.Text); !keys[k] && len(hot) < hotPool {
			keys[k] = true
			hot = append(hot, q)
		}
	}
	or := newOracle(d.DB)
	size := map[string]int{}
	for _, q := range hot {
		rows, _, err := or.gold(q.Gold)
		if err != nil {
			panic(fmt.Sprintf("bench questions: %v", err))
		}
		size[q.Text] = len(rows)
	}
	sort.SliceStable(hot, func(i, j int) bool { return size[hot[i].Text] < size[hot[j].Text] })

	s := inOrder(hot)
	r := rand.New(rand.NewSource(seed + 1))
	z := rand.NewZipf(r, hotZipfS, 1, uint64(len(hot)-1))
	for i := 0; i < hotPicks; i++ {
		s.Picks = append(s.Picks, int(z.Uint64()))
	}
	return s
}

// scanTemplate builds one question over the ops200k fact table. Every
// template carries a numeric threshold drawn from a continuous range, so
// neither answers nor plans repeat.
type scanTemplate struct {
	name string
	make func(r *rand.Rand, hosts []string) question
}

// The two mixes over the fact table. scanMix keeps to the templates that
// group, join or sort at least half the table, so that plan and execute,
// not the 2.6 ms of interpretation, are nine tenths of a request. scatterMix is what the
// shard coordinator can distribute — no HAVING, no sub-query, no ORDER BY
// on a column that is not selected, so no top_k — plus the two templates
// that filter on the host dimension.
var (
	scanMix    = []string{"grouped", "per_host", "per_host_agg", "top_k"}
	scatterMix = []string{"grouped", "per_host", "per_host_agg", "aggregate", "of_host", "in_zone"}
)

var (
	aggWords   = [][2]string{{"average", "AVG"}, {"total", "SUM"}, {"highest", "MAX"}, {"lowest", "MIN"}}
	groupWords = [][2]string{{"average", "AVG"}, {"total", "SUM"}}
	cmpWords   = [][2]string{{"over", ">"}, {"greater than", ">"}, {"under", "<"}, {"below", "<"}}
)

// scanFilter draws a comparison on cpu (two decimals) or rss (integer)
// that keeps between lo and hi of the rows, and returns the other column
// for the question to aggregate or sort on: the interpreters confuse
// "average rss … with rss under N".
func scanFilter(r *rand.Rand, lo, hi float64) (phrase, cond, other string) {
	keep := lo + r.Float64()*(hi-lo)
	cmp := cmpWords[r.Intn(len(cmpWords))]
	if cmp[1] == ">" {
		keep = 1 - keep
	}
	if r.Intn(2) == 0 {
		t := fmt.Sprintf("%.2f", keep*100)
		return fmt.Sprintf("cpu %s %s", cmp[0], t), fmt.Sprintf("cpu %s %s", cmp[1], t), "rss"
	}
	t := int(keep * (1 << 20))
	return fmt.Sprintf("rss %s %d", cmp[0], t), fmt.Sprintf("rss %s %d", cmp[1], t), "cpu"
}

const metricJoinHost = "metric JOIN host ON metric.host_id = host.id"

var scanTemplates = []scanTemplate{
	{name: "grouped", make: func(r *rand.Rand, _ []string) question {
		a, g := groupWords[r.Intn(2)], []string{"kind", "status"}[r.Intn(2)]
		ph, cond, col := scanFilter(r, 0.6, 0.99)
		return question{
			Text: fmt.Sprintf("%s %s of metrics by %s with %s", a[0], col, g, ph),
			Gold: fmt.Sprintf("SELECT %s, %s(%s) FROM metric WHERE %s GROUP BY %s", g, a[1], col, cond, g),
		}
	}},
	{name: "per_host", make: func(r *rand.Rand, _ []string) question {
		ph, cond, _ := scanFilter(r, 0.6, 0.99)
		return question{
			Text: fmt.Sprintf("count of metrics per host with %s", ph),
			Gold: fmt.Sprintf("SELECT host.name, COUNT(*) FROM %s WHERE metric.%s GROUP BY host.name", metricJoinHost, cond),
		}
	}},
	{name: "per_host_agg", make: func(r *rand.Rand, _ []string) question {
		a := groupWords[r.Intn(2)]
		ph, cond, col := scanFilter(r, 0.6, 0.99)
		return question{
			Text: fmt.Sprintf("%s %s of metrics per host with %s", a[0], col, ph),
			Gold: fmt.Sprintf("SELECT host.name, %s(metric.%s) FROM %s WHERE metric.%s GROUP BY host.name", a[1], col, metricJoinHost, cond),
		}
	}},
	{name: "of_host", make: func(r *rand.Rand, hosts []string) question {
		h := hosts[r.Intn(len(hosts))]
		ph, cond, _ := scanFilter(r, 0.1, 0.9)
		return question{
			Text: fmt.Sprintf("how many metrics of the host %s have %s", h, ph),
			Gold: fmt.Sprintf("SELECT COUNT(*) FROM %s WHERE host.name = '%s' AND metric.%s", metricJoinHost, h, cond),
		}
	}},
	{name: "in_zone", make: func(r *rand.Rand, _ []string) question {
		z := zonePool[r.Intn(len(zonePool))]
		ph, cond, _ := scanFilter(r, 0.6, 0.99)
		return question{
			Text: fmt.Sprintf("how many metrics with zone %s have %s", z, ph),
			Gold: fmt.Sprintf("SELECT COUNT(*) FROM %s WHERE host.zone = '%s' AND metric.%s", metricJoinHost, z, cond),
		}
	}},
	{name: "aggregate", make: func(r *rand.Rand, _ []string) question {
		a := aggWords[r.Intn(len(aggWords))]
		ph, cond, col := scanFilter(r, 0.6, 0.99)
		return question{
			Text: fmt.Sprintf("what is the %s %s of metrics with %s", a[0], col, ph),
			Gold: fmt.Sprintf("SELECT %s(%s) FROM metric WHERE %s", a[1], col, cond),
		}
	}},
	{name: "top_k", make: func(r *rand.Rand, _ []string) question {
		k := r.Intn(8) + 2
		ph, cond, col := scanFilter(r, 0.05, 0.15)
		return question{
			Text: fmt.Sprintf("top %d metrics with %s by %s", k, ph, col),
			Gold: fmt.Sprintf("SELECT status FROM metric WHERE %s ORDER BY %s DESC LIMIT %d", cond, col, k),
		}
	}},
}

// scanStream cycles through the templates of mix in a fixed order, so
// every window of the stream has the same class mix whatever the seed.
func scanStream(d *benchdata.Domain, seed int64, mix []string) *stream {
	r := rand.New(rand.NewSource(seed))
	hosts, err := d.DB.Table("host").DistinctText("name")
	if err != nil {
		panic(fmt.Sprintf("bench questions: %v", err))
	}
	byName := map[string]scanTemplate{}
	for _, t := range scanTemplates {
		byName[t.name] = t
	}
	pool := make([]question, scanQuestions)
	for i := range pool {
		pool[i] = byName[mix[i%len(mix)]].make(r, hosts)
	}
	return inOrder(pool)
}
