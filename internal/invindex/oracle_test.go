package invindex

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"nlidb/internal/lexicon"
	"nlidb/internal/nlp"
	"nlidb/internal/sqldata"
)

// lookupLinear is Lookup as it was before the postings existed: score the
// phrase against every key, one at a time. It is the oracle — Lookup must
// return the same entries, scores (compared with ==), Via and order.
func lookupLinear(ix *Index, phrase string, opts LookupOptions) []Match {
	best := map[string]Match{}
	record := func(e Entry, score float64, via string) {
		if !kindAllowed(e.Kind, opts.KindFilter) {
			return
		}
		k := e.key()
		if m, ok := best[k]; !ok || score > m.Score {
			best[k] = Match{Entry: e, Score: score, Via: via}
		}
	}

	key := normPhrase(phrase)
	if key == "" {
		return nil
	}

	for _, e := range ix.exact(key) {
		record(e, 1.0, "exact")
	}

	if !opts.NoSynonyms && ix.lex != nil && !strings.Contains(key, " ") {
		for _, syn := range ix.lex.Synonyms(key) {
			if syn == key {
				continue
			}
			for _, e := range ix.exact(syn) {
				record(e, 0.9, "synonym")
			}
		}
	}

	if opts.FuzzyThreshold > 0 {
		for k := range ix.ids {
			if k == key {
				continue
			}
			var sim float64
			if strings.Contains(key, " ") || strings.Contains(k, " ") {
				// Trigram Jaccard penalizes uncovered words, so "in new
				// york" does not swallow the key "customer" and a lone
				// "york" does not match "new york".
				sim = nlp.TrigramJaccard(key, k)
			} else {
				sim = nlp.Similarity(key, k)
			}
			if sim >= opts.FuzzyThreshold {
				for _, e := range ix.exact(k) {
					record(e, 0.85*sim, "fuzzy")
				}
			}
		}
	}

	out := make([]Match, 0, len(best))
	for _, m := range best {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].key() < out[j].key()
	})
	return out
}

func kindAllowed(k Kind, filter []Kind) bool {
	if len(filter) == 0 {
		return true
	}
	for _, f := range filter {
		if f == k {
			return true
		}
	}
	return false
}

// exact returns the entries filed under a normalized key (the oracle's
// view of what used to be a map[string][]Entry).
func (ix *Index) exact(key string) []Entry {
	id, ok := ix.ids[key]
	if !ok {
		return nil
	}
	var out []Entry
	for _, e := range ix.entries[ix.keys[id].ents:ix.keys[id+1].ents] {
		out = append(out, e.Entry)
	}
	return out
}

// Keys returns the index's normalized keys, sorted. (Exported from a test
// file so the external test package, which may import benchdata, shares
// these helpers.)
func Keys(ix *Index) []string {
	out := make([]string, 0, ix.Size())
	for k := range ix.ids {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// OracleMismatch describes how Lookup and the linear oracle disagree on
// one phrase, or returns "".
func OracleMismatch(ix *Index, phrase string, opts LookupOptions) string {
	got, want := ix.Lookup(phrase, opts), lookupLinear(ix, phrase, opts)
	if reflect.DeepEqual(got, want) {
		return ""
	}
	return fmt.Sprintf("Lookup(%q, %+v)\n  got  %+v\n  want %+v", phrase, opts, got, want)
}

// optionGrid is every combination the oracle sweep covers: thresholds
// off / product default / the multi-word span threshold / exact only,
// synonyms on and off, no kind filter and each single kind.
func optionGrid() []LookupOptions {
	var grid []LookupOptions
	for _, filter := range [][]Kind{nil, {KindTable}, {KindColumn}, {KindValue}} {
		for _, noSyn := range []bool{false, true} {
			for _, t := range []float64{0, 0.78, 0.9, 1.0} {
				grid = append(grid, LookupOptions{FuzzyThreshold: t, NoSynonyms: noSyn, KindFilter: filter})
			}
		}
	}
	return grid
}

// OracleSweep checks the queries against the oracle: every fullEvery-th
// under the whole option grid, the others under one cell each, query i
// under cell i mod 32 — so on a large vocabulary, where the oracle costs
// milliseconds a call, every combination still sees hundreds of queries of
// every shape.
func OracleSweep(t *testing.T, ix *Index, queries []string, fullEvery int) {
	t.Helper()
	grid := optionGrid()
	checked := 0
	for i, q := range queries {
		opts := grid[i%len(grid):][:1]
		if i%fullEvery == 0 {
			opts = grid
		}
		for _, o := range opts {
			if diff := OracleMismatch(ix, q, o); diff != "" {
				t.Fatal(diff)
			}
			checked++
		}
	}
	t.Logf("%d keys, %d queries, %d lookups agree with the linear oracle", ix.Size(), len(queries), checked)
}

// Sample keeps every stride-th query under -short (which is how the -race
// pass runs) and all of them otherwise.
func Sample(queries []string, stride int) []string {
	if !testing.Short() {
		return queries
	}
	var out []string
	for i := 0; i < len(queries); i += stride {
		out = append(out, queries[i])
	}
	return out
}

// EditOnce applies one random insert, delete, substitute or transpose.
func EditOnce(rng *rand.Rand, s string) string {
	const letters = "abcdefghijklmnopqrstuvwxyz é"
	pool := []rune(letters)
	rs := []rune(s)
	if len(rs) == 0 {
		return string(pool[rng.Intn(len(pool))])
	}
	i := rng.Intn(len(rs))
	switch rng.Intn(4) {
	case 0:
		rs = append(rs[:i], append([]rune{pool[rng.Intn(len(pool))]}, rs[i:]...)...)
	case 1:
		rs = append(rs[:i], rs[i+1:]...)
	case 2:
		rs[i] = pool[rng.Intn(len(pool))]
	default:
		if i+1 < len(rs) {
			rs[i], rs[i+1] = rs[i+1], rs[i]
		}
	}
	return string(rs)
}

// Windows returns every two- and three-word window of a question: the
// multi-word probes nlq.MatchSpans makes.
func Windows(question string) []string {
	words := strings.Fields(question)
	var out []string
	for n := 2; n <= 3; n++ {
		for i := 0; i+n <= len(words); i++ {
			out = append(out, strings.Join(words[i:i+n], " "))
		}
	}
	return out
}

// OracleQueries is the query set the oracle tests share over one index:
// every key, every key with one random edit, and the distinct windows of
// the questions.
func OracleQueries(ix *Index, questions []string, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	var out []string
	for _, k := range Keys(ix) {
		out = append(out, k, EditOnce(rng, k))
	}
	seen := map[string]bool{}
	for _, q := range questions {
		for _, w := range Windows(q) {
			if !seen[w] {
				seen[w] = true
				out = append(out, w)
			}
		}
	}
	return out
}

// vocab is a generated vocabulary: word-like strings of one to three
// syllables (so trigrams repeat across keys the way they do across names,
// a few of them in a large share of the keys), a chosen share of the
// values two- and three-word phrases, about one word in twenty with a
// non-ASCII letter.
type vocab struct {
	db     *sqldata.Database
	values []string
}

var (
	onsets = strings.Fields("b c d f g h j k l m n p r s t v w z br bl ch cl cr dr fl fr gl gr kn pl pr qu sc sh sk sl sm sn sp st sw th tr tw wh") // and none
	vowels = strings.Fields("a e i o u y ai au ea ee ei ie io oa oo ou")
	codas  = strings.Fields("b d g k l m n p r s t x ck ct ft ld ll lt mp nd ng nk nt rd rk rn rt sh ss st th") // and none, most often
)

func syllableWord(rng *rand.Rand) string {
	var sb strings.Builder
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		if o := rng.Intn(len(onsets) + 4); o < len(onsets) {
			sb.WriteString(onsets[o])
		}
		sb.WriteString(vowels[rng.Intn(len(vowels))])
		if c := rng.Intn(2 * len(codas)); c < len(codas) {
			sb.WriteString(codas[c])
		}
	}
	w := sb.String()
	if rng.Intn(20) == 0 {
		accents := []string{"é", "ü", "ß", "ø", "日本"}
		cut := rng.Intn(len(w))
		w = w[:cut] + accents[rng.Intn(len(accents))] + w[cut:]
	}
	return w
}

// newVocab generates n distinct values, multiShare of them multi-word,
// as the name column of one table whose schema also carries synonyms the
// built-in lexicon knows, so all three tiers have something to find.
func newVocab(tb testing.TB, n int, multiShare float64, seed int64) *vocab {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	db := sqldata.NewDatabase("vocab")
	item, err := db.CreateTable(&sqldata.Schema{
		Name:     "item",
		Synonyms: []string{"product", "article"},
		Columns: []sqldata.Column{
			{Name: "id", Type: sqldata.TypeInt, PrimaryKey: true},
			{Name: "name", Type: sqldata.TypeText, Synonyms: []string{"title"}},
			{Name: "unit_price", Type: sqldata.TypeFloat, Synonyms: []string{"cost"}},
			{Name: "salary", Type: sqldata.TypeFloat},
		},
	})
	if err != nil {
		tb.Fatal(err)
	}
	v := &vocab{db: db}
	// Multi-word values reuse a pool of words, as product and place names do.
	pool := make([]string, max(16, n/4))
	for i := range pool {
		pool[i] = syllableWord(rng)
	}
	seen := map[string]bool{}
	for len(v.values) < n {
		val := syllableWord(rng)
		if rng.Float64() < multiShare {
			val = pool[rng.Intn(len(pool))] + " " + pool[rng.Intn(len(pool))]
			if rng.Intn(3) == 0 {
				val += " " + pool[rng.Intn(len(pool))]
			}
		}
		if seen[val] {
			continue
		}
		seen[val] = true
		v.values = append(v.values, val)
		item.MustInsert(sqldata.NewInt(int64(len(v.values))), sqldata.NewText(val), sqldata.NewFloat(1), sqldata.NewFloat(1))
	}
	return v
}

// questions generates n questions that mention the vocabulary's values,
// some misspelled, between ordinary question words.
func (v *vocab) questions(n int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	templates := []string{
		"show all items named %s with cost above 10",
		"what is the price of %s and %s",
		"how many products called %s are there",
		"list the title of articles like %s sorted by salary",
		"items %s or %s",
	}
	out := make([]string, n)
	for i := range out {
		pick := func() string {
			val := v.values[rng.Intn(len(v.values))]
			if rng.Intn(3) == 0 {
				val = EditOnce(rng, val)
			}
			return val
		}
		tpl := templates[rng.Intn(len(templates))]
		if strings.Count(tpl, "%s") == 2 {
			out[i] = fmt.Sprintf(tpl, pick(), pick())
		} else {
			out[i] = fmt.Sprintf(tpl, pick())
		}
	}
	return out
}

func TestLookupMatchesLinearOracleOnDemo(t *testing.T) {
	ix := Build(demoDB(t), lexicon.New())
	questions := []string{
		"show the annual income of clients in berlin", "alice smith and bob jones live in munich",
		"salary of carol king", "customer names and cities", "wage of the buyer named alise smith",
	}
	OracleSweep(t, ix, OracleQueries(ix, questions, 1), 1)
}

func TestLookupMatchesLinearOracleOnGeneratedVocabulary(t *testing.T) {
	v := newVocab(t, 2000, 0.35, 7)
	ix := Build(v.db, lexicon.New())
	multi, nonASCII := 0, 0
	for _, k := range Keys(ix) {
		if strings.Contains(k, " ") {
			multi++
		}
		if strings.IndexFunc(k, func(r rune) bool { return r > 127 }) >= 0 {
			nonASCII++
		}
	}
	if ix.Size() < 1900 || multi*10 < ix.Size()*3 || nonASCII == 0 {
		t.Fatalf("vocabulary too tame: %d keys, %d multi-word, %d non-ASCII", ix.Size(), multi, nonASCII)
	}
	OracleSweep(t, ix, Sample(OracleQueries(ix, v.questions(500, 8), 9), 15), 64)
}

// Thresholds too low for the trigram bound to prune take the
// length-bucket scan; it must agree with the oracle too.
func TestLookupMatchesLinearOracleAtLowThresholds(t *testing.T) {
	v := newVocab(t, 300, 0.35, 11)
	ix := Build(v.db, lexicon.New())
	queries := Sample(OracleQueries(ix, v.questions(40, 12), 13), 5)
	for i, q := range queries {
		for _, th := range []float64{0.05, 0.3, 0.5, 0.65, 0.999, 1.5} {
			opts := LookupOptions{FuzzyThreshold: th, NoSynonyms: i%2 == 0}
			if diff := OracleMismatch(ix, q, opts); diff != "" {
				t.Fatal(diff)
			}
		}
	}
}

func FuzzLookupOracle(f *testing.F) {
	indexes := []*Index{
		Build(demoDB(f), lexicon.New()),
		Build(newVocab(f, 400, 0.4, 21).db, lexicon.New()),
	}
	seeds := []string{
		"", " ", "customer", "customers", "custmer", "client", "wage", "alice smith", "alice smit",
		"alise smith", "in berlin", "Berlin", "BERLIN", "bob jones of munich", "annual income",
		"anual incom", "é", "日本", "\xff\xfe", "a", "ab", "abc", "carol  king ", "xyzzy plugh",
	}
	for i, s := range seeds {
		for _, th := range []float64{0, 0.3, 0.78, 0.9, 1.0} {
			f.Add(s, th, uint8(i))
		}
	}
	rng := rand.New(rand.NewSource(22))
	for i, k := range Keys(indexes[1]) {
		if i%20 == 0 {
			f.Add(k, 0.78, uint8(i))
			f.Add(EditOnce(rng, k), 0.78, uint8(i))
		}
	}
	f.Fuzz(func(t *testing.T, phrase string, threshold float64, flags uint8) {
		opts := LookupOptions{FuzzyThreshold: threshold, NoSynonyms: flags&1 != 0}
		if k := Kind(flags >> 1 & 3); k <= KindValue {
			opts.KindFilter = []Kind{k}
		}
		for _, ix := range indexes {
			if diff := OracleMismatch(ix, phrase, opts); diff != "" {
				t.Fatal(diff)
			}
		}
	})
}

// An Index is shared by every request goroutine: pooled scratch must never
// leak into, or alias, a result. Run with -race.
func TestLookupSharedAcrossGoroutines(t *testing.T) {
	v := newVocab(t, 600, 0.4, 31)
	ix := Build(v.db, lexicon.New())
	queries := OracleQueries(ix, v.questions(100, 32), 33)
	rand.New(rand.NewSource(34)).Shuffle(len(queries), func(i, j int) { queries[i], queries[j] = queries[j], queries[i] })
	queries = queries[:2000]
	optsFor := func(i int) LookupOptions {
		o := LookupOptions{FuzzyThreshold: []float64{0.78, 0.9, 0.5}[i%3], NoSynonyms: i%5 == 0}
		if i%4 == 0 {
			o.KindFilter = []Kind{KindColumn, KindValue}
		}
		return o
	}
	serial := make([][]Match, len(queries))
	for i, q := range queries {
		serial[i] = ix.Lookup(q, optsFor(i))
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := range queries {
				i := (n*7 + g*251) % len(queries) // each goroutine walks its own order
				got := ix.Lookup(queries[i], optsFor(i))
				if !reflect.DeepEqual(got, serial[i]) {
					t.Errorf("goroutine %d: Lookup(%q) = %+v, serial answer %+v", g, queries[i], got, serial[i])
					return
				}
				// What athena.relax and nlq.preferMentionedColumns do to a
				// result, and worse: the slice is the caller's to ruin.
				for j := range got {
					got[j] = Match{Score: -1, Via: "scribbled"}
				}
				got = append(got[:0], Match{Via: "appended"})
				_ = got
			}
		}(g)
	}
	wg.Wait()
}
