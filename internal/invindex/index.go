// Package invindex builds an inverted index over a database's metadata
// (table and column names, with declared synonyms) and its data content
// (distinct text values). Keyword-driven interpreters in the style of
// SODA, QUICK, and BELA resolve natural-language tokens to schema elements
// and literals through this index, with exact, stem, synonym, and fuzzy
// lookup tiers.
//
// The fuzzy tier is candidate-driven: Build precomputes every key's
// trigram set and a trigram → keys postings list, and Lookup scores only
// the keys on the postings of the query's rarest trigrams. A key is
// skipped only when an upper bound on its similarity — computed with the
// float64 expressions the scoring itself uses — is below the threshold,
// so results are identical, bit for bit, to scoring every key. The
// score-every-key scan is kept as the oracle in oracle_test.go.
package invindex

import (
	"cmp"
	"slices"
	"strings"
	"sync"
	"unicode/utf8"

	"nlidb/internal/lexicon"
	"nlidb/internal/nlp"
	"nlidb/internal/sqldata"
)

// Kind says what an index entry points at.
type Kind int

const (
	// KindTable is a table name entry.
	KindTable Kind = iota
	// KindColumn is a column name entry.
	KindColumn
	// KindValue is a data value entry (a distinct TEXT cell).
	KindValue
)

func (k Kind) String() string {
	switch k {
	case KindTable:
		return "table"
	case KindColumn:
		return "column"
	default:
		return "value"
	}
}

// Entry is one indexed object.
type Entry struct {
	Kind   Kind
	Table  string
	Column string // set for KindColumn and KindValue
	Value  string // set for KindValue: the original cell text
}

// key returns a deduplication identity for the entry.
func (e Entry) key() string {
	return e.Kind.String() + "\x00" + e.Table + "\x00" + e.Column + "\x00" + e.Value
}

// Match is a scored lookup hit.
type Match struct {
	Entry
	// Score in (0,1]; 1 is an exact match.
	Score float64
	// Via names the tier that produced the hit: exact, synonym, or fuzzy.
	Via string
}

// Index is an immutable inverted index; build once per database and share
// it between interpreters and request goroutines.
type Index struct {
	lex *lexicon.Lexicon
	// ids interns the normalized keys to dense ids; keys holds one record
	// per id, plus a sentinel closing the offsets.
	ids  map[string]int32
	keys []keyInfo
	// entries lists the entries of key 0, then key 1, …
	entries []ranked
	// keyGrams lists the sorted trigram set of key 0, then key 1, …
	keyGrams []uint64

	// Ids are laid out so that the keys a fuzzy lookup can still match
	// form runs: single words first, ascending by rune length (what edit
	// distance bounds), then keys with a space, ascending by trigram-set
	// size (what Jaccard bounds). Posting lists are ascending, so such a
	// run is a contiguous part of every list.
	wordsByRunes  ladder
	phrasesBySize ladder
	// letters[id] is letterMask of key id: a dense array, so most
	// candidates are dismissed without touching their keyInfo.
	letters []uint64

	// Postings: the keys containing grams[i], ascending, are
	// post[postOff[i]:postOff[i+1]]. grams is sorted.
	grams   []uint64
	postOff []int32
	post    []int32

	// scratch pools the per-lookup working memory; nothing in it outlives
	// the Lookup that took it.
	scratch sync.Pool
}

// keyInfo is what Build precomputes about one normalized key.
type keyInfo struct {
	// low is the key lower-cased the way nlp.Similarity and
	// nlp.TrigramJaccard see it (the key itself unless they differ).
	low   string
	kinds uint8 // bit 1<<Kind for every entry kind under the key
	ents  int32 // entries[ents:next.ents]
	grams int32 // keyGrams[grams:next.grams]
}

// ranked is an entry with its rank among all entries in key() order, so
// lookups compare identities and break ties without building strings.
type ranked struct {
	Entry
	ord int32
}

// ladder locates the ids of a run that ascends with some measure m (rune
// length, trigram-set size): ladder[m] is the first id of measure at least
// m, and the last element is the id after the run.
type ladder []int32

func (l ladder) first(m int) int32 { return l[min(max(m, 0), len(l)-1)] }
func (l ladder) end() int32        { return l[len(l)-1] }

// normPhrase stems each word of a phrase and joins with single spaces.
func normPhrase(s string) string {
	fields := strings.Fields(strings.ToLower(s))
	for i, f := range fields {
		fields[i] = nlp.Stem(f)
	}
	return strings.Join(fields, " ")
}

// Build indexes every table name, column name, declared synonym, and
// distinct text value of db. lex may be nil to disable the synonym tier.
func Build(db *sqldata.Database, lex *lexicon.Lexicon) *Index {
	byKey := make(map[string][]Entry)
	add := func(key string, e Entry) {
		k := normPhrase(key)
		if k == "" {
			return
		}
		for _, ex := range byKey[k] {
			if ex.key() == e.key() {
				return
			}
		}
		byKey[k] = append(byKey[k], e)
	}

	for _, t := range db.Tables() {
		s := t.Schema
		te := Entry{Kind: KindTable, Table: s.Name}
		add(nlp.NormalizeIdent(s.Name), te)
		for _, syn := range s.Synonyms {
			add(syn, te)
		}
		for _, c := range s.Columns {
			ce := Entry{Kind: KindColumn, Table: s.Name, Column: c.Name}
			add(nlp.NormalizeIdent(c.Name), ce)
			for _, syn := range c.Synonyms {
				add(syn, ce)
			}
			if c.Type == sqldata.TypeText {
				vals, err := t.DistinctText(c.Name)
				if err != nil {
					continue
				}
				for _, v := range vals {
					add(v, Entry{Kind: KindValue, Table: s.Name, Column: c.Name, Value: v})
				}
			}
		}
	}

	// Measure every key, then lay the ids out: words by rune length,
	// phrases by trigram-set size, ties in key order.
	type draft struct {
		key, low string
		phrase   bool
		measure  int // rune length of a word, trigram-set size of a phrase
		from, to int // arena[from:to] is the key's trigram set
	}
	drafts := make([]draft, 0, len(byKey))
	var arena []uint64
	for k := range byKey {
		d := draft{key: k, low: strings.ToLower(k), phrase: strings.Contains(k, " "), from: len(arena)}
		arena = nlp.TrigramSet(arena, d.low)
		d.to = len(arena)
		if d.measure = d.to - d.from; !d.phrase {
			d.measure = utf8.RuneCountInString(d.low)
		}
		drafts = append(drafts, d)
	}
	slices.SortFunc(drafts, func(a, b draft) int {
		if a.phrase != b.phrase {
			if b.phrase {
				return -1
			}
			return 1
		}
		return cmp.Or(cmp.Compare(a.measure, b.measure), strings.Compare(a.key, b.key))
	})

	ix := &Index{
		lex:      lex,
		ids:      make(map[string]int32, len(drafts)),
		keys:     make([]keyInfo, 0, len(drafts)+1),
		keyGrams: make([]uint64, 0, len(arena)),
	}
	ix.scratch.New = func() any { return new(scratch) }
	nWords := 0
	for id, d := range drafts {
		ix.ids[d.key] = int32(id)
		rungs := &ix.wordsByRunes
		if d.phrase {
			rungs = &ix.phrasesBySize
		} else {
			nWords = id + 1
		}
		for len(*rungs) <= d.measure {
			*rungs = append(*rungs, int32(id))
		}
		ix.letters = append(ix.letters, letterMask(d.low))
		info := keyInfo{low: d.low, ents: int32(len(ix.entries)), grams: int32(len(ix.keyGrams))}
		for _, e := range byKey[d.key] {
			info.kinds |= 1 << e.Kind
			ix.entries = append(ix.entries, ranked{Entry: e})
		}
		ix.keyGrams = append(ix.keyGrams, arena[d.from:d.to]...)
		ix.keys = append(ix.keys, info)
	}
	ix.keys = append(ix.keys, keyInfo{ents: int32(len(ix.entries)), grams: int32(len(ix.keyGrams))})
	ix.wordsByRunes = append(ix.wordsByRunes, int32(nWords))
	ix.phrasesBySize = append(ix.phrasesBySize, int32(len(drafts)))
	ix.rankEntries()
	ix.buildPostings()
	return ix
}

// rankEntries numbers the entries in key() order; an entry listed under
// several keys (a name and its synonyms) gets the same number each time.
func (ix *Index) rankEntries() {
	idents := make([]string, len(ix.entries))
	order := make([]int32, len(ix.entries))
	for i := range ix.entries {
		idents[i] = ix.entries[i].key()
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return strings.Compare(idents[a], idents[b]) })
	ord := int32(-1)
	for i, e := range order {
		if i == 0 || idents[e] != idents[order[i-1]] {
			ord++
		}
		ix.entries[e].ord = ord
	}
}

// buildPostings inverts keyGrams: the distinct trigrams, sorted, and for
// each the ascending ids of the keys that contain it.
func (ix *Index) buildPostings() {
	// Number the distinct trigrams as they appear, then renumber sorted.
	seen := make(map[uint64]int32)
	slots := make([]int32, len(ix.keyGrams)) // the number of each key trigram
	var sizes []int32                        // posting-list length per number
	for i, g := range ix.keyGrams {
		n, ok := seen[g]
		if !ok {
			n = int32(len(ix.grams))
			seen[g] = n
			ix.grams = append(ix.grams, g)
			sizes = append(sizes, 0)
		}
		slots[i] = n
		sizes[n]++
	}
	slices.Sort(ix.grams)
	next := make([]int32, len(ix.grams)) // next free position per number
	ix.postOff = make([]int32, len(ix.grams)+1)
	for i, g := range ix.grams {
		n := seen[g]
		next[n] = ix.postOff[i]
		ix.postOff[i+1] = ix.postOff[i] + sizes[n]
	}
	ix.post = make([]int32, len(ix.keyGrams))
	for id := range ix.keys[:ix.Size()] {
		for _, n := range slots[ix.keys[id].grams:ix.keys[id+1].grams] {
			ix.post[next[n]] = int32(id)
			next[n]++
		}
	}
}

// LookupOptions tunes a lookup.
type LookupOptions struct {
	// FuzzyThreshold is the minimum string similarity for the fuzzy tier;
	// 0 disables fuzzy matching.
	FuzzyThreshold float64
	// NoSynonyms disables the synonym tier.
	NoSynonyms bool
	// KindFilter, when non-nil, keeps only entries of the listed kinds.
	KindFilter []Kind
}

// DefaultOptions enables synonyms and a 0.78 fuzzy threshold.
func DefaultOptions() LookupOptions { return LookupOptions{FuzzyThreshold: 0.78} }

// scratch is the working memory of one Lookup.
type scratch struct {
	hits  []hit
	grams []uint64  // the query's trigram set, ascending
	lists [][]int32 // lists[i]: the keys that contain grams[i]
	rare  [][]int32 // lists, shortest first
	where []uint64  // the query's trigrams by position
	query []rune
	other []rune
	row   []int
}

// hit is one recorded (entry, score) pair; an entry may be hit through
// several keys and tiers, and more than once, before Lookup keeps its best.
type hit struct {
	e     *ranked
	score float64
	via   string
}

// Lookup resolves a word or phrase to scored entries, best first.
// Tiers: exact/stem match (1.0), synonym match (0.9), fuzzy match
// (threshold–1.0, scaled by 0.85). Ties break deterministically by kind
// (table < column < value) then name. The returned slice is the caller's.
func (ix *Index) Lookup(phrase string, opts LookupOptions) []Match {
	key := normPhrase(phrase)
	if key == "" {
		return nil
	}
	sc := ix.scratch.Get().(*scratch)
	defer ix.scratch.Put(sc)
	sc.hits = sc.hits[:0]
	allowed := kindMask(opts.KindFilter)

	self, found := ix.ids[key]
	if found {
		ix.record(sc, self, allowed, 1.0, "exact")
	} else {
		self = -1
	}

	if !opts.NoSynonyms && ix.lex != nil && !strings.Contains(key, " ") {
		for _, syn := range ix.lex.Synonyms(key) {
			if syn == key {
				continue
			}
			if id, ok := ix.ids[syn]; ok {
				ix.record(sc, id, allowed, 0.9, "synonym")
			}
		}
	}

	if opts.FuzzyThreshold > 0 {
		ix.fuzzy(sc, key, self, allowed, opts.FuzzyThreshold)
	}

	// Keep each entry's best hit. Tiers score in disjoint ranges, so hits
	// that tie on entry and score are interchangeable.
	slices.SortFunc(sc.hits, func(a, b hit) int {
		return cmp.Or(cmp.Compare(a.e.ord, b.e.ord), cmp.Compare(b.score, a.score))
	})
	hits := sc.hits[:0]
	for _, h := range sc.hits {
		if len(hits) == 0 || h.e.ord != hits[len(hits)-1].e.ord {
			hits = append(hits, h)
		}
	}
	slices.SortFunc(hits, func(a, b hit) int {
		return cmp.Or(cmp.Compare(b.score, a.score), cmp.Compare(a.e.Kind, b.e.Kind), cmp.Compare(a.e.ord, b.e.ord))
	})
	out := make([]Match, len(hits))
	for i, h := range hits {
		out[i] = Match{Entry: h.e.Entry, Score: h.score, Via: h.via}
	}
	return out
}

// record adds a hit for every entry of an allowed kind under key id.
func (ix *Index) record(sc *scratch, id int32, allowed uint8, score float64, via string) {
	ents := ix.entries[ix.keys[id].ents:ix.keys[id+1].ents]
	for i := range ents {
		if allowed&(1<<ents[i].Kind) != 0 {
			sc.hits = append(sc.hits, hit{e: &ents[i], score: score, via: via})
		}
	}
}

// kindMask is the set of kinds a filter admits, one bit per kind.
func kindMask(filter []Kind) uint8 {
	if len(filter) == 0 {
		return 1<<KindTable | 1<<KindColumn | 1<<KindValue
	}
	var m uint8
	for _, k := range filter {
		if k >= KindTable && k <= KindValue {
			m |= 1 << k
		}
	}
	return m
}

// Size returns the number of distinct normalized keys (for dataset stats).
func (ix *Index) Size() int { return len(ix.keys) - 1 }
