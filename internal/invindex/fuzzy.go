package invindex

import (
	"math/bits"
	"slices"
	"strings"

	"nlidb/internal/nlp"
)

// fuzzy records every key other than self whose similarity to the query
// reaches the threshold t: trigram Jaccard when the query or the key has a
// space (it penalizes uncovered words, so "in new york" does not swallow
// the key "customer" and a lone "york" does not match "new york"), edit
// distance relative to the longer string otherwise.
//
// Only keys on a few short posting lists, within a run of ids, are scored.
// Each choice below comes with the reason no key outside it can reach t;
// the bounds are evaluated with the float64 expressions the scores use, so
// rounding cannot make a bound stricter than the score it guards. A key
// may be scored more than once; Lookup keeps one hit per entry.
func (ix *Index) fuzzy(sc *scratch, key string, self int32, allowed uint8, t float64) {
	low := strings.ToLower(key)
	phrase := strings.Contains(key, " ")
	sc.grams = nlp.TrigramSet(sc.grams[:0], low)
	nGrams := len(sc.grams)
	sc.lists = sc.lists[:0]
	for _, g := range sc.grams {
		sc.lists = append(sc.lists, ix.postings(g))
	}

	// Jaccard, for every key when the query is a phrase and for phrase
	// keys otherwise. The score is inter/union. union >= nGrams, so a
	// match shares at least minShared of the query's trigrams, misses at
	// most nGrams-minShared, and is on the posting list of any
	// nGrams-minShared+1 of them: take the shortest. And inter/union <=
	// smaller/larger set, so a match's set has minShared to maxSize
	// trigrams; a word of r runes has at most r+2.
	minShared := 1
	for minShared <= nGrams && float64(minShared)/float64(nGrams) < t {
		minShared++
	}
	maxSize := nGrams
	for maxSize < len(ix.phrasesBySize)+len(ix.wordsByRunes) && float64(nGrams)/float64(maxSize+1) >= t {
		maxSize++
	}
	letters := letterMask(low)
	jaccard := func(id int32) {
		// A letter only one of them has sits in three or more trigrams
		// only that one has (where the letter first appears: as third,
		// second and first rune), and k such letters in k or more.
		onlyOurs, onlyTheirs := bits.OnesCount64(letters&^ix.letters[id]), bits.OnesCount64(ix.letters[id]&^letters)
		if onlyOurs > 0 {
			onlyOurs = max(onlyOurs, 3)
		}
		if onlyTheirs > 0 {
			onlyTheirs = max(onlyTheirs, 3)
		}
		if float64(nGrams-onlyOurs)/float64(nGrams+onlyTheirs) < t {
			return // inter <= nGrams-onlyOurs and union >= nGrams+onlyTheirs
		}
		k := &ix.keys[id]
		if id == self || k.kinds&allowed == 0 {
			return
		}
		theirs := ix.keyGrams[k.grams:ix.keys[id+1].grams]
		if float64(min(nGrams, len(theirs)))/float64(max(nGrams, len(theirs))) < t {
			return // a word's run bounds its set's size only from below
		}
		inter := nlp.CommonSorted(sc.grams, theirs)
		if sim := float64(inter) / float64(nGrams+len(theirs)-inter); sim >= t {
			ix.record(sc, id, allowed, 0.85*sim, "fuzzy")
		}
	}
	sc.rare = append(sc.rare[:0], sc.lists...)
	slices.SortFunc(sc.rare, func(a, b []int32) int { return len(a) - len(b) })
	for _, l := range sc.rare[:nGrams-minShared+1] {
		for _, id := range between(l, ix.phrasesBySize.first(minShared), ix.phrasesBySize.first(maxSize+1)) {
			jaccard(id)
		}
		if phrase {
			for _, id := range between(l, ix.wordsByRunes.first(minShared-2), ix.wordsByRunes.end()) {
				jaccard(id)
			}
		}
	}
	if phrase {
		return
	}

	// Edit distance, for word keys when the query is a word. The score is
	// 1 - d/longer, so a key of r runes matches within editBudget(r) edits
	// or not at all. Words of one budget form a run of ids (or a few).
	sc.query = nlp.AppendRunes(sc.query[:0], low)
	sc.where = nlp.Trigrams(sc.where[:0], low)
	runes := len(sc.query)
	edits := func(id int32, budget int) {
		// A letter one word has and the other lacks costs an edit.
		if theirs := ix.letters[id]; bits.OnesCount64(letters&^theirs) > budget || bits.OnesCount64(theirs&^letters) > budget {
			return
		}
		k := &ix.keys[id]
		if id == self || k.kinds&allowed == 0 {
			return
		}
		sc.other = nlp.AppendRunes(sc.other[:0], k.low)
		if need := len(sc.other) + 1; cap(sc.row) < need {
			sc.row = make([]int, need)
		}
		d := nlp.LevenshteinWithin(sc.query, sc.other, budget, sc.row[:cap(sc.row)])
		if d > budget {
			return
		}
		if sim := 1 - float64(d)/float64(max(runes, len(sc.other))); sim >= t {
			ix.record(sc, id, allowed, 0.85*sim, "fuzzy")
		}
	}
	// within scores the words with lo <= id < hi that can be within budget
	// edits of the query. Cut the query, one space of padding on each side
	// (the outer spaces' trigrams say nothing the inner ones don't), into
	// budget+1 pieces of three or more runes. An edit touches one piece,
	// so one piece survives whole, with every trigram inside it: a match
	// is on the shortest posting list of some piece. A query too short to
	// cut that often (only at thresholds well below the product's) scores
	// every word of the run.
	within := func(lo, hi int32, budget int) {
		// inRun is the run's part of the posting list of the query's
		// trigram at position at.
		inRun := func(at int) []int32 {
			i, _ := slices.BinarySearch(sc.grams, sc.where[at])
			return between(sc.lists[i], lo, hi)
		}
		pieces, padded := budget+1, runes+2
		if padded < 3*pieces {
			for id := lo; id < hi; id++ {
				edits(id, budget)
			}
			return
		}
		for p := 0; p < pieces; p++ {
			// Trigram at of sc.where starts one rune before rune at of
			// the singly padded query: from..to lie inside piece p.
			from, to := p*padded/pieces+1, (p+1)*padded/pieces-2
			shortest := inRun(from)
			for at := from + 1; at <= to; at++ {
				if l := inRun(at); len(l) < len(shortest) {
					shortest = l
				}
			}
			for _, id := range shortest {
				edits(id, budget)
			}
		}
	}
	budget, lo := -1, int32(0) // of the run of ids being collected
	for r, first := range ix.wordsByRunes {
		b := -1
		if r+1 < len(ix.wordsByRunes) { // the last rung only closes the run
			if first == ix.wordsByRunes[r+1] {
				continue // no word has r runes
			}
			b = editBudget(runes, r, t)
		}
		if b != budget {
			if budget >= 0 {
				within(lo, first, budget)
			}
			budget, lo = b, first
		}
	}
}

// letterMask hashes the runes of s other than spaces into 64 bits (a–z
// each get their own).
func letterMask(s string) uint64 {
	var m uint64
	for _, r := range s {
		if r != ' ' {
			m |= 1 << (r & 63)
		}
	}
	return m
}

// editBudget returns the largest edit distance d at which words of a and
// b runes still reach similarity t, that is 1 - d/max(a,b) >= t, or -1
// when their lengths alone already differ by more than that.
func editBudget(a, b int, t float64) int {
	longest := max(a, b)
	d := -1
	for d < longest && 1-float64(d+1)/float64(longest) >= t {
		d++
	}
	if max(a-b, b-a) > d {
		return -1
	}
	return d
}

// postings returns the ascending ids of the keys that contain trigram g.
func (ix *Index) postings(g uint64) []int32 {
	i, ok := slices.BinarySearch(ix.grams, g)
	if !ok {
		return nil
	}
	return ix.post[ix.postOff[i]:ix.postOff[i+1]]
}

// between returns the part of an ascending list with lo <= id < hi.
func between(list []int32, lo, hi int32) []int32 {
	from, _ := slices.BinarySearch(list, lo)
	to, _ := slices.BinarySearch(list, hi)
	return list[from:to]
}
