package nlp

import (
	"slices"
	"strings"
)

// stackRunes is the string length up to which the similarity functions
// work in stack buffers; longer inputs fall back to the heap.
const stackRunes = 64

// Levenshtein returns the edit distance between two strings (unit costs).
func Levenshtein(a, b string) int {
	d, _ := editDistance(a, b)
	return d
}

// editDistance returns the edit distance of a and b and the rune length
// of the longer one.
func editDistance(a, b string) (d, longest int) {
	var bufA, bufB [stackRunes]rune
	var bufRow [stackRunes + 1]int
	ra, rb := AppendRunes(bufA[:0], a), AppendRunes(bufB[:0], b)
	row := bufRow[:]
	if len(rb) >= len(row) {
		row = make([]int, len(rb)+1)
	}
	longest = max(len(ra), len(rb))
	return LevenshteinWithin(ra, rb, longest, row), longest
}

// AppendRunes appends the runes of s to dst, decoding as []rune(s) does.
func AppendRunes(dst []rune, s string) []rune {
	for _, r := range s {
		dst = append(dst, r)
	}
	return dst
}

// LevenshteinWithin returns the edit distance between a and b when it is
// at most k, and k+1 otherwise. It fills only the diagonal band of width
// 2k+1 — a cell further from the diagonal already costs more than k — and
// stops at the first row whose every cell exceeds k. row is scratch of at
// least len(b)+1 ints; nothing is allocated.
func LevenshteinWithin(a, b []rune, k int, row []int) int {
	over := k + 1
	if len(a)-len(b) > k || len(b)-len(a) > k {
		return over
	}
	for j := 0; j <= len(b); j++ {
		row[j] = min(j, over)
	}
	for i := 1; i <= len(a); i++ {
		lo, hi := max(1, i-k), min(len(b), i+k)
		diag := row[lo-1]
		row[lo-1] = min(i, over) // column 0, or the cell left of the band
		best := row[lo-1]
		for j := lo; j <= hi; j++ {
			v := diag
			if a[i-1] != b[j-1] {
				v++
			}
			diag = row[j] // above; still `over` where the band just widened
			v = min(v, diag+1, row[j-1]+1, over)
			row[j] = v
			best = min(best, v)
		}
		if best > k {
			return over
		}
	}
	return row[len(b)]
}

// Similarity returns a [0,1] string similarity: 1 for equal strings,
// falling linearly with edit distance relative to the longer string.
// Comparison is case-insensitive.
func Similarity(a, b string) float64 {
	a, b = strings.ToLower(a), strings.ToLower(b)
	if a == b {
		return 1
	}
	d, longest := editDistance(a, b)
	return 1 - float64(d)/float64(longest)
}

// TrigramJaccard returns the Jaccard similarity of the character-trigram
// sets of two strings — robust to word reordering within short phrases.
func TrigramJaccard(a, b string) float64 {
	var bufA, bufB [stackRunes + 2]uint64
	ta := TrigramSet(bufA[:0], strings.ToLower(a))
	tb := TrigramSet(bufB[:0], strings.ToLower(b))
	inter := CommonSorted(ta, tb)
	return float64(inter) / float64(len(ta)+len(tb)-inter)
}

// Trigrams appends to dst the character trigrams of s padded with two
// spaces on each side, in order of position: one more than s has runes,
// plus one. A trigram is its three runes packed 21 bits each into a
// uint64, so distinct trigrams never collide and comparing needs no
// hashing.
func Trigrams(dst []uint64, s string) []uint64 {
	const mask = 1<<63 - 1 // three 21-bit runes
	g := uint64(' ')<<21 | ' '
	for _, r := range s {
		g = (g<<21 | uint64(r)) & mask
		dst = append(dst, g)
	}
	for i := 0; i < 2; i++ {
		g = (g<<21 | ' ') & mask
		dst = append(dst, g)
	}
	return dst
}

// TrigramSet appends to dst the set of trigrams of s (see Trigrams; never
// empty), sorted ascending.
func TrigramSet(dst []uint64, s string) []uint64 {
	start := len(dst)
	dst = Trigrams(dst, s)
	set := dst[start:]
	slices.Sort(set)
	return dst[:start+len(slices.Compact(set))]
}

// CommonSorted counts the values two ascending duplicate-free slices share.
func CommonSorted(a, b []uint64) int {
	n := 0
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// TokenSetSimilarity compares two multi-word phrases by the best pairwise
// word similarity, averaged over the smaller phrase. It makes "customer
// name" match "name of the customer" highly.
func TokenSetSimilarity(a, b string) float64 {
	wa := strings.Fields(strings.ToLower(a))
	wb := strings.Fields(strings.ToLower(b))
	if len(wa) == 0 || len(wb) == 0 {
		if len(wa) == len(wb) {
			return 1
		}
		return 0
	}
	if len(wa) > len(wb) {
		wa, wb = wb, wa
	}
	var total float64
	for _, x := range wa {
		best := 0.0
		for _, y := range wb {
			if s := Similarity(Stem(x), Stem(y)); s > best {
				best = s
			}
		}
		total += best
	}
	return total / float64(len(wa))
}

// NormalizeIdent splits a schema identifier into natural words:
// "customer_name" and "CustomerName" both become "customer name".
func NormalizeIdent(ident string) string {
	var words []string
	var cur []rune
	flush := func() {
		if len(cur) > 0 {
			words = append(words, strings.ToLower(string(cur)))
			cur = nil
		}
	}
	for i, r := range ident {
		switch {
		case r == '_' || r == ' ' || r == '-' || r == '.':
			flush()
		case r >= 'A' && r <= 'Z' && i > 0 && len(cur) > 0 && !(cur[len(cur)-1] >= 'A' && cur[len(cur)-1] <= 'Z'):
			flush()
			cur = append(cur, r)
		default:
			cur = append(cur, r)
		}
	}
	flush()
	return strings.Join(words, " ")
}
