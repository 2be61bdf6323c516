package nlp

import (
	"math/rand"
	"strings"
	"testing"
)

// The map- and copy-based implementations the allocation-free ones
// replaced, kept as oracles: results must agree exactly.

func levenshteinRef(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

func similarityRef(a, b string) float64 {
	a, b = strings.ToLower(a), strings.ToLower(b)
	if a == b {
		return 1
	}
	longest := max(len([]rune(a)), len([]rune(b)))
	return 1 - float64(levenshteinRef(a, b))/float64(longest)
}

func trigramsRef(s string) map[string]bool {
	rs := []rune("  " + s + "  ")
	out := make(map[string]bool)
	for i := 0; i+3 <= len(rs); i++ {
		out[string(rs[i:i+3])] = true
	}
	return out
}

func trigramJaccardRef(a, b string) float64 {
	ta, tb := trigramsRef(strings.ToLower(a)), trigramsRef(strings.ToLower(b))
	inter := 0
	for g := range ta {
		if tb[g] {
			inter++
		}
	}
	return float64(inter) / float64(len(ta)+len(tb)-inter)
}

// randomText draws short strings over a small alphabet (so edits and
// shared trigrams are common) with spaces, non-ASCII runes, and now and
// then a byte that is not valid UTF-8; a few are longer than the stack
// buffers.
func randomText(rng *rand.Rand) string {
	alphabet := []string{"a", "b", "c", "d", "e", "A", "B", " ", "é", "ß", "日", "\xff"}
	n := rng.Intn(12)
	if rng.Intn(20) == 0 {
		n = stackRunes + rng.Intn(40)
	}
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteString(alphabet[rng.Intn(len(alphabet))])
	}
	return sb.String()
}

func TestSimilarityFunctionsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		a, b := randomText(rng), randomText(rng)
		if rng.Intn(4) == 0 && len(a) > 0 { // a near-copy: one byte dropped
			cut := rng.Intn(len(a))
			b = a[:cut] + a[cut+1:]
		}
		if got, want := Levenshtein(a, b), levenshteinRef(a, b); got != want {
			t.Fatalf("Levenshtein(%q,%q) = %d, want %d", a, b, got, want)
		}
		if got, want := Similarity(a, b), similarityRef(a, b); got != want {
			t.Fatalf("Similarity(%q,%q) = %v, want %v", a, b, got, want)
		}
		if got, want := TrigramJaccard(a, b), trigramJaccardRef(a, b); got != want {
			t.Fatalf("TrigramJaccard(%q,%q) = %v, want %v", a, b, got, want)
		}
	}
}

func TestLevenshteinWithinEveryBound(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	row := make([]int, 2*stackRunes+64)
	for i := 0; i < 5000; i++ {
		a, b := randomText(rng), randomText(rng)
		ra, rb := []rune(a), []rune(b)
		d := levenshteinRef(a, b)
		for k := 0; k <= max(len(ra), len(rb))+1; k++ {
			want := min(d, k+1)
			if got := LevenshteinWithin(ra, rb, k, row); got != want {
				t.Fatalf("LevenshteinWithin(%q,%q,k=%d) = %d, want %d (distance %d)", a, b, k, got, want, d)
			}
		}
	}
}

func TestSimilarityFunctionsDoNotAllocateOnShortStrings(t *testing.T) {
	a, b := "new york city", "new yorke citi"
	var sink float64
	if n := testing.AllocsPerRun(100, func() {
		sink += Similarity(a, b) + TrigramJaccard(a, b) + float64(Levenshtein(a, b))
	}); n != 0 {
		t.Errorf("similarity functions allocate %v objects per call on short strings, want 0", n)
	}
	_ = sink
}
