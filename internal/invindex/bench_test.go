package invindex

import (
	"math/rand"
	"strings"
	"testing"

	"nlidb/internal/lexicon"
)

var benchSink []Match

// BenchmarkLookupVocab is the vocabulary curve: one Lookup at the product
// threshold over generated vocabularies of 2k, 20k and 200k values, half
// of them multi-word, for the three query shapes a question produces — a
// word that is a key, a word one edit away from a key, and a three-word
// window (probed at 0.9, as nlq.MatchSpans does). Each sub-benchmark
// cycles through 256 queries so no single posting list decides the
// number. DESIGN.md records the curve.
func BenchmarkLookupVocab(b *testing.B) {
	for _, size := range []struct {
		name string
		n    int
	}{{"2k", 2000}, {"20k", 20000}, {"200k", 200000}} {
		b.Run("keys="+size.name, func(b *testing.B) {
			v := newVocab(b, size.n, 0.5, 41)
			ix := Build(v.db, lexicon.New())
			rng := rand.New(rand.NewSource(42))
			var words, typos, phrases []string
			for len(words) < 256 || len(phrases) < 256 {
				val := v.values[rng.Intn(len(v.values))]
				switch n := len(strings.Fields(val)); {
				case n == 1 && len(words) < 256:
					words = append(words, val)
					typos = append(typos, EditOnce(rng, val))
				case n == 3 && len(phrases) < 256:
					phrases = append(phrases, val)
				}
			}
			for _, shape := range []struct {
				name    string
				queries []string
				opts    LookupOptions
			}{
				{"word", words, DefaultOptions()},
				{"typo", typos, DefaultOptions()},
				{"phrase3", phrases, LookupOptions{FuzzyThreshold: 0.9}},
			} {
				b.Run(shape.name, func(b *testing.B) {
					b.ReportAllocs()
					b.ReportMetric(float64(ix.Size()), "keys")
					for i := 0; i < b.N; i++ {
						benchSink = ix.Lookup(shape.queries[i%len(shape.queries)], shape.opts)
					}
				})
			}
		})
	}
}

var benchIndex *Index

// BenchmarkBuildVocab is the cost of one Build over 2,000 values.
func BenchmarkBuildVocab(b *testing.B) {
	v := newVocab(b, 2000, 0.5, 41)
	lex := lexicon.New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchIndex = Build(v.db, lex)
	}
}
