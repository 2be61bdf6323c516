package nlq

import (
	"sort"
	"strings"

	"nlidb/internal/invindex"
	"nlidb/internal/nlp"
)

// SpanMatch binds a contiguous token span [Start, End) to index entries.
type SpanMatch struct {
	Start, End int
	// Text is the covered surface text.
	Text string
	// Matches are the scored index hits, best first.
	Matches []invindex.Match
}

// Best returns the top match of the span.
func (s SpanMatch) Best() invindex.Match { return s.Matches[0] }

// MatchSpans greedily matches the longest token spans (up to 3 tokens)
// against the inverted index, left to right, skipping stopwords and
// punctuation at span starts. Each token belongs to at most one span.
func MatchSpans(toks []nlp.Token, ix *invindex.Index, opts invindex.LookupOptions) []SpanMatch {
	var spans []SpanMatch
	i := 0
	for i < len(toks) {
		t := toks[i]
		if t.Kind == nlp.KindPunct || t.Kind == nlp.KindNumber || t.IsStop() {
			i++
			continue
		}
		matched := false
		for l := 3; l >= 1; l-- {
			if i+l > len(toks) {
				continue
			}
			ok := true
			parts := make([]string, 0, l)
			for j := i; j < i+l; j++ {
				if toks[j].Kind == nlp.KindPunct || toks[j].Kind == nlp.KindNumber {
					ok = false
					break
				}
				parts = append(parts, toks[j].Text)
			}
			if !ok {
				continue
			}
			phrase := strings.Join(parts, " ")
			// Multi-word spans must match exactly or near-exactly; single
			// words get the caller's fuzziness. A caller that disabled
			// fuzzy matching, or is stricter still, keeps its setting.
			o := opts
			if l > 1 && o.FuzzyThreshold > 0 {
				o.FuzzyThreshold = max(o.FuzzyThreshold, 0.9)
			}
			ms := ix.Lookup(phrase, o)
			if len(ms) == 0 {
				continue
			}
			// A multi-word span only counts when it is clearly better than
			// what the first word alone would give, to avoid swallowing
			// unrelated neighbours.
			if l > 1 && ms[0].Score < 0.85 {
				continue
			}
			spans = append(spans, SpanMatch{Start: i, End: i + l, Text: phrase, Matches: ms})
			i += l
			matched = true
			break
		}
		if !matched {
			i++
		}
	}
	preferMentionedColumns(spans)
	return spans
}

// preferMentionedColumns re-ranks value matches inside each span: when a
// value string occurs in several columns ("Berlin" in both origin and
// destination), the reading whose column is itself mentioned elsewhere in
// the question wins. This is the standard disambiguation rule shared by
// the surveyed entity-based systems.
func preferMentionedColumns(spans []SpanMatch) {
	mentioned := map[string]bool{}
	for _, sp := range spans {
		if m := sp.Best(); m.Kind == invindex.KindColumn {
			mentioned[strings.ToLower(m.Table)+"."+strings.ToLower(m.Column)] = true
		}
	}
	if len(mentioned) == 0 {
		return
	}
	for i := range spans {
		ms := spans[i].Matches
		sort.SliceStable(ms, func(a, b int) bool {
			am := mentioned[strings.ToLower(ms[a].Table)+"."+strings.ToLower(ms[a].Column)] && ms[a].Kind == invindex.KindValue
			bm := mentioned[strings.ToLower(ms[b].Table)+"."+strings.ToLower(ms[b].Column)] && ms[b].Kind == invindex.KindValue
			if am != bm {
				return am
			}
			return false
		})
	}
}

// CompareOp is a comparison extracted from comparative phrasing.
type CompareOp struct {
	// Op is one of > >= < <= = !=.
	Op string
	// Value is the numeric operand.
	Value float64
	// TokenPos is the position of the number token.
	TokenPos int
	// ColumnHint is a nearby column-ish word, if any (the token right
	// before the comparative phrase, e.g. "salary" in "salary above 50").
	ColumnHint string
}

// comparativePhrases maps multi-token cue phrases to operators. Longer
// phrases are tried first.
var comparativePhrases = []struct {
	words []string
	op    string
}{
	{[]string{"greater", "than", "or", "equal", "to"}, ">="},
	{[]string{"less", "than", "or", "equal", "to"}, "<="},
	{[]string{"at", "least"}, ">="},
	{[]string{"at", "most"}, "<="},
	{[]string{"no", "more", "than"}, "<="},
	{[]string{"no", "less", "than"}, ">="},
	{[]string{"more", "than"}, ">"},
	{[]string{"greater", "than"}, ">"},
	{[]string{"larger", "than"}, ">"},
	{[]string{"bigger", "than"}, ">"},
	{[]string{"higher", "than"}, ">"},
	{[]string{"older", "than"}, ">"},
	{[]string{"less", "than"}, "<"},
	{[]string{"fewer", "than"}, "<"},
	{[]string{"smaller", "than"}, "<"},
	{[]string{"lower", "than"}, "<"},
	{[]string{"cheaper", "than"}, "<"},
	{[]string{"not", "equal", "to"}, "!="},
	{[]string{"equal", "to"}, "="},
	{[]string{"over"}, ">"},
	{[]string{"above"}, ">"},
	{[]string{"under"}, "<"},
	{[]string{"below"}, "<"},
	{[]string{"exactly"}, "="},
}

// FindComparisons extracts numeric comparison cues: a comparative phrase
// followed (within two tokens) by a number. "salary over 50000" yields
// {Op: ">", Value: 50000, ColumnHint: "salary"}.
func FindComparisons(toks []nlp.Token) []CompareOp {
	var out []CompareOp
	used := make([]bool, len(toks))
	for _, cp := range comparativePhrases {
		for i := 0; i+len(cp.words) <= len(toks); i++ {
			if used[i] {
				continue
			}
			ok := true
			for j, w := range cp.words {
				if toks[i+j].Lower != w {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			// Find the number within the next two tokens.
			numPos := -1
			for j := i + len(cp.words); j < len(toks) && j <= i+len(cp.words)+2; j++ {
				if toks[j].Kind == nlp.KindNumber {
					numPos = j
					break
				}
			}
			if numPos < 0 {
				continue
			}
			hint := ""
			for j := i - 1; j >= 0; j-- {
				if toks[j].Kind == nlp.KindWord && !toks[j].IsStop() {
					hint = toks[j].Lower
					break
				}
			}
			for j := i; j <= numPos; j++ {
				used[j] = true
			}
			out = append(out, CompareOp{Op: cp.op, Value: toks[numPos].Num, TokenPos: numPos, ColumnHint: hint})
		}
	}
	// Generic fallback: an unlisted "-er" comparative followed by "than"
	// and a number ("heavier than 20"). Direction defaults to ">" unless
	// the adjective is a known diminishing comparative.
	for i := 0; i+2 < len(toks); i++ {
		if used[i] || toks[i].POS != nlp.POSComparative || toks[i+1].Lower != "than" {
			continue
		}
		numPos := -1
		for j := i + 2; j < len(toks) && j <= i+4; j++ {
			if toks[j].Kind == nlp.KindNumber && !used[j] {
				numPos = j
				break
			}
		}
		if numPos < 0 {
			continue
		}
		op := ">"
		if diminishing[toks[i].Lower] {
			op = "<"
		}
		hint := ""
		for j := i - 1; j >= 0; j-- {
			if toks[j].Kind == nlp.KindWord && !toks[j].IsStop() {
				hint = toks[j].Lower
				break
			}
		}
		for j := i; j <= numPos; j++ {
			used[j] = true
		}
		out = append(out, CompareOp{Op: op, Value: toks[numPos].Num, TokenPos: numPos, ColumnHint: hint})
	}

	// "between X and Y" ranges.
	for i := 0; i+3 < len(toks); i++ {
		if toks[i].Lower == "between" && toks[i+1].Kind == nlp.KindNumber &&
			toks[i+2].Lower == "and" && toks[i+3].Kind == nlp.KindNumber {
			hint := ""
			for j := i - 1; j >= 0; j-- {
				if toks[j].Kind == nlp.KindWord && !toks[j].IsStop() {
					hint = toks[j].Lower
					break
				}
			}
			out = append(out, CompareOp{Op: ">=", Value: toks[i+1].Num, TokenPos: i + 1, ColumnHint: hint})
			out = append(out, CompareOp{Op: "<=", Value: toks[i+3].Num, TokenPos: i + 3, ColumnHint: hint})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TokenPos < out[j].TokenPos })
	return out
}

// diminishing lists comparatives whose direction is "less than".
var diminishing = map[string]bool{
	"lighter": true, "shorter": true, "slower": true, "cheaper": true,
	"smaller": true, "lower": true, "younger": true, "fewer": true,
	"less": true, "weaker": true, "poorer": true, "earlier": true,
}

// AggCue is an aggregation cue found in the question.
type AggCue struct {
	// Func is COUNT, SUM, AVG, MIN or MAX.
	Func string
	// TokenPos is where the cue appears.
	TokenPos int
}

// FindAggCues detects aggregate intent: "how many", "number of", "count"
// → COUNT; "total"/"sum" → SUM; "average"/"mean" → AVG; superlative words
// and "maximum"/"minimum" → MAX/MIN.
func FindAggCues(toks []nlp.Token) []AggCue {
	var out []AggCue
	for i, t := range toks {
		switch t.Lower {
		case "how":
			if i+1 < len(toks) && (toks[i+1].Lower == "many" || toks[i+1].Lower == "much") {
				out = append(out, AggCue{Func: "COUNT", TokenPos: i})
			}
		case "count":
			out = append(out, AggCue{Func: "COUNT", TokenPos: i})
		case "number":
			if i+1 < len(toks) && toks[i+1].Lower == "of" {
				out = append(out, AggCue{Func: "COUNT", TokenPos: i})
			}
		case "total", "sum", "overall":
			out = append(out, AggCue{Func: "SUM", TokenPos: i})
		case "average", "mean", "avg":
			out = append(out, AggCue{Func: "AVG", TokenPos: i})
		case "maximum", "max", "highest", "largest", "biggest", "longest", "latest", "newest", "most":
			out = append(out, AggCue{Func: "MAX", TokenPos: i})
		case "minimum", "min", "lowest", "smallest", "shortest", "cheapest", "earliest", "oldest", "least", "fewest":
			out = append(out, AggCue{Func: "MIN", TokenPos: i})
		}
	}
	return out
}

// GroupCue marks "by X" / "per X" / "for each X" grouping phrases,
// pointing at the token position of the grouping word X.
type GroupCue struct {
	// TokenPos is the position of the first token of the grouping phrase
	// target (the X in "by X").
	TokenPos int
}

// FindGroupCues detects grouping intent. The returned positions point at
// the token after the cue word ("by"/"per"/"each").
func FindGroupCues(toks []nlp.Token) []GroupCue {
	var out []GroupCue
	for i, t := range toks {
		next := i + 1
		switch t.Lower {
		case "per":
			if next < len(toks) {
				out = append(out, GroupCue{TokenPos: next})
			}
		case "each", "every":
			if next < len(toks) {
				out = append(out, GroupCue{TokenPos: next})
			}
		case "by":
			// "by X" groups unless X is a number ("by 10 percent").
			if next < len(toks) && toks[next].Kind != nlp.KindNumber {
				out = append(out, GroupCue{TokenPos: next})
			}
		}
	}
	return out
}

// TopKCue is a "top N ... by C" / superlative ordering cue.
type TopKCue struct {
	// K is the limit; 1 for bare superlatives.
	K int
	// Desc is true for "top/highest/most", false for "bottom/lowest".
	Desc bool
	// TokenPos locates the cue.
	TokenPos int
}

// FindTopK detects "top 5", "5 most expensive", "highest paid", "bottom
// three" style cues.
func FindTopK(toks []nlp.Token) *TopKCue {
	for i, t := range toks {
		switch t.Lower {
		case "top", "first":
			k := 1
			if i+1 < len(toks) && toks[i+1].Kind == nlp.KindNumber {
				k = int(toks[i+1].Num)
			}
			return &TopKCue{K: k, Desc: true, TokenPos: i}
		case "bottom", "last":
			k := 1
			if i+1 < len(toks) && toks[i+1].Kind == nlp.KindNumber {
				k = int(toks[i+1].Num)
			}
			return &TopKCue{K: k, Desc: false, TokenPos: i}
		}
	}
	// "N most/least X" and bare superlatives over an entity ("the most
	// expensive product", "the cheapest hotel").
	for i, t := range toks {
		if t.POS != nlp.POSSuperlative {
			continue
		}
		k := 1
		if i > 0 && toks[i-1].Kind == nlp.KindNumber {
			k = int(toks[i-1].Num)
		}
		desc := true
		switch t.Lower {
		case "least", "lowest", "smallest", "cheapest", "minimum", "earliest", "oldest", "worst", "fewest", "shortest":
			desc = false
		}
		return &TopKCue{K: k, Desc: desc, TokenPos: i}
	}
	return nil
}

// SubCompare is a comparison against an aggregate rather than a number:
// "salary greater than the average salary" compares a property to a
// scalar sub-query. Only interpreters with a class-4 (nested) ceiling
// consume these.
type SubCompare struct {
	// Op is the comparison operator.
	Op string
	// CmpPos is the position of the comparative phrase.
	CmpPos int
	// AggFunc is the aggregate of the sub-query (AVG, MAX, MIN, SUM).
	AggFunc string
	// AggPos is the position of the aggregate cue.
	AggPos int
	// ColumnHint is the word before the comparative (outer property).
	ColumnHint string
}

// FindSubqueryComparisons detects comparative phrases followed by an
// aggregate cue instead of a number.
func FindSubqueryComparisons(toks []nlp.Token) []SubCompare {
	var out []SubCompare
	aggWord := func(w string) string {
		switch w {
		case "average", "mean", "avg":
			return "AVG"
		case "maximum", "max", "highest", "largest", "biggest":
			return "MAX"
		case "minimum", "min", "lowest", "smallest", "cheapest":
			return "MIN"
		case "total", "sum":
			return "SUM"
		}
		return ""
	}
	for _, cp := range comparativePhrases {
		for i := 0; i+len(cp.words) <= len(toks); i++ {
			ok := true
			for j, w := range cp.words {
				if toks[i+j].Lower != w {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			// An aggregate cue within the next three tokens (allowing
			// "the"): "greater than the average ...".
			for j := i + len(cp.words); j < len(toks) && j <= i+len(cp.words)+2; j++ {
				if toks[j].Kind == nlp.KindNumber {
					break // plain numeric comparison, not nested
				}
				if f := aggWord(toks[j].Lower); f != "" {
					hint := ""
					for k := i - 1; k >= 0; k-- {
						if toks[k].Kind == nlp.KindWord && !toks[k].IsStop() {
							hint = toks[k].Lower
							break
						}
					}
					out = append(out, SubCompare{Op: cp.op, CmpPos: i, AggFunc: f, AggPos: j, ColumnHint: hint})
					break
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].CmpPos < out[j].CmpPos })
	// Deduplicate overlapping phrase matches ("greater than" inside
	// "greater than or equal to") keeping the earliest-longest.
	var dedup []SubCompare
	for _, s := range out {
		if len(dedup) > 0 && dedup[len(dedup)-1].AggPos == s.AggPos {
			continue
		}
		dedup = append(dedup, s)
	}
	return dedup
}

// Analysis bundles every linguistic annotation an interpreter might use.
// The interpreter families differ in which parts they consume: keyword
// systems use only Spans; pattern systems add cues on a single table;
// parse-based systems add joins; ontology-driven systems add nesting.
type Analysis struct {
	Tokens      []nlp.Token
	Spans       []SpanMatch
	Comparisons []CompareOp
	SubCompares []SubCompare
	AggCues     []AggCue
	GroupCues   []GroupCue
	TopK        *TopKCue
	NegationPos int // -1 when absent
}

// Analyze tokenizes, tags, and runs all cue detectors over a question.
func Analyze(question string, ix *invindex.Index, opts invindex.LookupOptions) *Analysis {
	toks := nlp.Tag(nlp.Tokenize(question))
	a := &Analysis{
		Tokens:      toks,
		Spans:       MatchSpans(toks, ix, opts),
		Comparisons: FindComparisons(toks),
		SubCompares: FindSubqueryComparisons(toks),
		AggCues:     FindAggCues(toks),
		GroupCues:   FindGroupCues(toks),
		TopK:        FindTopK(toks),
		NegationPos: -1,
	}
	if pos, ok := HasNegation(toks); ok {
		a.NegationPos = pos
	}
	// Aggregate cues that belong to a nested comparison ("... than the
	// average salary") are not outer-query aggregates, and a superlative
	// inside one must not drive top-k either.
	if len(a.SubCompares) > 0 {
		subAgg := map[int]bool{}
		for _, s := range a.SubCompares {
			subAgg[s.AggPos] = true
		}
		kept := a.AggCues[:0]
		for _, c := range a.AggCues {
			if !subAgg[c.TokenPos] {
				kept = append(kept, c)
			}
		}
		a.AggCues = kept
		if a.TopK != nil && subAgg[a.TopK.TokenPos] {
			a.TopK = nil
		}
	}
	// A superlative that drives TopK must not double as a MAX/MIN cue.
	if a.TopK != nil {
		kept := a.AggCues[:0]
		for _, c := range a.AggCues {
			if c.TokenPos != a.TopK.TokenPos {
				kept = append(kept, c)
			}
		}
		a.AggCues = kept
	}
	return a
}

// SpanAt returns the span covering token position p, if any.
func (a *Analysis) SpanAt(p int) *SpanMatch {
	for i := range a.Spans {
		if p >= a.Spans[i].Start && p < a.Spans[i].End {
			return &a.Spans[i]
		}
	}
	return nil
}

// HasNegation reports whether the tokens contain an exclusion cue
// ("without", "no", "not", "except") before position limit (-1: anywhere).
func HasNegation(toks []nlp.Token) (int, bool) {
	for i, t := range toks {
		if t.POS == nlp.POSNeg {
			return i, true
		}
	}
	return -1, false
}
