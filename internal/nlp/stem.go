package nlp

import "strings"

// Stem reduces an English word to a crude stem: a compact Porter-style
// suffix stripper sufficient for matching query words against schema terms
// ("customers"→"customer", "running"→"run", "salaries"→"salari"→"salary"
// via the special-case table). It is deterministic and dictionary-free.
func Stem(w string) string {
	w = strings.ToLower(w)
	if len(w) <= 3 {
		return w
	}
	if s, ok := irregular[w]; ok {
		return s
	}

	// Plural / verbal -s endings.
	switch {
	case strings.HasSuffix(w, "sses"):
		w = w[:len(w)-2] // classes → class
	case strings.HasSuffix(w, "ies") && len(w) > 4:
		w = w[:len(w)-3] + "y" // cities → city, salaries → salary
	case strings.HasSuffix(w, "xes") || strings.HasSuffix(w, "ches") || strings.HasSuffix(w, "shes"):
		w = w[:len(w)-2] // boxes → box, branches → branch
	case strings.HasSuffix(w, "ss") || strings.HasSuffix(w, "us") || strings.HasSuffix(w, "is"):
		// class, status, analysis: keep
	case strings.HasSuffix(w, "s") && !strings.HasSuffix(w, "es"):
		w = w[:len(w)-1] // customers → customer
	case strings.HasSuffix(w, "es") && len(w) > 4:
		w = w[:len(w)-1] // employees → employee
	}

	// -ing / -ed with restoration of a dropped 'e' for common patterns.
	switch {
	case strings.HasSuffix(w, "ing") && len(w) > 5:
		stem := w[:len(w)-3]
		if len(stem) >= 2 && stem[len(stem)-1] == stem[len(stem)-2] && !isVowel(stem[len(stem)-1]) {
			stem = stem[:len(stem)-1] // running → run
		} else if needsE(stem) {
			stem += "e" // hiring → hire
		}
		w = stem
	case strings.HasSuffix(w, "ed") && len(w) > 4:
		stem := w[:len(w)-2]
		if len(stem) >= 2 && stem[len(stem)-1] == stem[len(stem)-2] && !isVowel(stem[len(stem)-1]) {
			stem = stem[:len(stem)-1] // stopped → stop
		} else if needsE(stem) {
			stem += "e" // hired → hire
		}
		w = stem
	}
	return w
}

// needsE guesses whether a stem lost a final 'e' (consonant-vowel-consonant
// with the last consonant not w/x/y — the classic Porter 1b heuristic).
func needsE(s string) bool {
	n := len(s)
	if n < 3 {
		return false
	}
	c3, v, c1 := s[n-3], s[n-2], s[n-1]
	return !isVowel(c3) && isVowel(v) && !isVowel(c1) && c1 != 'w' && c1 != 'x' && c1 != 'y'
}

func isVowel(b byte) bool {
	switch b {
	case 'a', 'e', 'i', 'o', 'u':
		return true
	}
	return false
}

// irregular maps words whose stems the suffix rules get wrong.
var irregular = map[string]string{
	"people": "person", "children": "child", "men": "man", "women": "woman",
	"feet": "foot", "mice": "mouse", "geese": "goose", "teeth": "tooth",
	"data": "data", "media": "media", "series": "series", "species": "species",
	"criteria": "criterion", "indices": "index", "axes": "axis",
	"best": "good", "worst": "bad", "most": "most", "least": "least",
	"bought": "buy", "sold": "sell", "paid": "pay", "spent": "spend",
	"went": "go", "made": "make", "gave": "give", "took": "take",
	"this": "this", "his": "his",
}

// Pluralize renders a singular schema noun in the plural the way questions
// name it ("customer" → "customers", "city" → "cities"); a word already
// ending in "s" is returned unchanged.
func Pluralize(w string) string {
	switch {
	case strings.HasSuffix(w, "s"):
		return w
	case strings.HasSuffix(w, "y"):
		return w[:len(w)-1] + "ies"
	default:
		return w + "s"
	}
}
