package qcache

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"nlidb/internal/nlp"
)

// Key normalizes a question into a cache key. Two questions get the same
// key exactly when the serving pipeline sees them identically:
//
//   - words are case-folded ("Top" ≡ "top" — interpreters consume
//     Token.Lower/Stem, never word case),
//   - small integral numbers are keyed by value ("5" ≡ "five" ≡ "005");
//     other numerics (decimals, huge literals) are keyed by their exact
//     surface form, where float round-tripping would be lossy,
//   - quoted phrases keep their case (a quoted literal may be matched
//     against data values, where case can be significant),
//   - whitespace between tokens is irrelevant.
//
// The encoding is prefix-free (kind tag + payload length + payload), so
// distinct token sequences can never collide — the FuzzCacheKey target
// asserts the companion property that key-equal questions interpret
// identically.
func Key(question string) string {
	toks := nlp.Tokenize(question)
	var b strings.Builder
	b.Grow(len(question) + 8*len(toks))
	for _, t := range toks {
		var tag byte
		var payload string
		switch t.Kind {
		case nlp.KindWord:
			tag, payload = 'w', t.Lower
		case nlp.KindNumber:
			tag, payload = 'n', numPayload(t)
		case nlp.KindQuoted:
			tag, payload = 'q', t.Text
		default:
			tag, payload = 'p', t.Text
		}
		b.WriteByte(tag)
		b.WriteString(strconv.Itoa(len(payload)))
		b.WriteByte(':')
		b.WriteString(payload)
	}
	return b.String()
}

// WithFingerprint prefixes a question key with a database fingerprint so
// entries cached against one database state never serve another: any
// mutation changes the fingerprint, orphaning (not flushing) old entries.
func WithFingerprint(fp uint64, key string) string {
	return fmt.Sprintf("%016x|%s", fp, key)
}

// WithContext prefixes a key with a dialogue-context fingerprint so the
// same utterance under different conversational context is never
// conflated ("how many are there" counts whatever the session was just
// looking at). A zero fingerprint means "no context" and returns the key
// unchanged, so context-free questions share cache entries with the
// stateless path. The "c" tag keeps the space prefix-free against
// WithFingerprint keys: a context key's first '|' sits at offset 17,
// a database-fingerprint key's at offset 16.
func WithContext(ctxFP uint64, key string) string {
	if ctxFP == 0 {
		return key
	}
	return fmt.Sprintf("c%016x|%s", ctxFP, key)
}

// numPayload is the canonical form of a numeric token. Small integral
// values use the value itself, so "five", "5", and "005" unify; both the
// tokenizer's digit accumulation and decimal formatting are exact below
// 1e15, so the form survives a re-tokenize round trip. Everything else
// (decimals, >15-digit literals) keeps the lowercased surface form —
// already comma-stripped by the tokenizer and made only of digits and
// dots, so it too re-tokenizes to itself.
func numPayload(t nlp.Token) string {
	if t.Num == math.Trunc(t.Num) && t.Num >= 0 && t.Num < 1e15 {
		return strconv.FormatInt(int64(t.Num), 10)
	}
	return t.Lower
}
