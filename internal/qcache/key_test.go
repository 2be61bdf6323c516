package qcache

import "testing"

func TestKeyEquivalences(t *testing.T) {
	same := [][2]string{
		{"show customers in berlin", "Show Customers In BERLIN"},
		{"top 5 customers", "Top Five Customers"},
		{"top 5 customers", "top  5   customers"},
		{"top 5 customers", "top 005 customers"},
		{"a , b", "a,b"},
		{`name is "Ann"`, `name is  "Ann"`},
		{"one million rows", "1 1000000 rows"},
	}
	for _, p := range same {
		if Key(p[0]) != Key(p[1]) {
			t.Errorf("Key(%q) != Key(%q)\n  %q\n  %q", p[0], p[1], Key(p[0]), Key(p[1]))
		}
	}
}

func TestKeyDistinctions(t *testing.T) {
	diff := [][2]string{
		{`name is "Ann"`, `name is "ann"`},      // quoted case is semantic
		{"berlin", `"berlin"`},                  // word vs quoted literal
		{"ab c", "a bc"},                        // token boundaries matter
		{"price above 2.5", "price above 2.50"}, // decimals keep surface form
		{"top 5", "top 6"},
		{"", "x"},
	}
	for _, p := range diff {
		if Key(p[0]) == Key(p[1]) {
			t.Errorf("Key(%q) == Key(%q) = %q, want distinct", p[0], p[1], Key(p[0]))
		}
	}
}

func TestWithFingerprint(t *testing.T) {
	k := Key("customers")
	a, b := WithFingerprint(1, k), WithFingerprint(2, k)
	if a == b {
		t.Fatal("different fingerprints must give different keys")
	}
	if WithFingerprint(1, k) != a {
		t.Fatal("WithFingerprint must be deterministic")
	}
}

func TestWithContext(t *testing.T) {
	k := WithFingerprint(7, Key("how many are there"))
	if WithContext(0, k) != k {
		t.Fatal("zero context fingerprint must leave the key unchanged")
	}
	a, b := WithContext(1, k), WithContext(2, k)
	if a == b {
		t.Fatal("different context fingerprints must give different keys")
	}
	if WithContext(1, k) != a {
		t.Fatal("WithContext must be deterministic")
	}
	if a == k {
		t.Fatal("nonzero context fingerprint must change the key")
	}
}

// TestWithContextPrefixFree pins the framing: a context-keyed key can
// never collide with a fingerprint-keyed one, whatever the embedded
// question text is — the two prefixes put their first '|' at different
// offsets and WithContext's leading 'c' is not a hex digit.
func TestWithContextPrefixFree(t *testing.T) {
	seen := map[string]string{}
	for _, q := range []string{"x", "c deadbeef", "0123456789abcdef|x"} {
		base := WithFingerprint(0xfeed, Key(q))
		for name, k := range map[string]string{
			"plain":   base,
			"context": WithContext(0xbeef, base),
		} {
			if prev, ok := seen[k]; ok {
				t.Fatalf("key %q produced by both %s and %s", k, prev, name+" "+q)
			}
			seen[k] = name + " " + q
		}
	}
}
