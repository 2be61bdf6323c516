package qcache_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"nlidb/internal/lexicon"
	"nlidb/internal/nlq"
	"nlidb/internal/qcache"
	"nlidb/internal/resilient"
	"nlidb/internal/sqldata"
)

// fuzzDB is a tiny two-table database the real interpreters run over, so
// the fuzz property below exercises genuine interpretation, not stubs.
func fuzzDB() *sqldata.Database {
	db := sqldata.NewDatabase("shop")
	cust, err := db.CreateTable(&sqldata.Schema{Name: "customer", Columns: []sqldata.Column{
		{Name: "id", Type: sqldata.TypeInt, PrimaryKey: true},
		{Name: "name", Type: sqldata.TypeText},
		{Name: "city", Type: sqldata.TypeText},
	}})
	if err != nil {
		panic(err)
	}
	for i, r := range [][2]string{{"Ann", "Berlin"}, {"Bob", "Munich"}, {"Carol", "Berlin"}} {
		cust.MustInsert(sqldata.NewInt(int64(i+1)), sqldata.NewText(r[0]), sqldata.NewText(r[1]))
	}
	sale, err := db.CreateTable(&sqldata.Schema{
		Name: "sale",
		Columns: []sqldata.Column{
			{Name: "id", Type: sqldata.TypeInt, PrimaryKey: true},
			{Name: "customer_id", Type: sqldata.TypeInt},
			{Name: "amount", Type: sqldata.TypeFloat},
		},
		ForeignKeys: []sqldata.ForeignKey{{Column: "customer_id", RefTable: "customer", RefColumn: "id"}},
	})
	if err != nil {
		panic(err)
	}
	for i, amt := range []float64{10, 250.5, 99, 1200} {
		sale.MustInsert(sqldata.NewInt(int64(i+1)), sqldata.NewInt(int64(i%3+1)), sqldata.NewFloat(amt))
	}
	return db
}

// interpretAll summarizes how every engine in the default chain reads a
// question: per engine, the best candidate's SQL and score, or the error
// class. Question text itself is deliberately excluded (error messages
// embed it, and key-equal questions may differ in surface case).
func interpretAll(chain []nlq.Interpreter, q string) string {
	var sb strings.Builder
	for _, eng := range chain {
		sb.WriteString(eng.Name())
		sb.WriteByte('=')
		sb.WriteString(interpretOne(eng, q))
		sb.WriteByte(';')
	}
	return sb.String()
}

func interpretOne(eng nlq.Interpreter, q string) (out string) {
	defer func() {
		if r := recover(); r != nil {
			out = fmt.Sprintf("panic:%v", r)
		}
	}()
	ins, err := eng.Interpret(q)
	best, berr := nlq.Best(ins)
	if err != nil || berr != nil {
		if errors.Is(err, nlq.ErrNoInterpretation) || errors.Is(berr, nlq.ErrNoInterpretation) {
			return "nointerp"
		}
		return "error"
	}
	if best.SQL == nil {
		return "nosql"
	}
	return fmt.Sprintf("ok:%s|%.4f", best.SQL.String(), best.Score)
}

// FuzzCacheKey asserts the cache-key soundness property the answer cache
// depends on: two questions that normalize to the same key must be
// interpreted identically by every engine — otherwise a cache hit could
// serve the answer to a different question. Key-equal variants of each
// input are made by padding it and by changing its case;
// TestKeyEqualNumberFormsInterpretAlike covers the number forms.
func FuzzCacheKey(f *testing.F) {
	seeds := []string{
		"show customers in Berlin",
		"Top 5 customers by amount",
		"top five sales",
		`customers named "Ann"`,
		"sales over 1,000",
		"amount above 250.5",
		"COUNT of sales per city",
		"o'brien's year-to-date",
		"' lone quote then words",
		`mixed 'single "double' quotes`,
		"İstanbul customers",
		"007 customers",
		"",
		"   ",
		"customer; DROP TABLE customer",
	}
	for _, s := range seeds {
		f.Add(s)
	}

	db := fuzzDB()
	chain, err := resilient.ChainByNames(db, lexicon.New(), resilient.DefaultChainNames)
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, q string) {
		if len(q) > 200 {
			t.Skip("bound interpretation cost")
		}
		key := qcache.Key(q)
		variants := []string{" " + q + "\t ", strings.ToLower(q), strings.ToUpper(q)}
		base := ""
		for _, v := range variants {
			if v == q || qcache.Key(v) != key {
				// A variant is only obligated to interpret identically when
				// it actually normalizes to the same key (e.g. ToUpper can
				// legitimately change tokenization for some Unicode).
				continue
			}
			if base == "" {
				base = interpretAll(chain, q)
			}
			if got := interpretAll(chain, v); got != base {
				t.Fatalf("key-equal questions interpret differently\n   q %q -> %s\n   v %q -> %s\n key %q", q, base, v, got, key)
			}
		}
	})
}

// TestKeyEqualNumberFormsInterpretAlike: the key unifies a small integer
// written as a word, as digits and with leading zeros, and drops the
// thousands separators and whitespace between tokens, so every engine in
// the default chain must read each group of such questions the same way.
func TestKeyEqualNumberFormsInterpretAlike(t *testing.T) {
	chain, err := resilient.ChainByNames(fuzzDB(), lexicon.New(), resilient.DefaultChainNames)
	if err != nil {
		t.Fatal(err)
	}
	groups := [][]string{
		{"top five customers", "top 5 customers", "top 005 customers", "Top  Five  Customers"},
		{"top three sales by amount", "top 3 sales by amount", "top 03 sales by amount"},
		{"sales over 1,000", "sales over 1000", "Sales Over 1,000"},
		{"sales with amount above two", "sales with amount above 2", "sales with amount above 002"},
	}
	for _, g := range groups {
		want := interpretAll(chain, g[0])
		for _, q := range g[1:] {
			if qcache.Key(q) != qcache.Key(g[0]) {
				t.Fatalf("Key(%q) != Key(%q): the pair is not key-equal", q, g[0])
			}
			if got := interpretAll(chain, q); got != want {
				t.Errorf("key-equal questions interpret differently\n  %q -> %s\n  %q -> %s", g[0], want, q, got)
			}
		}
	}
}
