package resilient_test

import (
	"testing"

	"nlidb/internal/athena"
	"nlidb/internal/benchdata"
	"nlidb/internal/invindex"
	"nlidb/internal/keywordnl"
	"nlidb/internal/lexicon"
	"nlidb/internal/nlq"
	"nlidb/internal/parsenl"
	"nlidb/internal/patternnl"
	"nlidb/internal/resilient"
)

// indexed is what every chain engine offers: the index it resolves through.
type indexed interface{ Index() *invindex.Index }

// A chain is built over one inverted index: every engine of the default
// chain must hold the same *invindex.Index, where four engines built one
// by one each hold their own.
func TestChainByNamesBuildsOneIndex(t *testing.T) {
	d := benchdata.Sales(5)
	chain, err := resilient.ChainByNames(d.DB, lexicon.New(), resilient.DefaultChainNames)
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != len(resilient.DefaultChainNames) {
		t.Fatalf("chain has %d engines, want %d", len(chain), len(resilient.DefaultChainNames))
	}
	shared := chain[0].(indexed).Index()
	if shared == nil {
		t.Fatal("first engine has no index")
	}
	for _, eng := range chain {
		if ix := eng.(indexed).Index(); ix != shared {
			t.Errorf("engine %s holds index %p, the chain's first engine %p", eng.Name(), ix, shared)
		}
	}

	lex := lexicon.New()
	seen := map[*invindex.Index]string{}
	for _, name := range resilient.DefaultChainNames {
		eng, err := resilient.EngineByName(name, d.DB, lex)
		if err != nil {
			t.Fatal(err)
		}
		ix := eng.(indexed).Index()
		if other, dup := seen[ix]; dup {
			t.Errorf("EngineByName(%s) shares an index with %s; standalone engines own theirs", name, other)
		}
		seen[ix] = name
	}
}

// Sharing the index changes nothing an engine says: a chain built over one
// index and four engines built with their own New(db, lex) return the same
// interpretations — SQL text, score, explanation — on every domain's
// generated questions.
func TestSharedIndexChainInterpretsLikeStandaloneEngines(t *testing.T) {
	per := 60
	if testing.Short() {
		per = 15
	}
	for _, d := range benchdata.Domains(3) {
		chain := resilient.DefaultChain(d.DB, lexicon.New())
		lex := lexicon.New()
		standalone := []nlq.Interpreter{
			athena.New(d.DB, lex), parsenl.New(d.DB, lex), patternnl.New(d.DB, lex), keywordnl.New(d.DB, lex),
		}
		for i, alone := range standalone {
			name := alone.Name()
			if chain[i].Name() != name {
				t.Fatalf("chain[%d] is %s, want %s", i, chain[i].Name(), name)
			}
			for _, p := range d.GeneratePairs(per, 17) {
				got, gotErr := chain[i].Interpret(p.Question)
				want, wantErr := alone.Interpret(p.Question)
				if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
					t.Fatalf("%s/%s %q: chain engine error %v, standalone %v", d.Name, name, p.Question, gotErr, wantErr)
				}
				if diff := diffInterpretations(got, want); diff != "" {
					t.Fatalf("%s/%s %q: %s", d.Name, name, p.Question, diff)
				}
			}
		}
	}
}

func diffInterpretations(got, want []nlq.Interpretation) string {
	if len(got) != len(want) {
		return "different number of readings"
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.SQL.String() != w.SQL.String() || g.Score != w.Score || g.Explanation != w.Explanation {
			return "reading differs:\n  chain      " + g.SQL.String() + " | " + g.Explanation + "\n  standalone " + w.SQL.String() + " | " + w.Explanation
		}
	}
	return ""
}
