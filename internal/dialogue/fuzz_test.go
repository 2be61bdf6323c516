package dialogue

import (
	"context"
	"testing"

	"nlidb/internal/benchdata"
	"nlidb/internal/invindex"
	"nlidb/internal/lexicon"
)

// FuzzFollowUp throws arbitrary utterances at an agent that already holds
// dialogue context. The resolver paths (refine/aggregate/shift) do string
// surgery on user text against the previous SQL, which is exactly the
// kind of code fuzzing breaks; the invariants are no panic, and a
// response that names SQL also carries its result.
//
// The seed corpus doubles as the crasher regression suite: inputs that
// stress the follow-up grammar's edges (empty refinements, operators with
// no operand, unicode case folding, quotes, token-boundary abuse) stay
// checked on every ordinary `go test` run.
func FuzzFollowUp(f *testing.F) {
	for _, seed := range []string{
		"only those with credit over 20000",
		"only those",
		"only those with over",
		"only those with credit over",
		"just the corporate ones",
		"how many are there",
		"count them",
		"show their credit instead",
		"show their",
		"what about their segment instead",
		"only those with credit over 20000 and city Berlin",
		"only those with \"city\" 'Berlin'",
		"ONLY THOSE WITH CREDIT OVER 20000",
		"only those with İstanbul",
		"only  those\twith credit\nover 20000",
		"",
		" ",
		"only",
		"reset",
		"hello",
		"only those with credit over 99999999999999999999999999",
		"only those with credit over -1",
		"only those with credit over 2.5.3",
		"show their credit instead; drop table customer",
	} {
		f.Add(seed)
	}

	d := benchdata.Sales(60)
	lex := lexicon.New()
	ix := invindex.Build(d.DB, lex)
	agent := NewAgent(ix, testBackend(d, ix, lex))

	f.Fuzz(func(t *testing.T, utterance string) {
		// Fresh context with one prior turn, so follow-up intents engage.
		conv := &Context{}
		if _, err := agent.RespondWith(context.Background(), conv, "show customers with city Berlin"); err != nil {
			t.Skip("context-establishing turn failed; domain unusable")
		}
		r, err := agent.RespondWith(context.Background(), conv, utterance)
		if r == nil {
			t.Fatalf("nil response for %q (err %v)", utterance, err)
		}
		if err == nil && r.SQL != nil && r.Result == nil {
			t.Fatalf("response names SQL without a result for %q", utterance)
		}
	})
}
