package dialogue

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"nlidb/internal/athena"
	"nlidb/internal/benchdata"
	"nlidb/internal/invindex"
	"nlidb/internal/lexicon"
	"nlidb/internal/nlq"
	"nlidb/internal/qcache"
	"nlidb/internal/resilient"
)

// selfCancelBackend cancels the turn's context the moment the backend
// starts on it, simulating a caller that goes away mid-turn.
type selfCancelBackend struct {
	cancel context.CancelFunc
}

func (b selfCancelBackend) Ask(ctx context.Context, question string) (*resilient.Answer, error) {
	return b.AskSQL(ctx, question)
}

func (b selfCancelBackend) AskSQL(ctx context.Context, sql string) (*resilient.Answer, error) {
	b.cancel()
	<-ctx.Done()
	return nil, ctx.Err()
}

func TestRespondCancelledBeforeTurn(t *testing.T) {
	_, _, agent, _ := managers(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r, err := agent.Respond(ctx, "show customers with city Berlin")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if r == nil || r.Message == "" {
		t.Fatal("cancellation must still carry a conversational message")
	}
	if agent.ctx.LastSQL != nil || agent.ctx.Turns != 0 {
		t.Fatal("cancelled turn advanced the conversation")
	}
}

// TestRespondCancelledMidTurn is the regression test for cancellation
// arriving while the question is being served: the turn must
// return the cancellation error and leave the conversational context
// exactly as it was — a half-applied turn would poison every follow-up.
func TestRespondCancelledMidTurn(t *testing.T) {
	ix := invindex.Build(benchdata.Sales(60).DB, lexicon.New())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	agent := NewAgent(ix, selfCancelBackend{cancel: cancel})

	r, err := agent.Respond(ctx, "show customers with city Berlin")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if r == nil || r.SQL != nil || r.Result != nil {
		t.Fatalf("cancelled turn leaked a result: %+v", r)
	}
	if agent.ctx.LastSQL != nil || agent.ctx.Turns != 0 {
		t.Fatal("mid-turn cancellation advanced the conversation")
	}
}

// TestFollowUpHitsPlanCache pins the point of executing dialogue turns
// through the gateway instead of a private engine: a follow-up whose
// resolved SQL was planned before reuses the shared physical-plan cache,
// visible as the plan_cache=hit attribute on the turn's plan span.
func TestFollowUpHitsPlanCache(t *testing.T) {
	d := benchdata.Sales(60)
	lex := lexicon.New()
	ix := invindex.Build(d.DB, lex)
	gw := resilient.New(d.DB, []nlq.Interpreter{athena.New(d.DB, ix, lex)}, resilient.Config{
		PlanCache: qcache.New(qcache.Config{MaxEntries: 64}),
	})
	agent := NewAgent(ix, gw)

	run := func() *Response {
		t.Helper()
		conv := &Context{}
		if _, err := agent.RespondWith(context.Background(), conv, "show customers with city Berlin"); err != nil {
			t.Fatal(err)
		}
		r, err := agent.RespondWith(context.Background(), conv, "only those with credit over 20000")
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	run() // cold: plans both statements
	r := run()
	if r.Answer == nil || r.Answer.Trace == nil {
		t.Fatal("follow-up answer carries no trace")
	}
	plan := r.Answer.Trace.Find("plan")
	if plan == nil {
		t.Fatalf("no plan span in trace:\n%s", r.Answer.Trace)
	}
	if plan.Attr("plan_cache") != "hit" {
		t.Fatalf("repeated follow-up missed the plan cache:\n%s", r.Answer.Trace)
	}
}

// TestSharedManagerConcurrentConversations drives many conversations
// through one shared agent via RespondWith under the race detector: each
// conversation must resolve follow-ups against its own context only.
func TestSharedManagerConcurrentConversations(t *testing.T) {
	d := benchdata.Sales(60)
	lex := lexicon.New()
	ix := invindex.Build(d.DB, lex)
	agent := NewAgent(ix, testBackend(d, ix, lex))

	cities := []string{"Berlin", "Munich", "Hamburg"}
	var wg sync.WaitGroup
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			city := cities[i%len(cities)]
			conv := &Context{}
			r1, err := agent.RespondWith(context.Background(), conv, "show customers with city "+city)
			if err != nil {
				t.Error(err)
				return
			}
			r2, err := agent.RespondWith(context.Background(), conv, "how many are there")
			if err != nil {
				t.Error(err)
				return
			}
			// The count must match THIS conversation's rows — a bleed from a
			// concurrent conversation over another city would break it.
			if got, want := r2.Result.Rows[0][0].Int(), int64(len(r1.Result.Rows)); got != want {
				t.Errorf("conversation %d (%s): count %d != own rows %d — context bled across conversations", i, city, got, want)
			}
		}(i)
	}
	wg.Wait()
}

// scriptedAsk fails every full question with err and runs resolved
// statements through the gateway it embeds.
type scriptedAsk struct {
	*resilient.Gateway
	err error
}

func (b scriptedAsk) Ask(context.Context, string) (*resilient.Answer, error) { return nil, b.err }

// TestAgentRecoversOnlyAnExhaustedChain: an utterance no engine reads,
// said with context, is retried as a refinement of it; a refusal is a
// verdict on the question, so it comes back as is and the context stays.
func TestAgentRecoversOnlyAnExhaustedChain(t *testing.T) {
	d := benchdata.Sales(60)
	lex := lexicon.New()
	ix := invindex.Build(d.DB, lex)
	gw := testBackend(d, ix, lex)
	const utterance = "credit over 20000"
	open := func() *Context {
		t.Helper()
		conv := &Context{}
		if _, err := NewAgent(ix, gw).RespondWith(context.Background(), conv, "show customers with city Berlin"); err != nil {
			t.Fatal(err)
		}
		return conv
	}

	conv := open()
	exhausted := NewAgent(ix, scriptedAsk{gw, &resilient.ChainError{Question: utterance}})
	r, err := exhausted.RespondWith(context.Background(), conv, utterance)
	if err != nil || r.SQL == nil || !strings.Contains(r.SQL.String(), "credit > 20000") || !strings.Contains(r.SQL.String(), "Berlin") {
		t.Fatalf("exhausted chain: %v, %v; want the utterance applied as a refinement", r.SQL, err)
	}

	conv = open()
	refusal := &resilient.Refusal{Outcome: "budget", Err: errors.New("over budget")}
	refused := NewAgent(ix, scriptedAsk{gw, refusal})
	r, err = refused.RespondWith(context.Background(), conv, utterance)
	var got *resilient.Refusal
	if !errors.As(err, &got) || got != refusal || r.SQL != nil {
		t.Fatalf("refused question: %v, %v; want the refusal as is", r.SQL, err)
	}
	if conv.Turns != 1 {
		t.Fatalf("a refused turn advanced the context to %d turns", conv.Turns)
	}
}
