package dialogue

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"

	"nlidb/internal/invindex"
	"nlidb/internal/resilient"
	"nlidb/internal/sqldata"
	"nlidb/internal/sqlparse"
)

// Asker is the serving stack a dialogue manager runs over: a
// *resilient.Gateway, or a *shard.Cluster when the data is partitioned.
// A full question goes through Ask, with the chain, breakers, answer cache
// and spans that /query gets; a follow-up the manager resolved against its
// context goes through AskSQL. Implementations must be safe for
// concurrent use.
type Asker interface {
	Ask(ctx context.Context, question string) (*resilient.Answer, error)
	resilient.Executor
}

// Response is what a dialogue manager returns for one utterance.
type Response struct {
	// SQL is the resolved query (nil for greetings/errors).
	SQL *sqlparse.SelectStmt
	// Result is the executed answer (nil when SQL is nil).
	Result *sqldata.Result
	// Message is the conversational reply.
	Message string
	// Answer is the serving-stack answer behind Result (nil when SQL is
	// nil): engine provenance, usage meters, and the turn's trace.
	Answer *resilient.Answer
}

// Manager is a dialogue manager bound to one database.
//
// Goroutine-safety contract: Respond serializes turns internally — the
// manager's own conversational context is mutated under a lock, so
// concurrent Respond calls interleave as whole turns, never mid-turn.
// For one conversation per caller (a session store holding many live
// conversations over one shared manager), use RespondWith, which keeps all
// per-conversation state in the caller's *Context: the resolver index is
// immutable, so one manager serves any number of conversations
// concurrently, as long as each Context sees one turn at a time.
type Manager interface {
	// Name identifies the family in experiment tables.
	Name() string
	// Respond processes one utterance in conversation order. The context
	// cancels mid-turn work: a caller that goes away stops the underlying
	// execution instead of burning budget on an unwanted answer.
	Respond(ctx context.Context, utterance string) (*Response, error)
	// Reset clears conversational state between conversations.
	Reset()
}

// reply is the response surface of one served answer.
func reply(ans *resilient.Answer) *Response {
	return &Response{
		SQL: ans.SQL, Result: ans.Result, Answer: ans,
		Message: fmt.Sprintf("%d row(s).", len(ans.Result.Rows)),
	}
}

// finishTurn advances the conversational context with a served answer.
// Shared by the frame and agent families (and by any future manager).
func finishTurn(conv *Context, ans *resilient.Answer, wasAggregate bool) *Response {
	if wasAggregate {
		conv.BeforeAggregate = rowContext(conv)
	} else {
		conv.BeforeAggregate = nil
	}
	conv.Remember(ans.SQL)
	return reply(ans)
}

// followUp executes a statement resolved against the context and
// advances the context with its answer: the statement runs with plans,
// budgets, and traces exactly like a stateless question.
func followUp(ctx context.Context, back Asker, conv *Context, stmt *sqlparse.SelectStmt, wasAggregate bool) (*Response, error) {
	ans, err := back.AskSQL(ctx, stmt.String())
	if err != nil {
		return &Response{Message: "That request failed to execute."}, err
	}
	return finishTurn(conv, ans, wasAggregate), nil
}

// --- finite-state manager ---------------------------------------------------

// FiniteState is the rule-based family: a fixed command grammar, no
// conversational context. Follow-ups fail; inputs outside the patterns are
// rejected — "restricting user input to predetermined words and phrases".
type FiniteState struct {
	back Asker
}

// NewFiniteState builds the manager over a serving backend.
func NewFiniteState(back Asker) *FiniteState {
	return &FiniteState{back: back}
}

// Name implements Manager.
func (f *FiniteState) Name() string { return "finite-state" }

// Reset implements Manager (stateless).
func (f *FiniteState) Reset() {}

// commandOpeners is the rigid grammar gate.
var commandOpeners = []string{
	"show", "list", "what", "which", "how", "count", "find", "display",
	"give", "top", "total", "average", "sum", "number", "who",
}

// Respond accepts only utterances matching the command grammar and treats
// each independently.
func (f *FiniteState) Respond(ctx context.Context, utterance string) (*Response, error) {
	if err := ctx.Err(); err != nil {
		return &Response{Message: "The request was cancelled."}, err
	}
	u := strings.ToLower(strings.TrimSpace(utterance))
	ok := false
	for _, c := range commandOpeners {
		if strings.HasPrefix(u, c+" ") || u == c {
			ok = true
			break
		}
	}
	if !ok {
		return &Response{Message: "Please phrase your request as a command, e.g. \"show …\" or \"how many …\"."},
			fmt.Errorf("dialogue: utterance outside the finite-state grammar")
	}
	ans, err := f.back.Ask(ctx, utterance)
	if err != nil {
		return &Response{Message: "I could not understand that command."}, err
	}
	return reply(ans), nil
}

// --- frame-based manager ----------------------------------------------------

// Frame is the frame/slot family: it tracks context as a frame (the
// previous query) and fills slots from follow-ups, but only recognizes
// follow-ups phrased with its slot patterns (the refine openers and the
// canonical aggregate/shift forms).
type Frame struct {
	back Asker
	res  *resolver

	mu  sync.Mutex
	ctx Context
}

// NewFrame builds the manager over a serving backend and ix, the index
// follow-ups resolve words through (in a serving process, the one the
// backend's interpreter chain uses). The index is immutable, so one Frame
// may serve concurrent conversations via RespondWith.
func NewFrame(ix *invindex.Index, back Asker) *Frame {
	return &Frame{back: back, res: &resolver{ix: ix}}
}

// Name implements Manager.
func (f *Frame) Name() string { return "frame" }

// Reset implements Manager.
func (f *Frame) Reset() {
	f.mu.Lock()
	f.ctx.Reset()
	f.mu.Unlock()
}

// Respond fills frame slots against the manager's own conversation.
func (f *Frame) Respond(ctx context.Context, utterance string) (*Response, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.RespondWith(ctx, &f.ctx, utterance)
}

// RespondWith resolves the turn against, and advances, the caller-owned
// conversation. Unrecognized follow-up phrasings are asked back to the
// user instead of being guessed.
func (f *Frame) RespondWith(ctx context.Context, conv *Context, utterance string) (*Response, error) {
	if err := ctx.Err(); err != nil {
		return &Response{Message: "The request was cancelled."}, err
	}
	intent := ClassifyIntent(utterance, conv.LastSQL != nil)
	switch intent {
	case IntentGreeting:
		return &Response{Message: "Hello! Ask me about the data."}, nil
	case IntentReset:
		conv.Reset()
		return &Response{Message: "Context cleared."}, nil
	case IntentRefine:
		// The frame requires the canonical "only …" slot phrasing, which
		// ClassifyIntent guarantees; anything its resolver cannot slot is
		// re-asked.
		stmt, err := f.res.refine(conv, utterance)
		if err != nil {
			return &Response{Message: "Which attribute should I filter by?"}, err
		}
		return followUp(ctx, f.back, conv, stmt, false)
	case IntentAggregate:
		stmt, err := f.res.aggregate(conv)
		if err != nil {
			return &Response{Message: "There is nothing to count yet."}, err
		}
		return followUp(ctx, f.back, conv, stmt, true)
	case IntentShift:
		// Frame-based systems track a projection slot only for the exact
		// "show their X" pattern.
		if !strings.HasPrefix(strings.ToLower(strings.TrimSpace(utterance)), "show their ") {
			return &Response{Message: "Which attribute would you like to see?"},
				fmt.Errorf("dialogue: shift outside frame patterns")
		}
		stmt, err := f.res.shift(conv, utterance)
		if err != nil {
			return &Response{Message: "Which attribute would you like to see?"}, err
		}
		return followUp(ctx, f.back, conv, stmt, false)
	default:
		ans, err := f.back.Ask(ctx, utterance)
		if err != nil {
			return &Response{Message: "I could not understand; try naming the data you need."}, err
		}
		return finishTurn(conv, ans, false), nil
	}
}

// --- agent-based manager ------------------------------------------------------

// Agent is the most flexible family: full context persistence, flexible
// follow-up phrasing, and recovery of an utterance no interpreter reads as
// a refinement of the context. "Agent-based systems are able to manage
// complex dialogues, where the user can initiate and lead the
// conversation."
type Agent struct {
	back Asker
	res  *resolver
	// IntentModel, when non-nil, augments the rule-based intent
	// classifier with the statistical one trained on ontology-generated
	// artifacts (Quamar et al.) — "agent-based methods … are typically
	// statistical models trained on corpora".
	IntentModel *IntentClassifier

	mu  sync.Mutex
	ctx Context
}

// NewAgent builds the manager over a serving backend and ix, the index
// follow-ups resolve words through (in a serving process, the one the
// backend's interpreter chain uses). The index is immutable, so one Agent
// may serve concurrent conversations via RespondWith.
func NewAgent(ix *invindex.Index, back Asker) *Agent {
	return &Agent{back: back, res: &resolver{ix: ix}}
}

// Name implements Manager.
func (a *Agent) Name() string { return "agent" }

// Reset implements Manager.
func (a *Agent) Reset() {
	a.mu.Lock()
	a.ctx.Reset()
	a.mu.Unlock()
}

// Respond resolves one turn of the manager's own conversation.
func (a *Agent) Respond(ctx context.Context, utterance string) (*Response, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.RespondWith(ctx, &a.ctx, utterance)
}

// RespondWith resolves the utterance against the caller-owned
// conversation: follow-up intents edit the context query (with free
// phrasing); full queries go through the backend's Ask.
func (a *Agent) RespondWith(ctx context.Context, conv *Context, utterance string) (*Response, error) {
	if err := ctx.Err(); err != nil {
		return &Response{Message: "The request was cancelled."}, err
	}
	intent := ClassifyIntent(utterance, conv.LastSQL != nil)
	// The statistical classifier can upgrade a generic "query" reading to
	// a context intent the rule patterns missed — never the reverse.
	if a.IntentModel != nil && intent == IntentQuery && conv.LastSQL != nil {
		name, p := a.IntentModel.Classify(utterance)
		if p >= 0.6 {
			switch name {
			case "refine":
				intent = IntentRefine
			case "count_result":
				intent = IntentAggregate
			}
		}
	}
	switch intent {
	case IntentGreeting:
		return &Response{Message: "Hi! What would you like to explore?"}, nil
	case IntentReset:
		conv.Reset()
		return &Response{Message: "Starting fresh."}, nil
	case IntentRefine:
		stmt, err := a.res.refine(conv, utterance)
		if err != nil {
			return &Response{Message: "I could not find that filter; can you name the attribute?"}, err
		}
		return followUp(ctx, a.back, conv, stmt, false)
	case IntentAggregate:
		stmt, err := a.res.aggregate(conv)
		if err != nil {
			return &Response{Message: "There is nothing to count yet."}, err
		}
		return followUp(ctx, a.back, conv, stmt, true)
	case IntentShift:
		stmt, err := a.res.shift(conv, utterance)
		if err != nil {
			return &Response{Message: "Which attribute should I show?"}, err
		}
		return followUp(ctx, a.back, conv, stmt, false)
	}

	ans, err := a.back.Ask(ctx, utterance)
	if errors.Is(err, resilient.ErrExhausted) {
		// Agent flexibility: an utterance no interpreter reads, said with
		// context, is retried as a refinement before giving up. Any other
		// failure — a refusal, a deadline — is a verdict and stands.
		if conv.LastSQL != nil {
			if stmt, rerr := a.res.refine(conv, utterance); rerr == nil {
				return followUp(ctx, a.back, conv, stmt, false)
			}
		}
		return &Response{Message: "I could not map that to the data."}, err
	}
	if err != nil {
		return &Response{Message: "That request failed to execute."}, err
	}
	return finishTurn(conv, ans, false), nil
}
