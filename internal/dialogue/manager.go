package dialogue

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"nlidb/internal/invindex"
	"nlidb/internal/lexicon"
	"nlidb/internal/nlq"
	"nlidb/internal/resilient"
	"nlidb/internal/sqldata"
	"nlidb/internal/sqlparse"
)

// Executor runs a resolved SQL statement through the serving stack. In
// production it is a *resilient.Gateway (or the shard coordinator when the
// data is partitioned), so conversational turns get the same plan cache,
// resource budgets, deadlines, fault isolation, and trace spans as every
// stateless question — the dialogue layer owns *resolution*, never
// execution. Implementations must be safe for concurrent use.
type Executor = resilient.Executor

// Response is what a dialogue manager returns for one utterance.
type Response struct {
	// SQL is the resolved query (nil for greetings/errors).
	SQL *sqlparse.SelectStmt
	// Result is the executed answer (nil when SQL is nil).
	Result *sqldata.Result
	// Message is the conversational reply.
	Message string
	// Clarification, when non-nil, asks the user to choose a reading.
	Clarification *nlq.Clarification
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
// conversations over one shared manager), use the ContextResponder form,
// which keeps all per-conversation state in the caller's *Context.
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

// ContextResponder is the session-serving form of a dialogue manager: all
// per-conversation state lives in the caller-owned *Context, so one shared
// manager (its resolver indexes are immutable after construction) serves
// any number of live conversations concurrently, as long as each Context
// is touched by one turn at a time.
type ContextResponder interface {
	RespondWith(ctx context.Context, conv *Context, utterance string) (*Response, error)
}

// finishTurn executes a resolved statement through the serving stack and
// advances the conversational context. Shared by the frame and agent
// families (and by any future manager): the statement executes with plans,
// budgets, and traces exactly like a stateless question.
func finishTurn(ctx context.Context, exec Executor, conv *Context, stmt *sqlparse.SelectStmt, wasAggregate bool) (*Response, error) {
	ans, err := exec.AskSQL(ctx, stmt.String())
	if err != nil {
		return &Response{Message: "That request failed to execute."}, err
	}
	if wasAggregate {
		conv.BeforeAggregate = rowContext(conv)
	} else {
		conv.BeforeAggregate = nil
	}
	conv.Remember(ans.SQL)
	return &Response{
		SQL: ans.SQL, Result: ans.Result, Answer: ans,
		Message: fmt.Sprintf("%d row(s).", len(ans.Result.Rows)),
	}, nil
}

// --- finite-state manager ---------------------------------------------------

// FiniteState is the rule-based family: a fixed command grammar, no
// conversational context. Follow-ups fail; inputs outside the patterns are
// rejected — "restricting user input to predetermined words and phrases".
type FiniteState struct {
	interp nlq.Interpreter
	exec   Executor
}

// NewFiniteState builds the manager over an interpreter and an executor.
func NewFiniteState(interp nlq.Interpreter, exec Executor) *FiniteState {
	return &FiniteState{interp: interp, exec: exec}
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
	ins, err := f.interp.Interpret(utterance)
	if err != nil {
		return &Response{Message: "I could not understand that command."}, err
	}
	best, _ := nlq.Best(ins)
	ans, err := f.exec.AskSQL(ctx, best.SQL.String())
	if err != nil {
		return &Response{Message: "That command failed to execute."}, err
	}
	return &Response{
		SQL: ans.SQL, Result: ans.Result, Answer: ans,
		Message: fmt.Sprintf("%d row(s).", len(ans.Result.Rows)),
	}, nil
}

// --- frame-based manager ----------------------------------------------------

// Frame is the frame/slot family: it tracks context as a frame (the
// previous query) and fills slots from follow-ups, but only recognizes
// follow-ups phrased with its slot patterns (the refine openers and the
// canonical aggregate/shift forms).
type Frame struct {
	interp nlq.Interpreter
	exec   Executor
	res    *resolver

	mu  sync.Mutex
	ctx Context
}

// NewFrame builds the manager. The resolver index over db is immutable
// after construction, so one Frame may serve concurrent conversations via
// RespondWith.
func NewFrame(db *sqldata.Database, interp nlq.Interpreter, lex *lexicon.Lexicon, exec Executor) *Frame {
	return &Frame{interp: interp, exec: exec, res: &resolver{db: db, ix: invindex.Build(db, lex)}}
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

// RespondWith implements ContextResponder: the turn resolves and advances
// the caller-owned conversation. Unrecognized follow-up phrasings are
// asked back to the user instead of being guessed.
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
		return finishTurn(ctx, f.exec, conv, stmt, false)
	case IntentAggregate:
		stmt, err := f.res.aggregate(conv)
		if err != nil {
			return &Response{Message: "There is nothing to count yet."}, err
		}
		return finishTurn(ctx, f.exec, conv, stmt, true)
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
		return finishTurn(ctx, f.exec, conv, stmt, false)
	default:
		ins, err := f.interp.Interpret(utterance)
		if err != nil {
			return &Response{Message: "I could not understand; try naming the data you need."}, err
		}
		best, _ := nlq.Best(ins)
		return finishTurn(ctx, f.exec, conv, best.SQL, false)
	}
}

// --- agent-based manager ------------------------------------------------------

// Agent is the most flexible family: full context persistence, flexible
// follow-up phrasing, ranked-hypothesis recovery, and DialSQL-style
// validation against a user (simulated in experiments). "Agent-based
// systems are able to manage complex dialogues, where the user can
// initiate and lead the conversation."
type Agent struct {
	interp nlq.Interpreter
	exec   Executor
	res    *resolver
	// User, when non-nil, answers validation questions (DialSQL).
	User *UserSim
	// IntentModel, when non-nil, augments the rule-based intent
	// classifier with the statistical one trained on ontology-generated
	// artifacts (Quamar et al.) — "agent-based methods … are typically
	// statistical models trained on corpora".
	IntentModel *IntentClassifier

	mu  sync.Mutex
	ctx Context
}

// NewAgent builds the manager. The resolver index over db is immutable
// after construction, so one Agent may serve concurrent conversations via
// RespondWith.
func NewAgent(db *sqldata.Database, interp nlq.Interpreter, lex *lexicon.Lexicon, exec Executor) *Agent {
	return NewAgentWithIndex(db, interp, invindex.Build(db, lex), exec)
}

// NewAgentWithIndex is NewAgent over an index already built for db — the
// one the interpreter chain resolves words through, in a serving process.
func NewAgentWithIndex(db *sqldata.Database, interp nlq.Interpreter, ix *invindex.Index, exec Executor) *Agent {
	return &Agent{interp: interp, exec: exec, res: &resolver{db: db, ix: ix}}
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

// RespondWith implements ContextResponder: the utterance resolves against
// the caller-owned conversation — follow-up intents edit the context query
// (with free phrasing); full queries go through the interpreter; when a
// simulated user is attached, candidate queries are validated and
// lower-ranked hypotheses retried (DialSQL).
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
		return finishTurn(ctx, a.exec, conv, stmt, false)
	case IntentAggregate:
		stmt, err := a.res.aggregate(conv)
		if err != nil {
			return &Response{Message: "There is nothing to count yet."}, err
		}
		return finishTurn(ctx, a.exec, conv, stmt, true)
	case IntentShift:
		stmt, err := a.res.shift(conv, utterance)
		if err != nil {
			return &Response{Message: "Which attribute should I show?"}, err
		}
		return finishTurn(ctx, a.exec, conv, stmt, false)
	}

	ins, err := a.interp.Interpret(utterance)
	if err != nil {
		// Agent flexibility: an unparseable utterance with context is
		// retried as a refinement before giving up.
		if conv.LastSQL != nil {
			if stmt, rerr := a.res.refine(conv, utterance); rerr == nil {
				return finishTurn(ctx, a.exec, conv, stmt, false)
			}
		}
		return &Response{Message: "I could not map that to the data."}, err
	}

	// DialSQL-style validation loop over ranked hypotheses.
	if a.User != nil {
		for i, cand := range ins {
			if i >= 3 {
				break
			}
			if a.User.Validate(cand.SQL) {
				return finishTurn(ctx, a.exec, conv, cand.SQL, false)
			}
		}
	}
	best, _ := nlq.Best(ins)
	conv.Pending = ins
	return finishTurn(ctx, a.exec, conv, best.SQL, false)
}
