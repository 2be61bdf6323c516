package session

import (
	"context"
	"fmt"
	"runtime/debug"
	"strconv"
	"time"

	"nlidb/internal/dialogue"
	"nlidb/internal/obs"
	"nlidb/internal/qcache"
	"nlidb/internal/resilient"
	"nlidb/internal/sqldata"
)

// Turn is the outcome of one utterance resolved inside a session.
type Turn struct {
	// Session is the conversation's ID.
	Session string
	// N is the 1-based turn number within the conversation.
	N int
	// Intent is the classified intent the utterance resolved under.
	Intent dialogue.Intent
	// ContextFP fingerprints the dialogue context the utterance resolved
	// against (0 = empty context, i.e. a context-free turn).
	ContextFP uint64
	// Cached marks a turn answered from a cache: a context-bearing turn
	// from the store's context-keyed turn cache, a context-free one from
	// the backend's answer cache.
	Cached bool
	// Resp is the dialogue response (always non-nil, even on error).
	Resp *dialogue.Response
	// Elapsed is the turn's wall-clock time.
	Elapsed time.Duration
	// TraceID names the turn's trace ("" when tracing is off). Every turn
	// of a conversation carries the session attribute, so /trace shows
	// whole conversations.
	TraceID obs.TraceID
}

// cacheEntry is one cached context-bearing turn: the post-turn context as
// SQL text (so a hit replays the context advance exactly) plus the
// response surface. The Result is shared read-only across goroutines — the
// same contract the gateway's answer cache established.
type cacheEntry struct {
	lastSQL   string
	beforeAgg string
	message   string
	engine    string
	result    *sqldata.Result
}

// Ask resolves one utterance in the identified session. Turns within a
// session are serialized (a second Ask on the same ID blocks until the
// first finishes); turns on different sessions proceed in parallel over
// the shared Responder. The session's idle TTL slides forward on every
// turn. Returns ErrNotFound for an ID never issued, ErrExpired for one
// that ended, expired, or was evicted.
func (s *Store) Ask(ctx context.Context, id, utterance string) (*Turn, error) {
	se, err := s.lookup(id)
	if err != nil {
		return nil, err
	}

	se.mu.Lock()
	defer se.mu.Unlock()

	start := s.cfg.Now()
	turn := &Turn{Session: id, N: se.conv.Turns + 1}

	var qt *obs.QueryTrace
	if !s.cfg.NoTrace {
		ctx, qt = obs.NewQueryTrace(ctx, utterance)
		qt.Root.SetAttr("session", id)
		qt.Root.SetAttr("turn", strconv.Itoa(turn.N))
	}

	turn.Intent = dialogue.ClassifyIntent(utterance, se.conv.LastSQL != nil)
	turn.ContextFP = se.conv.Fingerprint()
	if qt != nil {
		qt.Root.SetAttr("intent", turn.Intent.String())
		if turn.ContextFP != 0 {
			qt.Root.SetAttr("context_fp", fmt.Sprintf("%016x", turn.ContextFP))
		}
	}

	resp, rerr := s.serveTurn(ctx, se, utterance, turn)
	turn.Resp = resp
	turn.Cached = resp.Answer != nil && resp.Answer.Cached
	turn.Elapsed = s.cfg.Now().Sub(start)
	if qt != nil && turn.Cached {
		qt.Root.SetAttr("cached", "true")
	}

	s.finishTurnObs(turn, utterance, rerr, qt)

	if rerr == nil {
		s.recost(se)
	}
	return turn, rerr
}

// serveTurn answers the utterance through the Responder. A context-bearing
// turn is first looked up in the context-keyed turn cache, and stored
// there once it executed. A context-free turn is a full question, which
// the Responder reads through the backend's Ask: the answer cache there
// already serves its repeats. Called with the session's turn lock held.
func (s *Store) serveTurn(ctx context.Context, se *sess, utterance string, turn *Turn) (*dialogue.Response, error) {
	if turn.ContextFP == 0 {
		return s.respond(ctx, se, utterance)
	}
	key := ""
	if s.cache != nil {
		key = qcache.WithContext(turn.ContextFP,
			qcache.WithFingerprint(s.cfg.DB.Fingerprint(), qcache.Key(utterance)))
		if v, ok := s.cache.Get(key); ok {
			// A stored turn that no longer replays (parse drift) falls
			// through to the live path.
			if resp, err := s.replayCached(se, v.(*cacheEntry)); err == nil {
				s.ctxHits.Inc()
				s.resolved.Inc()
				return resp, nil
			}
		}
	}
	s.ctxMiss.Inc()

	resp, err := s.respond(ctx, se, utterance)
	if err != nil {
		s.failed.Inc()
		return resp, err
	}
	s.resolved.Inc()
	if key != "" && resp.Answer != nil && !resp.Answer.Partial {
		ent := &cacheEntry{
			lastSQL: resp.SQL.String(),
			message: resp.Message,
			engine:  resp.Answer.Engine,
			result:  resp.Result,
		}
		if se.conv.BeforeAggregate != nil {
			ent.beforeAgg = se.conv.BeforeAggregate.String()
		}
		s.cache.Put(key, ent)
	}
	return resp, nil
}

// respond runs the Responder over the session's context. A panic in it
// comes back as a *resilient.PanicError, as on /query: the turn is
// recorded as an error and the session stays usable. The response is
// never nil.
func (s *Store) respond(ctx context.Context, se *sess, utterance string) (resp *dialogue.Response, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &resilient.PanicError{Site: resilient.SiteInterpret, Engine: "session", Value: r, Stack: debug.Stack()}
		}
		if resp == nil {
			resp = &dialogue.Response{Message: "The request failed."}
		}
	}()
	return s.cfg.Responder.RespondWith(ctx, se.conv, utterance)
}

// replayCached advances the conversation exactly as the live turn did —
// the entry stores the post-turn context as SQL text — and rebuilds the
// response. Called with the session's turn lock held.
func (s *Store) replayCached(se *sess, ent *cacheEntry) (*dialogue.Response, error) {
	stmt, err := parseStored(ent.lastSQL)
	if err != nil || stmt == nil {
		return nil, fmt.Errorf("session: cached turn does not replay: %v", err)
	}
	before, err := parseStored(ent.beforeAgg)
	if err != nil {
		return nil, fmt.Errorf("session: cached turn does not replay: %v", err)
	}
	se.conv.BeforeAggregate = before
	se.conv.Remember(stmt)
	return &dialogue.Response{
		SQL: stmt, Result: ent.result, Message: ent.message,
		Answer: &resilient.Answer{Engine: ent.engine, SQL: stmt, Result: ent.result, Cached: true},
	}, nil
}

// finishTurnObs closes the turn's trace, offers it for retention, feeds
// the slow log, and bumps the turn counters.
func (s *Store) finishTurnObs(turn *Turn, utterance string, rerr error, qt *obs.QueryTrace) {
	s.turns[turn.Intent].Inc()
	s.turnSeconds.Observe(turn.Elapsed.Seconds())
	outcome := "ok"
	if rerr != nil {
		outcome = "error"
	}
	engine := ""
	partial := false
	if a := turn.Resp.Answer; a != nil {
		engine = a.Engine
		partial = a.Partial
	}
	if qt != nil {
		turn.TraceID = qt.ID
		qt.Root.SetAttr("outcome", outcome)
		qt.Root.End()
		s.cfg.Traces.Offer(qt, outcome, turn.Elapsed, partial)
		s.cfg.SlowLog.Observe(obs.SlowEntry{
			Question:     utterance,
			Engine:       engine,
			Outcome:      outcome,
			Duration:     turn.Elapsed,
			When:         s.cfg.Now(),
			Trace:        qt,
			TraceID:      qt.ID,
			Partial:      partial,
			DroppedSpans: qt.DroppedTotal(),
			Session:      turn.Session,
		})
	} else {
		s.cfg.SlowLog.Observe(obs.SlowEntry{
			Question: utterance,
			Engine:   engine,
			Outcome:  outcome,
			Duration: turn.Elapsed,
			When:     s.cfg.Now(),
			Partial:  partial,
			Session:  turn.Session,
		})
	}
}

// recost re-accounts the session's memory cost after a turn mutated its
// context, enforcing the budget against other sessions (never the one
// that just spoke). Skipped if the session was evicted mid-turn.
func (s *Store) recost(se *sess) {
	c := costOf(se.conv)
	sh := s.shardFor(se.id)
	now := s.cfg.Now()
	sh.mu.Lock()
	if se.gone {
		sh.mu.Unlock()
		return
	}
	sh.mem += c - se.cost
	se.cost = c
	evs := s.reclaimLocked(sh, now, se)
	sh.mu.Unlock()
	s.publishGauges()
	s.notifyEvicted(evs)
}
