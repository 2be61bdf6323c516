package resilient

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"time"

	"nlidb/internal/nlp"
	"nlidb/internal/nlq"
	"nlidb/internal/obs"
	"nlidb/internal/qcache"
	"nlidb/internal/sqldata"
	"nlidb/internal/sqlexec"
	"nlidb/internal/sqlparse"
)

// Metric family names the gateway publishes. Documented in the README's
// Observability section and asserted by `make metrics-smoke`.
const (
	// MetricQueries counts finished queries by engine and outcome.
	MetricQueries = "nlidb_queries_total"
	// MetricQuerySeconds is the end-to-end latency histogram by engine.
	MetricQuerySeconds = "nlidb_query_seconds"
	// MetricStageSeconds is the per-stage latency histogram by stage and
	// engine (tokenize is attributed to the pseudo-engine "gateway").
	MetricStageSeconds = "nlidb_stage_seconds"
	// MetricBreakerState gauges each engine's breaker (0 closed, 1 open,
	// 2 half-open).
	MetricBreakerState = "nlidb_breaker_state"
	// MetricBreakerTransitions counts breaker transitions by target state.
	MetricBreakerTransitions = "nlidb_breaker_transitions_total"
	// MetricSlowQueries counts queries recorded by the slow-query log.
	MetricSlowQueries = "nlidb_slow_queries_total"
	// MetricRowsScanned / MetricJoinRows / MetricSubqueries total the
	// executor's budget meters by engine.
	MetricRowsScanned = "nlidb_rows_scanned_total"
	MetricJoinRows    = "nlidb_join_rows_total"
	MetricSubqueries  = "nlidb_subqueries_total"
)

// ErrBreakerOpen marks an engine skipped because its circuit breaker is
// open (still cooling down after consecutive failures).
var ErrBreakerOpen = errors.New("resilient: circuit breaker open")

// ErrExhausted marks an Ask for which every engine in the chain failed or
// was skipped. The concrete error is a *ChainError listing the attempts.
var ErrExhausted = errors.New("resilient: all engines failed")

// Executor runs one trusted SQL statement and answers with typed rows. It
// is the gateway's one seam — what the chain walk hands an
// interpretation's SQL to — and the only thing a shard node, a dialogue
// turn or a deep health probe needs of a backend. A Gateway is one (its
// local parse → plan → execute tail); so is the shard coordinator
// (classify → route → execute on shards → merge), which is how a cluster
// runs this package's interpreter front over its fleet: see NewOver.
// Implementations must be safe for concurrent use.
type Executor interface {
	AskSQL(ctx context.Context, sql string) (*Answer, error)
}

// Refusal wraps an Executor failure that is a verdict on where the
// statement would have to run — it cannot be distributed, the shard that
// owns its rows is down or shedding, the deadline died in the fleet —
// and not on the interpretation that produced it. The chain walk returns
// a Refusal as it is: no other engine's reading could fare better, and
// the failure counts against no engine's breaker. Error and Unwrap pass
// through to Err, so errors.Is/As see the executor's own typed error.
type Refusal struct {
	// Outcome is the metric, trace and slow-log label ("shard_down",
	// "not_distributable", "timeout", …).
	Outcome string
	// Err is the executor's error.
	Err error
}

func (r *Refusal) Error() string { return r.Err.Error() }

// Unwrap exposes the executor's error to errors.Is and errors.As.
func (r *Refusal) Unwrap() error { return r.Err }

// Routing is what an Executor that fans a statement out reports back
// about one request, for the trace root and the slow-query log. A gateway
// built with NewOver plants one in the context of every Ask and AskSQL;
// the executor finds it with RoutingFrom. Route is written before any
// fan-out starts; the counters may be bumped from concurrent legs.
type Routing struct {
	// Route names how the statement ran ("home", "pruned", "scatter").
	Route string
	// Shards, Hedged and Retries count shard legs started, hedge requests
	// launched and leg retries.
	Shards, Hedged, Retries atomic.Int64
}

type routingKey struct{}

// RoutingFrom returns the request's Routing record: non-nil in every
// context a gateway built with NewOver hands its executor, nil elsewhere.
func RoutingFrom(ctx context.Context) *Routing {
	rt, _ := ctx.Value(routingKey{}).(*Routing)
	return rt
}

// ErrStatement marks a failure of a gateway's own parse → plan → execute
// tail that the statement itself caused: it does not parse, the schema
// refuses it, evaluating it over the rows failed, or it outran its budget. Any executor holding the same rows
// fails it the same way, so a fleet neither retries it on another replica
// nor counts it against one's health, and never papers over it with a
// partial answer; to the chain walk it is the engine's failed attempt.
// Deadlines, cancellation, panics and injected faults are not statement
// errors. Match with errors.Is; the cause stays reachable too.
var ErrStatement = errors.New("resilient: statement failed")

// statementError tags err as an ErrStatement without changing its text.
type statementError struct{ err error }

func (e *statementError) Error() string   { return e.err.Error() }
func (e *statementError) Unwrap() []error { return []error{ErrStatement, e.err} }

// statementErr tags a stage's own error (nil stays nil) unless the
// context ending caused it.
func statementErr(err error) error {
	if err == nil || errors.Is(err, sqlexec.ErrCanceled) {
		return err
	}
	return &statementError{err}
}

// ChainError reports an exhausted fallback chain with the per-attempt
// failure trail.
type ChainError struct {
	// Question is the original question asked.
	Question string
	// Attempts is the failure trail, in the order tried.
	Attempts []Attempt
	// Trace is the query's span tree (nil when tracing is disabled).
	Trace *obs.QueryTrace
}

// Error renders the trail including, per attempt, which form of the
// question was actually tried — the original or the stopword-simplified
// retry — so an exhausted chain is diagnosable from the log line alone.
func (e *ChainError) Error() string {
	parts := make([]string, len(e.Attempts))
	for i, a := range e.Attempts {
		form := "original"
		if a.Question != e.Question {
			form = fmt.Sprintf("simplified %q", a.Question)
		}
		parts[i] = fmt.Sprintf("%s (%s): %v", a.Engine, form, a.Err)
	}
	return fmt.Sprintf("resilient: all engines failed for %q [%s]", e.Question, strings.Join(parts, "; "))
}

// Unwrap lets errors.Is(err, ErrExhausted) match.
func (e *ChainError) Unwrap() error { return ErrExhausted }

// Attempt is one failed try in the fallback chain.
type Attempt struct {
	// Engine is the interpreter tried.
	Engine string
	// Question is the question form used (original or simplified).
	Question string
	// Err is why the attempt failed.
	Err error
}

// Answer is a successful Ask.
type Answer struct {
	// Engine names the interpreter that produced the answer.
	Engine string
	// SQL is the executed statement (round-tripped through the parser).
	SQL *sqlparse.SelectStmt
	// Result is the executed result set.
	Result *sqldata.Result
	// Score is the interpretation confidence reported by the engine.
	Score float64
	// Simplified reports that the answer came from the stopword-stripped
	// retry form of the question rather than the original.
	Simplified bool
	// Attempts is the failure trail of engines tried before this one.
	Attempts []Attempt
	// Usage is the execution's resource consumption.
	Usage sqlexec.Usage
	// Elapsed is the total wall-clock time of the Ask.
	Elapsed time.Duration
	// Trace is the query's span tree (nil when tracing is disabled);
	// render it with Trace.String() for the EXPLAIN view.
	Trace *obs.QueryTrace
	// Cached reports that the answer was served from the answer cache
	// without re-running the pipeline. Cached answers share their SQL and
	// Result with every other hit on the same entry: treat both as
	// read-only.
	Cached bool
	// Partial reports that the answer was assembled from an incomplete
	// scatter-gather: at least one shard had no healthy replica and its
	// rows are missing. Single-process gateways never set it; the shard
	// coordinator does, so clients can distinguish "complete answer" from
	// "best effort under degradation" instead of being silently wrong.
	Partial bool
	// MissingShards lists the shard indexes absent from a Partial answer,
	// ascending. Nil when Partial is false.
	MissingShards []int
}

// Config tunes a Gateway. The zero value is serviceable: default budget,
// no deadline, breaker threshold 3 with a 30-second cooldown,
// retry-with-simplification enabled, tracing on, and no metrics sink.
type Config struct {
	// Timeout is the per-Ask wall-clock deadline (0 = none). It covers the
	// whole fallback chain, not each engine separately.
	Timeout time.Duration
	// Budget bounds each execution; the zero Budget is replaced by
	// sqlexec.DefaultBudget(). Set a field negative for truly unlimited.
	Budget sqlexec.Budget
	// BreakerThreshold is the consecutive-failure count that opens an
	// engine's circuit breaker (default 3).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker waits before admitting a
	// half-open probe (default 30s).
	BreakerCooldown time.Duration
	// BreakerJitter, when positive, adds a random delay in [0, BreakerJitter)
	// on top of every cooldown, drawn fresh each time a breaker opens, so
	// breakers that tripped together do not probe a recovering engine in
	// lockstep. Off by default (tests and callers that reason about exact
	// cooldowns keep deterministic timing).
	BreakerJitter time.Duration
	// NoRetry disables the stopword-stripped retry of a failed engine.
	NoRetry bool
	// Hook, when non-nil, is consulted before every guarded stage; tests
	// use it to inject faults at named sites.
	Hook Hook
	// Now is the breaker clock, injectable for tests (default time.Now).
	Now func() time.Time

	// Metrics, when non-nil, receives gateway telemetry (query totals,
	// stage latency histograms, breaker states, budget meters). Metric
	// families are pre-registered at New so scrapes see them before the
	// first query.
	Metrics *obs.Registry
	// SlowLog, when non-nil, records queries at or above its threshold.
	SlowLog *obs.SlowLog
	// Traces, when non-nil, receives every finished trace for tail-sampled
	// exemplar retention: slow and failed queries are always kept, the rest
	// probabilistically, linkable from the slow log by trace ID.
	Traces *obs.TraceStore
	// NoTrace disables span collection (Answer.Trace stays nil). Metrics
	// and the slow log keep working; they do not depend on spans.
	NoTrace bool
	// BreakerHook, when non-nil, observes every breaker transition as
	// (engine, from, to) state names. Called outside breaker locks.
	BreakerHook func(engine, from, to string)

	// Cache, when non-nil, is consulted before the fallback chain and
	// filled after every successful uncached Ask. Keys combine the
	// normalized question (qcache.Key) with the database fingerprint, so
	// inserts invalidate implicitly. Hits skip interpret/parse/plan/
	// execute entirely, return Answer.Cached=true, and carry a
	// cached=true attribute on the trace root.
	Cache *qcache.Cache
	// PlanCache, when non-nil, caches bound physical plans keyed by the
	// statement's canonical SQL plus the database fingerprint, so repeated
	// questions skip bind/plan work even when the answer cache misses.
	// Plans are immutable and shared safely across concurrent executions.
	PlanCache *qcache.Cache
	// Workers bounds ServeBatch's worker pool (default: GOMAXPROCS).
	Workers int
}

// Gateway serves natural-language questions end-to-end with failure
// handling and full observability: an ordered fallback chain of
// interpreters, each call guarded by recover(), execution bounded by
// context and budget, unhealthy engines tripped out by circuit breakers —
// and every stage spanned, timed, and counted.
//
// Goroutine-safety contract: a Gateway is safe for concurrent use —
// Ask and ServeBatch may be called from any number of goroutines. The
// chain's interpreters and the executor are immutable after New; breaker
// state, metrics, the slow log, and the answer cache are internally
// synchronized. Two caveats, both on the caller: (1) the underlying
// database must not be mutated while queries are in flight (see the
// concurrency note on sqldata.Table — mutate between requests, and the
// fingerprint-keyed cache invalidates itself); (2) any Config.Hook,
// Config.Now, or Config.BreakerHook supplied must itself be safe for
// concurrent calls.
type Gateway struct {
	db      *sqldata.Database
	engines []nlq.Interpreter
	exec    *sqlexec.Engine
	// over, when non-nil, takes the place of the local parse → plan →
	// execute tail (see NewOver).
	over     Executor
	cfg      Config
	breakers map[string]*Breaker
	// flight collapses concurrent identical cache misses: N requests for
	// one cold key run the pipeline once and share the answer, so a hot
	// key arriving in a burst cannot stampede the fallback chain. Only
	// engaged when a Cache is configured (the flight key is the cache
	// key, so the two stay consistent).
	flight qcache.Flight
}

// NewOver builds the interpreter front of a fleet: a Gateway whose chain
// walk — breakers, simplified retry, answer cache, singleflight, batch
// pool, trace root, slow log — is New's, but which hands every
// interpretation's SQL (and every AskSQL statement) to exec instead of
// executing it over db. db is the database the chain was built over; the
// gateway itself reads only its fingerprint, for the cache key.
func NewOver(db *sqldata.Database, chain []nlq.Interpreter, cfg Config, exec Executor) *Gateway {
	g := New(db, chain, cfg)
	g.over = exec
	return g
}

// New builds a Gateway over db serving the given fallback chain, best
// engine first. Config zero values are filled with defaults. With a nil
// chain the gateway is an executor only: AskSQL works, Ask has no engine
// to try.
func New(db *sqldata.Database, chain []nlq.Interpreter, cfg Config) *Gateway {
	if cfg.BreakerThreshold <= 0 {
		cfg.BreakerThreshold = 3
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 30 * time.Second
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Budget == (sqlexec.Budget{}) {
		cfg.Budget = sqlexec.DefaultBudget()
	}
	g := &Gateway{
		db:       db,
		engines:  chain,
		exec:     sqlexec.NewWithPlanCache(db, cfg.PlanCache),
		cfg:      cfg,
		breakers: map[string]*Breaker{},
	}
	for i, e := range chain {
		name := e.Name()
		br := NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, cfg.Now)
		if cfg.BreakerJitter > 0 {
			// Seed from the wall clock (not cfg.Now, which tests freeze) and
			// the chain position, so each engine's breaker — and each process
			// in a fleet — draws a distinct probe schedule.
			br.SetJitter(cfg.BreakerJitter, time.Now().UnixNano()+int64(i))
		}
		br.OnTransition(func(from, to string) {
			if g.cfg.Metrics != nil {
				g.cfg.Metrics.Gauge(MetricBreakerState, "engine", name).Set(StateValue(to))
				g.cfg.Metrics.Counter(MetricBreakerTransitions, "engine", name, "to", to).Inc()
			}
			if g.cfg.BreakerHook != nil {
				g.cfg.BreakerHook(name, from, to)
			}
		})
		g.breakers[name] = br
	}
	g.preregisterMetrics()
	return g
}

// preregisterMetrics creates every metric family the gateway can emit, so
// a /metrics scrape taken before the first query already shows them.
func (g *Gateway) preregisterMetrics() {
	m := g.cfg.Metrics
	if m == nil {
		return
	}
	m.Counter(MetricSlowQueries)
	m.Histogram(MetricStageSeconds, "stage", "tokenize", "engine", "gateway")
	for _, e := range g.engines {
		name := e.Name()
		m.Gauge(MetricBreakerState, "engine", name).Set(StateValue("closed"))
		m.Counter(MetricQueries, "engine", name, "outcome", "ok")
		m.Histogram(MetricQuerySeconds, "engine", name)
		for _, stage := range []string{"interpret", "parse", "plan", "execute"} {
			m.Histogram(MetricStageSeconds, "stage", stage, "engine", name)
		}
		m.Counter(MetricRowsScanned, "engine", name)
		m.Counter(MetricJoinRows, "engine", name)
		m.Counter(MetricSubqueries, "engine", name)
	}
}

// BreakerStates reports each engine's current breaker state ("closed",
// "open", "half-open"), keyed by engine name.
func (g *Gateway) BreakerStates() map[string]string {
	out := make(map[string]string, len(g.breakers))
	for name, b := range g.breakers {
		out[name] = b.State()
	}
	return out
}

// Breaker returns the named engine's circuit breaker (nil if the engine
// is not in the chain), for state inspection and transition hooks.
func (g *Gateway) Breaker(engine string) *Breaker { return g.breakers[engine] }

// Ask answers one question: it walks the fallback chain, skipping engines
// with open breakers, trying each healthy engine first with the question
// as asked and then (unless NoRetry) with its stopword-stripped form, and
// returns the first interpretation that parses and executes within the
// deadline and budget. It never panics: stage panics surface inside the
// failure trail as *PanicError values. Over a fleet (NewOver) the first
// interpretation the executor answers wins, and a *Refusal from the
// executor ends the walk at once.
//
// Unless Config.NoTrace is set, the full pipeline is traced — tokenize,
// then per engine attempt interpret → parse → plan → execute with rows
// and budget counters — and the trace travels on the Answer (or the
// *ChainError) for EXPLAIN rendering and the slow-query log.
//
// With Config.Cache set, a hit short-circuits all of the above: the
// cached answer comes back with Cached=true, its trace is just the root
// span carrying cached=true, and query counters/latency still record.
// Concurrent identical misses are collapsed: one leader runs the
// pipeline, the rest share its answer (Cached=true, singleflight=shared
// on the trace root) — a cold hot key cannot stampede the chain.
func (g *Gateway) Ask(ctx context.Context, question string) (*Answer, error) {
	ctx, cancel, req := g.begin(ctx, question)
	defer cancel()
	trace := req.trace

	key := ""
	if g.cfg.Cache != nil {
		key = qcache.WithFingerprint(g.db.Fingerprint(), qcache.Key(question))
		if v, ok := g.cfg.Cache.Get(key); ok {
			hit := *(v.(*Answer)) // shallow copy; SQL/Result shared read-only
			hit.Cached = true
			if trace != nil {
				trace.Root.SetAttr("cached", "true")
			}
			g.finish(req, question, &hit, nil)
			return &hit, nil
		}
	}

	var ans *Answer
	var err error
	if key == "" {
		ans, err = g.ask(ctx, question, trace)
	} else {
		// Singleflight miss-collapse: the first Ask for a cold key leads,
		// running the pipeline under its own context and trace; concurrent
		// identical misses wait and share the leader's (sanitized) answer
		// instead of stampeding the chain.
		var mine *Answer
		v, ferr, shared := g.flight.Do(ctx, key, func() (any, error) {
			a, e := g.ask(ctx, question, trace)
			mine = a
			if e != nil {
				return nil, e
			}
			// Store and share a sanitized copy: no failure trail, timing,
			// or trace — those belong to the Ask that produced them, not
			// to replays.
			sh := &Answer{
				Engine:        a.Engine,
				SQL:           a.SQL,
				Result:        a.Result,
				Score:         a.Score,
				Simplified:    a.Simplified,
				Usage:         a.Usage,
				Partial:       a.Partial,
				MissingShards: a.MissingShards,
			}
			// A partial answer is shared with the misses waiting on it but
			// never stored: the next Ask may find the missing shard back.
			if !a.Partial {
				g.cfg.Cache.Put(key, sh)
			}
			return sh, nil
		})
		err = ferr
		switch {
		case !shared:
			ans = mine // leader (or a follower canceled while waiting: nil)
		case err == nil:
			hit := *(v.(*Answer)) // shallow copy; SQL/Result shared read-only
			hit.Cached = true
			ans = &hit
			if trace != nil {
				trace.Root.SetAttr("cached", "true")
				trace.Root.SetAttr("singleflight", "shared")
			}
		default:
			if trace != nil {
				trace.Root.SetAttr("singleflight", "shared")
			}
		}
	}
	g.finish(req, question, ans, err)
	return ans, err
}

// request is what begin opens and finish closes for one Ask or AskSQL.
type request struct {
	start   time.Time
	trace   *obs.QueryTrace // nil under NoTrace
	routing *Routing        // nil unless the gateway executes over a fleet
}

// begin opens one request: the Config.Timeout deadline, the trace root
// labelled with the question or statement, and — over a fleet — the
// Routing record the executor reports into.
func (g *Gateway) begin(ctx context.Context, label string) (context.Context, context.CancelFunc, request) {
	req := request{start: time.Now()}
	cancel := context.CancelFunc(func() {})
	if g.cfg.Timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, g.cfg.Timeout)
	}
	if !g.cfg.NoTrace {
		ctx, req.trace = obs.NewQueryTrace(ctx, label)
	}
	if g.over != nil {
		req.routing = &Routing{}
		ctx = context.WithValue(ctx, routingKey{}, req.routing)
	}
	return ctx, cancel, req
}

// ask is the fallback-chain walk, with the surrounding context already
// deadline-bounded and trace-carrying.
func (g *Gateway) ask(ctx context.Context, question string, trace *obs.QueryTrace) (*Answer, error) {
	root := obs.FromContext(ctx)

	tokSpan := root.Child("tokenize")
	t0 := time.Now()
	toks := nlp.Tokenize(question)
	tokSpan.Add("tokens", int64(len(toks)))
	tokSpan.End()
	g.observeStage("tokenize", "gateway", time.Since(t0))

	simplified := ""
	if !g.cfg.NoRetry {
		simplified = SimplifyTokens(toks)
		if simplified == question {
			simplified = ""
		}
	}

	var trail []Attempt
	for _, eng := range g.engines {
		name := eng.Name()
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("resilient: %w", err)
		}
		br := g.breakers[name]
		if !br.Allow() {
			sp := root.Child("attempt " + name)
			sp.SetAttr("skipped", "breaker-open")
			sp.End()
			trail = append(trail, Attempt{Engine: name, Question: question, Err: ErrBreakerOpen})
			continue
		}

		tries := []string{question}
		if simplified != "" {
			tries = append(tries, simplified)
		}
		var lastErr error
		for ti, q := range tries {
			aCtx, aSpan := obs.StartSpan(ctx, "attempt "+name)
			aSpan.SetAttr("engine", name)
			if ti > 0 {
				aSpan.SetAttr("form", "simplified")
			}
			ans, err := g.attempt(aCtx, eng, q)
			aSpan.End()
			if err == nil {
				br.Success()
				ans.Simplified = ti > 0
				ans.Attempts = trail
				return ans, nil
			}
			aSpan.SetAttr("error", err.Error())
			var refused *Refusal
			if errors.As(err, &refused) {
				// The executor's verdict on routing or infrastructure, not on
				// this engine's reading: terminal, and nobody's breaker moves.
				return nil, err
			}
			lastErr = err
			trail = append(trail, Attempt{Engine: name, Question: q, Err: err})
			if ctx.Err() != nil {
				// The overall deadline is gone; further engines would only
				// burn it further. The timeout counts against the engine
				// that consumed it.
				if countable(err) {
					br.Failure()
				}
				return nil, &ChainError{Question: question, Attempts: trail, Trace: trace}
			}
		}
		if countable(lastErr) {
			br.Failure()
		}
	}
	return nil, &ChainError{Question: question, Attempts: trail, Trace: trace}
}

// countable reports whether an attempt failure indicates engine ill-health
// (and should advance its breaker). Clean semantic misses — the engine
// simply has no reading of the question — are not failures: a keyword
// engine that cannot interpret nested questions is healthy, just limited.
func countable(err error) bool {
	return err != nil && !errors.Is(err, nlq.ErrNoInterpretation)
}

// attempt runs one engine over one question form: the guarded, spanned
// and timed interpret stage, then the best interpretation's SQL through
// the seam.
func (g *Gateway) attempt(ctx context.Context, eng nlq.Interpreter, q string) (*Answer, error) {
	name := eng.Name()

	var ins []nlq.Interpretation
	iCtx, iSpan := obs.StartSpan(ctx, "interpret")
	t0 := time.Now()
	err := g.guard(iCtx, SiteInterpret, name, func() error {
		var err error
		ins, err = eng.Interpret(q)
		return err
	})
	iSpan.Add("candidates", int64(len(ins)))
	iSpan.End()
	g.observeStage("interpret", name, time.Since(t0))
	if err != nil {
		return nil, fmt.Errorf("interpret: %w", err)
	}
	best, err := nlq.Best(ins)
	if err != nil {
		return nil, err
	}
	if best.SQL == nil {
		return nil, fmt.Errorf("resilient: %s produced an interpretation without SQL", name)
	}
	iSpan.SetAttr("score", fmt.Sprintf("%.2f", best.Score))

	ans, err := g.execute(ctx, name, best.SQL.String())
	if err != nil {
		return nil, err
	}
	ans.Engine, ans.Score = name, best.Score
	return ans, nil
}

// execute is the seam: one statement to the fleet's executor when the
// gateway was built over one, through the local tail otherwise. The
// answer is the caller's to finish (engine label, score, timing, trace).
func (g *Gateway) execute(ctx context.Context, name, sql string) (*Answer, error) {
	if g.over != nil {
		return g.over.AskSQL(ctx, sql)
	}
	return g.runSQL(ctx, name, sql)
}

// runSQL is the local SQL tail of the pipeline — parse (print + re-parse
// validation), plan, execute — shared by the NL fallback chain and by
// direct AskSQL calls. Each stage is guarded, spanned, and timed under
// the given engine label.
func (g *Gateway) runSQL(ctx context.Context, name, sql string) (*Answer, error) {
	// Validate the candidate by round-tripping it through the printer and
	// parser; a malformed AST fails here instead of deep inside execution.
	var stmt *sqlparse.SelectStmt
	pCtx, pSpan := obs.StartSpan(ctx, "parse")
	t0 := time.Now()
	err := g.guard(pCtx, SiteParse, name, func() error {
		var err error
		stmt, err = sqlparse.Parse(sql)
		return statementErr(err)
	})
	pSpan.End()
	g.observeStage("parse", name, time.Since(t0))
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	pSpan.SetAttr("sql", stmt.String())

	// Plan: bind the statement to a physical plan (through the plan cache
	// when configured) and record the plan tree and its compact shape on
	// the trace. Binding can fail — e.g. an interpreter inventing a column
	// the schema lacks — and that is a planning failure, not an execution
	// one.
	var prep *sqlexec.Prepared
	var planHit bool
	plCtx, planSpan := obs.StartSpan(ctx, "plan")
	t0 = time.Now()
	err = g.guard(plCtx, SitePlan, name, func() error {
		var err error
		prep, planHit, err = g.exec.PrepareCached(stmt)
		return statementErr(err)
	})
	if err == nil {
		planSpan.SetAttr("plan", prep.Explain())
		planSpan.SetAttr("shape", prep.Shape())
		if planHit {
			planSpan.SetAttr("plan_cache", "hit")
		}
	}
	planSpan.End()
	g.observeStage("plan", name, time.Since(t0))
	if err != nil {
		return nil, fmt.Errorf("plan: %w", err)
	}

	var res *sqldata.Result
	var usage sqlexec.Usage
	eCtx, eSpan := obs.StartSpan(ctx, "execute")
	t0 = time.Now()
	err = g.guard(eCtx, SiteExecute, name, func() error {
		var err error
		res, usage, err = prep.Run(eCtx, g.cfg.Budget)
		return statementErr(err)
	})
	eSpan.End()
	g.observeStage("execute", name, time.Since(t0))
	if m := g.cfg.Metrics; m != nil {
		m.Counter(MetricRowsScanned, "engine", name).Add(int64(usage.Rows))
		m.Counter(MetricJoinRows, "engine", name).Add(int64(usage.JoinRows))
		m.Counter(MetricSubqueries, "engine", name).Add(int64(usage.Subqueries))
	}
	if err != nil {
		return nil, fmt.Errorf("execute: %w", err)
	}
	return &Answer{Engine: name, SQL: stmt, Result: res, Score: 1, Usage: usage}, nil
}

// SQLEngine is the pseudo-engine label AskSQL answers carry in metrics,
// traces, and the slow-query log.
const SQLEngine = "sql"

// AskSQL executes one trusted SQL statement through the seam — the
// guarded parse → plan → execute tail, or the fleet the gateway was built
// over — bypassing the NL fallback chain, the answer cache, and the
// breakers, with the same deadline, budget, fault-injection and telemetry
// treatment as Ask. It is how shard replicas run the coordinator's
// pushed-down statements and how dialogue turns and deep health probes
// execute.
func (g *Gateway) AskSQL(ctx context.Context, sql string) (*Answer, error) {
	ctx, cancel, req := g.begin(ctx, sql)
	defer cancel()
	ans, err := g.execute(ctx, SQLEngine, sql)
	g.finish(req, sql, ans, err)
	return ans, err
}

// observeStage records one stage latency into the metrics registry.
func (g *Gateway) observeStage(stage, engine string, d time.Duration) {
	if g.cfg.Metrics == nil {
		return
	}
	g.cfg.Metrics.Histogram(MetricStageSeconds, "stage", stage, "engine", engine).Observe(d.Seconds())
}

// outcomeOf maps an Ask error to its metric label.
func outcomeOf(err error) string {
	var refused *Refusal
	switch {
	case err == nil:
		return "ok"
	case errors.As(err, &refused):
		return refused.Outcome
	case errors.Is(err, context.DeadlineExceeded):
		return "timeout"
	case errors.Is(err, context.Canceled):
		return "canceled"
	case errors.Is(err, sqlexec.ErrBudgetExceeded):
		return "budget"
	case errors.Is(err, ErrExhausted):
		return "exhausted"
	default:
		return "error"
	}
}

// finish closes out one Ask or AskSQL: ends the trace root with summary
// attributes, offers the trace for retention, records query counters and
// latency, feeds the slow-query log — once, here, with the executor's
// routing attribution when there is one — and stamps the answer with its
// timing and trace.
func (g *Gateway) finish(req request, question string, ans *Answer, err error) {
	elapsed := time.Since(req.start)
	outcome := outcomeOf(err)
	engine := "none"
	if ans != nil {
		engine = ans.Engine
		ans.Elapsed = elapsed
		ans.Trace = req.trace
	}
	entry := obs.SlowEntry{
		Question: question, Engine: engine, Outcome: outcome,
		Duration: elapsed, When: time.Now(),
		Partial: ans != nil && ans.Partial,
	}
	if rt := req.routing; rt != nil {
		entry.Route = rt.Route
		entry.Shards = int(rt.Shards.Load())
		entry.Hedged = int(rt.Hedged.Load())
		entry.Retries = int(rt.Retries.Load())
	}
	if trace := req.trace; trace != nil {
		root := trace.Root
		root.SetAttr("engine", engine)
		root.SetAttr("outcome", outcome)
		if ans != nil && ans.Simplified {
			root.SetAttr("form", "simplified")
		}
		if entry.Route != "" {
			root.SetAttr("route", entry.Route)
		}
		if entry.Partial {
			root.SetAttr("partial", "true")
		}
		if len(g.engines) > 0 {
			states := make([]string, len(g.engines))
			for i, e := range g.engines {
				states[i] = e.Name() + "=" + g.breakers[e.Name()].State()
			}
			root.SetAttr("breakers", strings.Join(states, ","))
		}
		root.End()
		g.cfg.Traces.Offer(trace, outcome, elapsed, entry.Partial)
		entry.Trace, entry.TraceID = trace, trace.ID
		entry.DroppedSpans = trace.DroppedTotal()
	}
	if m := g.cfg.Metrics; m != nil {
		m.Counter(MetricQueries, "engine", engine, "outcome", outcome).Inc()
		m.Histogram(MetricQuerySeconds, "engine", engine).Observe(elapsed.Seconds())
	}
	if g.cfg.SlowLog.Observe(entry) {
		if m := g.cfg.Metrics; m != nil {
			m.Counter(MetricSlowQueries).Inc()
		}
	}
}

// guard runs one stage under panic isolation, first applying any injected
// fault from the hook. Injected delays respect the query's context, so a
// slow fault cannot push an Ask past its deadline by more than one stage.
func (g *Gateway) guard(ctx context.Context, site Site, engine string, f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Site: site, Engine: engine, Value: r, Stack: debug.Stack()}
		}
	}()
	if g.cfg.Hook != nil {
		fault := g.cfg.Hook(site, engine)
		if fault.Delay > 0 {
			t := time.NewTimer(fault.Delay)
			select {
			case <-ctx.Done():
				t.Stop()
				return fmt.Errorf("resilient: %w", ctx.Err())
			case <-t.C:
			}
		}
		if fault.Panic != nil {
			panic(fault.Panic)
		}
		if fault.Err != nil {
			return fault.Err
		}
	}
	return f()
}
