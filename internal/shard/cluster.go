package shard

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"nlidb/internal/nlq"
	"nlidb/internal/obs"
	"nlidb/internal/qcache"
	"nlidb/internal/resilient"
	"nlidb/internal/sqldata"
	"nlidb/internal/sqlexec"
	"nlidb/internal/sqlparse"
)

// Config tunes a Cluster. The zero value is serviceable: 1 replica per
// shard, 2s per-shard timeout, 2 retries with 2ms jittered exponential
// backoff, hedging at the shard's p95 clamped to [1ms, 50ms], a 4096-entry
// fleet-wide answer cache, and replica breakers opening after 3
// consecutive failures with a 1s jittered cooldown.
type Config struct {
	// Replicas is the replication factor R: every shard's partition is
	// served by R identical gateways (default 1).
	Replicas int
	// Chain is the coordinator's interpreter fallback chain — the only one
	// in the fleet; replicas execute SQL and never see a question. Build
	// it over the FULL source database, not a partition, so a value that
	// lives on one shard only is still in the vocabulary.
	Chain []nlq.Interpreter
	// Gateway is the template for both halves: the coordinator's
	// interpreter front takes its chain-walk settings (breaker tuning,
	// NoRetry, Hook, BreakerHook, Now) and the in-process replica
	// executors take its execution settings (Timeout, Budget, Hook,
	// NoTrace). Cache, PlanCache, Metrics, SlowLog and Traces are set by
	// the cluster on either half: it caches fleet-wide, owns the metric
	// namespace, and logs and retains at the coordinator only.
	Gateway resilient.Config

	// Timeout bounds one whole Ask, fan-out included (0 = none).
	Timeout time.Duration
	// ShardTimeout bounds each per-shard leg, so one stuck shard cannot
	// consume the whole deadline (default 2s).
	ShardTimeout time.Duration
	// Retries is how many times a failed shard leg is retried against
	// other replicas (default 2).
	Retries int
	// RetryBackoff is the base of the jittered exponential backoff
	// between leg retries (default 2ms).
	RetryBackoff time.Duration

	// HedgeQuantile is the shard-latency percentile after which a second
	// replica is hedged (default 0.95).
	HedgeQuantile float64
	// HedgeMin / HedgeMax clamp the hedge delay (defaults 1ms / 50ms).
	// Until a shard has enough samples the delay is HedgeMax.
	HedgeMin time.Duration
	HedgeMax time.Duration
	// NoHedge disables hedged requests (failover on failure still works).
	NoHedge bool

	// ReplicaThreshold / ReplicaCooldown tune each replica's circuit
	// breaker (defaults 3 and 1s; cooldowns carry jitter derived from
	// Seed so replicas never probe in lockstep).
	ReplicaThreshold int
	ReplicaCooldown  time.Duration

	// CacheSize bounds the fleet-wide answer cache (default 4096;
	// negative disables caching). Partial answers are never cached.
	CacheSize int
	// CacheTTL expires cached answers (0 = forever).
	CacheTTL time.Duration
	// PlanCacheSize bounds each replica's plan cache (default 256;
	// negative disables). Plan caches are strictly per-replica: plans
	// bind to one partition's tables and must never cross shards.
	PlanCacheSize int

	// Metrics receives the nlidb_shard_* families.
	Metrics *obs.Registry
	// NoTrace disables coordinator span collection. When tracing is on
	// (the default) every Ask builds one QueryTrace spanning the engine
	// attempts — interpret → classify → route → per-replica attempts →
	// merge — with the replica executors' own parse/plan/execute traces
	// nested beneath the replica attempt spans.
	NoTrace bool
	// SlowLog, when non-nil, records fleet-level slow queries with
	// route/shard/partial/hedge attribution: one slow query logs once, at
	// the coordinator.
	SlowLog *obs.SlowLog
	// Traces, when non-nil, retains exemplar traces tail-sampled at the
	// coordinator (slow/failed/partial always, the rest probabilistically).
	Traces *obs.TraceStore
	// BreakerHook, when non-nil, observes every replica breaker transition
	// as (shard, replica, from, to). Called outside breaker locks; must be
	// safe for concurrent calls.
	BreakerHook func(shard, replica int, from, to string)
	// Seed makes retry jitter and breaker-probe jitter replayable
	// (default 1).
	Seed int64
	// Workers bounds ServeBatch's worker pool (default GOMAXPROCS).
	Workers int

	// WrapNode, when non-nil, wraps every replica node at build time —
	// the chaos harness uses it to interpose ChaosNode kill switches.
	WrapNode func(shard, replica int, n Node) Node

	// Now is the breaker clock, injectable for tests (default time.Now).
	Now func() time.Time
}

// Cluster is the sharded serving fleet: N shards × R replicas behind one
// Ask/ServeBatch façade with health-checked, load-aware, hedged routing
// and graceful degradation. Safe for concurrent use.
type Cluster struct {
	cfg  Config
	n    int
	part *Partitioning
	// front is the fleet's one interpreter: a gateway whose executor is
	// this cluster (see router).
	front *resilient.Gateway
	// bind prepares statements against the full database, so a statement
	// the schema refuses fails here, as one engine's failed attempt, and
	// not on every replica of every shard.
	bind  *sqlexec.Engine
	reps  [][]*replica
	hists []*obs.Histogram // per-shard latency reservoirs driving hedge delays

	// stats are the always-on fleet rollup counters (independent of
	// cfg.Metrics): per-shard in stats, cluster-wide below. They cost one
	// atomic add each on the paths they count, and feed /fleet and the
	// scrape-time WriteProm families.
	stats        []shardStats
	routeHome    atomic.Int64
	routePruned  atomic.Int64
	routeScatter atomic.Int64
	partials     atomic.Int64

	mu  sync.Mutex
	rng *rand.Rand
}

// shardStats is one shard's always-on rollup counters.
type shardStats struct {
	requests  atomic.Int64
	hedges    atomic.Int64
	hedgeWins atomic.Int64
	retries   atomic.Int64
	downLegs  atomic.Int64
}

// New splits db across n shards and builds the replica fleet in process:
// every replica is a chain-less gateway that executes SQL over its
// partition. The interpreter chain in cfg.Chain should be built over db
// itself (see Config.Chain).
func New(db *sqldata.Database, n int, cfg Config) (*Cluster, error) {
	return newCluster(db, n, cfg, func(s, r int, dbs []*sqldata.Database) Node {
		gwCfg := cfg.Gateway
		gwCfg.Cache = nil // the cluster caches fleet-wide
		gwCfg.Metrics = nil
		gwCfg.SlowLog = nil // the coordinator slow-logs once, with routing context
		gwCfg.Traces = nil  // likewise: exemplars retained at the coordinator
		gwCfg.PlanCache = nil
		if cfg.PlanCacheSize >= 0 {
			size := cfg.PlanCacheSize
			if size == 0 {
				size = 256
			}
			gwCfg.PlanCache = qcache.New(qcache.Config{MaxEntries: size})
		}
		return resilient.New(dbs[s], nil, gwCfg)
	})
}

// newCluster is the shared fleet constructor behind New (in-process
// replicas) and NewRemote (out-of-process replicas over HTTP): split the
// source database for the partitioning map, build the interpreter front
// over the cluster as its executor, then build the replica grid with
// nodeFor supplying each endpoint.
func newCluster(db *sqldata.Database, n int, cfg Config, nodeFor func(s, r int, dbs []*sqldata.Database) Node) (*Cluster, error) {
	if cfg.Replicas <= 0 {
		cfg.Replicas = 1
	}
	if cfg.ShardTimeout <= 0 {
		cfg.ShardTimeout = 2 * time.Second
	}
	if cfg.Retries < 0 {
		cfg.Retries = 0
	} else if cfg.Retries == 0 {
		cfg.Retries = 2
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 2 * time.Millisecond
	}
	if cfg.HedgeQuantile <= 0 || cfg.HedgeQuantile > 1 {
		cfg.HedgeQuantile = 0.95
	}
	if cfg.HedgeMin <= 0 {
		cfg.HedgeMin = time.Millisecond
	}
	if cfg.HedgeMax < cfg.HedgeMin {
		cfg.HedgeMax = 50 * time.Millisecond
		if cfg.HedgeMax < cfg.HedgeMin {
			cfg.HedgeMax = cfg.HedgeMin
		}
	}
	if cfg.ReplicaThreshold <= 0 {
		cfg.ReplicaThreshold = 3
	}
	if cfg.ReplicaCooldown <= 0 {
		cfg.ReplicaCooldown = time.Second
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}

	dbs, part, err := Split(db, n)
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		cfg:   cfg,
		n:     n,
		part:  part,
		bind:  sqlexec.New(db),
		reps:  make([][]*replica, n),
		hists: make([]*obs.Histogram, n),
		stats: make([]shardStats, n),
		rng:   rand.New(rand.NewSource(cfg.Seed)),
	}
	front := cfg.Gateway
	front.Timeout = cfg.Timeout
	front.NoTrace = cfg.NoTrace
	front.Workers = cfg.Workers
	front.Metrics = cfg.Metrics
	front.SlowLog = cfg.SlowLog
	front.Traces = cfg.Traces
	front.PlanCache = nil // the coordinator binds; replicas plan and cache
	front.Cache = nil
	if cfg.CacheSize >= 0 {
		front.Cache = qcache.New(qcache.Config{MaxEntries: cfg.CacheSize, TTL: cfg.CacheTTL, Metrics: cfg.Metrics})
	}
	c.front = resilient.NewOver(db, cfg.Chain, front, router{c})

	for s := 0; s < n; s++ {
		c.hists[s] = obs.NewHistogram()
		c.reps[s] = make([]*replica, cfg.Replicas)
		for r := 0; r < cfg.Replicas; r++ {
			node := nodeFor(s, r, dbs)
			if cfg.WrapNode != nil {
				node = cfg.WrapNode(s, r, node)
			}
			br := resilient.NewBreaker(cfg.ReplicaThreshold, cfg.ReplicaCooldown, cfg.Now)
			br.SetJitter(resilient.DefaultBreakerJitter(cfg.ReplicaCooldown), cfg.Seed+int64(s*cfg.Replicas+r))
			rep := &replica{shard: s, idx: r, node: node, br: br}
			var g *obs.Gauge
			if m := cfg.Metrics; m != nil {
				g = m.Gauge(MetricReplicaState, "shard", strconv.Itoa(s), "replica", strconv.Itoa(r))
				g.Set(resilient.StateValue("closed"))
			}
			if g != nil || cfg.BreakerHook != nil {
				shardIdx, replIdx := s, r
				br.OnTransition(func(from, to string) {
					if g != nil {
						g.Set(resilient.StateValue(to))
					}
					if cfg.BreakerHook != nil {
						cfg.BreakerHook(shardIdx, replIdx, from, to)
					}
				})
			}
			c.reps[s][r] = rep
		}
	}
	c.preregisterMetrics()
	return c, nil
}

func (c *Cluster) preregisterMetrics() {
	m := c.cfg.Metrics
	if m == nil {
		return
	}
	m.Counter(MetricPartial)
	for _, route := range routeNames {
		m.Counter(MetricRoutes, "route", route)
	}
	for s := 0; s < c.n; s++ {
		sl := strconv.Itoa(s)
		m.Counter(MetricRequests, "shard", sl, "outcome", "ok")
		m.Histogram(MetricReplicaSeconds, "shard", sl)
		m.Counter(MetricHedges, "shard", sl)
		m.Counter(MetricRetries, "shard", sl)
		m.Counter(MetricShardDown, "shard", sl)
	}
}

// ShardCount returns N.
func (c *Cluster) ShardCount() int { return c.n }

// ReplicaCount returns R.
func (c *Cluster) ReplicaCount() int { return c.cfg.Replicas }

// Partitioning exposes the row-placement map for introspection.
func (c *Cluster) Partitioning() *Partitioning { return c.part }

// ReplicaStates reports every replica breaker's state, indexed
// [shard][replica].
func (c *Cluster) ReplicaStates() [][]string {
	out := make([][]string, c.n)
	for s := range c.reps {
		out[s] = make([]string, len(c.reps[s]))
		for r, rep := range c.reps[s] {
			out[s][r] = rep.br.State()
		}
	}
	return out
}

// Ask answers one natural-language question over the sharded fleet. The
// coordinator's front interprets it — once, over the full database's
// vocabulary — and hands each engine's SQL to the cluster, which prunes
// it to its owner shard or scatter-gathers it across all shards with
// partial aggregates merged; the first engine whose SQL the fleet answers
// wins. Degradation is explicit: a dead shard fails pruned questions for
// that shard with ErrShardDown, while scatter-gather answers come back
// with Partial set and MissingShards naming what is absent — never
// silently wrong, never cached. Complete answers route through a
// fleet-wide cache keyed like the gateway's, with concurrent identical
// misses collapsed.
func (c *Cluster) Ask(ctx context.Context, question string) (*resilient.Answer, error) {
	return c.front.Ask(ctx, question)
}

// AskSQL executes one trusted SQL statement over the fleet, mirroring the
// single-gateway AskSQL contract: no NL chain, no answer cache — just
// binding, classification and routed execution with the coordinator's
// full deadline, retry, hedging, and telemetry treatment. It is how
// dialogue turns execute when serving is sharded: the session layer
// resolves a follow-up to SQL, and that SQL routes exactly like an
// interpreted statement.
func (c *Cluster) AskSQL(ctx context.Context, sql string) (*resilient.Answer, error) {
	return c.front.AskSQL(ctx, sql)
}

// ServeBatch answers every question through the front's bounded worker
// pool and returns results in input order: questions not started when ctx
// ends fail with resilient.ErrShed, so callers can resubmit exactly the
// unserved tail.
func (c *Cluster) ServeBatch(ctx context.Context, questions []string) []resilient.BatchResult {
	return c.front.ServeBatch(ctx, questions)
}

// router is the Cluster as its front gateway's executor: the unexported
// entry the chain walk (and the public AskSQL, through the front) reaches
// routing by.
type router struct{ c *Cluster }

// AskSQL routes one statement and types its failure for the front: a
// routing verdict, a shard with no replica left, or a dead deadline is a
// resilient.Refusal — terminal and charged to no engine — while anything
// the statement itself caused (it does not parse, the schema refuses it)
// stays a plain error, and the next engine gets its turn.
func (r router) AskSQL(ctx context.Context, sql string) (*resilient.Answer, error) {
	ans, err := r.c.route(ctx, sql, resilient.RoutingFrom(ctx))
	if err != nil && (ctx.Err() != nil || errors.Is(err, ErrShardDown) || errors.Is(err, ErrNotDistributable)) {
		err = &resilient.Refusal{Outcome: askOutcome(err), Err: err}
	}
	return ans, err
}

// route is the coordinator's executor half: parse, bind against the full
// schema, classify, run on the shards that hold the rows, merge.
func (c *Cluster) route(ctx context.Context, sql string, st *resilient.Routing) (*resilient.Answer, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	_, csp := childSpan(ctx, "classify")
	rt := &route{kind: routeHome} // a single shard holds every row
	if _, err = c.bind.Prepare(stmt); err != nil {
		err = fmt.Errorf("plan: %w", err)
	} else if c.n > 1 {
		rt, err = classify(stmt, c.part)
	}
	if err != nil {
		csp.SetAttr("error", err.Error())
		csp.End()
		return nil, err
	}
	csp.SetAttr("route", routeNames[rt.kind])
	if rt.kind == routePruned {
		csp.SetAttr("shard", strconv.Itoa(rt.shard))
	}
	csp.End()
	c.countRoute(rt.kind, st)

	var ans *resilient.Answer
	switch rt.kind {
	case routeHome:
		// Any shard can answer (no partitioned table involved, or there is
		// only one shard): run it on the statement's rendezvous shard,
		// failing over to the next while whole shards are down.
		for _, s := range c.rendezvous(sql) {
			ans, err = c.askShard(ctx, s, sql, st)
			if err == nil || ctx.Err() != nil || !errors.Is(err, ErrShardDown) {
				break
			}
		}
	case routePruned:
		ans, err = c.askShard(ctx, rt.shard, sql, st)
	default:
		ans, err = c.scatter(ctx, rt, st)
	}
	if err != nil {
		return nil, err
	}
	// The answer names the statement as the coordinator parsed it, not a
	// replica's re-parse or the partial it was rewritten to.
	ans.SQL = stmt
	return ans, nil
}

// askOutcome maps a routing error to its outcome label.
func askOutcome(err error) string {
	switch {
	case errors.Is(err, ErrShardDown):
		return "shard_down"
	case errors.Is(err, ErrNotDistributable):
		return "not_distributable"
	case errors.Is(err, context.DeadlineExceeded):
		return "timeout"
	case errors.Is(err, context.Canceled):
		return "canceled"
	default:
		return "error"
	}
}

// childSpan starts a span under the coordinator trace, or no-ops (nil
// span, unchanged ctx) when tracing is off for this request — keeping the
// NoTrace hot path allocation-free.
func childSpan(ctx context.Context, name string) (context.Context, *obs.Span) {
	if obs.FromContext(ctx) == nil {
		return ctx, nil
	}
	return obs.StartSpan(ctx, name)
}

// childSpanf is childSpan with a formatted name, formatted only when a
// trace is live.
func childSpanf(ctx context.Context, format string, args ...any) (context.Context, *obs.Span) {
	if obs.FromContext(ctx) == nil {
		return ctx, nil
	}
	return obs.StartSpan(ctx, fmt.Sprintf(format, args...))
}

// scatter fans the partial statement out to every shard, merges what
// comes back, and annotates what could not. A shard that is down goes
// missing from a Partial answer; a shard that ran the statement and saw
// it fail fails the whole statement, as it would have unsharded.
func (c *Cluster) scatter(ctx context.Context, rt *route, st *resilient.Routing) (*resilient.Answer, error) {
	ctx, ssp := childSpan(ctx, "scatter")
	defer ssp.End()
	ssp.Add("shards", int64(c.n))
	ctx, cancel := context.WithCancel(ctx)
	defer cancel() // an early return stops the legs still running
	type leg struct {
		idx int
		ans *resilient.Answer
		err error
	}
	ch := make(chan leg, c.n)
	for s := 0; s < c.n; s++ {
		go func(s int) {
			a, e := c.askShard(ctx, s, rt.partialSQL, st)
			ch <- leg{idx: s, ans: a, err: e}
		}(s)
	}
	partials := make([]*sqldata.Result, c.n)
	var missing []int
	var firstErr error
	var usage sqlexec.Usage
	got := 0
	for i := 0; i < c.n; i++ {
		l := <-ch
		if l.err != nil {
			if !errors.Is(l.err, ErrShardDown) && ctx.Err() == nil {
				return nil, l.err
			}
			if firstErr == nil {
				firstErr = l.err
			}
			missing = append(missing, l.idx)
			if m := c.cfg.Metrics; m != nil {
				m.Counter(MetricShardDown, "shard", strconv.Itoa(l.idx)).Inc()
			}
			continue
		}
		partials[l.idx] = l.ans.Result
		usage.Rows += l.ans.Usage.Rows
		usage.JoinRows += l.ans.Usage.JoinRows
		usage.Subqueries += l.ans.Usage.Subqueries
		got++
	}
	if got == 0 {
		if firstErr != nil {
			return nil, firstErr
		}
		return nil, fmt.Errorf("shard: scatter produced no results")
	}
	_, msp := childSpan(ctx, "merge")
	msp.Add("merged", int64(got))
	res, err := rt.merge.merge(partials)
	if err != nil {
		msp.SetAttr("error", err.Error())
		msp.End()
		return nil, err
	}
	if res != nil {
		msp.Add("rows", int64(len(res.Rows)))
	}
	sort.Ints(missing)
	out := &resilient.Answer{
		Engine: resilient.SQLEngine, Score: 1, Result: res, Usage: usage,
		Partial: len(missing) > 0, MissingShards: missing,
	}
	if out.Partial {
		msp.SetAttr("missing", fmt.Sprint(missing))
		c.partials.Add(1)
		if m := c.cfg.Metrics; m != nil {
			m.Counter(MetricPartial).Inc()
		}
	}
	msp.End()
	return out, nil
}

// askShard runs one statement on shard s: pick the least-loaded healthy
// replica, hedge to a second after the latency-percentile delay, and
// retry with jittered backoff against replicas not yet tried. Failures
// that would repeat identically on any replica (a protocol or semantic
// refusal) return as-is; infrastructure failures exhaust into a
// *ShardDownError.
func (c *Cluster) askShard(ctx context.Context, s int, sql string, st *resilient.Routing) (*resilient.Answer, error) {
	ctx, sp := childSpanf(ctx, "shard %d", s)
	defer sp.End()
	st.Shards.Add(1)
	tried := map[*replica]bool{}
	var lastErr error
	for try := 0; ; try++ {
		if err := ctx.Err(); err != nil {
			if lastErr != nil {
				return nil, lastErr
			}
			return nil, err
		}
		lctx, cancel := context.WithTimeout(ctx, c.cfg.ShardTimeout)
		ans, err := c.legOnce(lctx, s, sql, tried, st)
		cancel()
		if err == nil {
			return ans, nil
		}
		if errors.Is(err, context.Canceled) && ctx.Err() != nil {
			return nil, err
		}
		if !errors.Is(err, ErrShardDown) && !replicaCountable(err) && !errors.Is(err, ErrBackpressure) {
			// Semantic and protocol failures repeat identically on every
			// replica: return as-is. Backpressure is the exception among
			// non-countable errors — the replica shed under load, so the
			// leg is worth retrying elsewhere.
			return nil, err
		}
		lastErr = err
		if try >= c.cfg.Retries {
			break
		}
		sp.Add("retries", 1)
		st.Retries.Add(1)
		c.stats[s].retries.Add(1)
		if m := c.cfg.Metrics; m != nil {
			m.Counter(MetricRetries, "shard", strconv.Itoa(s)).Inc()
		}
		delay := c.backoff(try)
		if len(tried) >= len(c.reps[s]) {
			// Every replica has had a direct attempt this leg; let the
			// next round reconsider all of them. When the whole replica
			// set shed (backpressure), honor the server's Retry-After —
			// capped so a scatter leg never parks for a whole advisory
			// second inside a 2s budget.
			clear(tried)
			if ra := retryAfterHint(lastErr); ra > delay {
				if ra > 250*time.Millisecond {
					ra = 250 * time.Millisecond
				}
				delay = ra
			}
		}
		if !c.sleep(ctx, delay) {
			break
		}
	}
	sp.SetAttr("outcome", "shard_down")
	c.stats[s].downLegs.Add(1)
	return nil, &ShardDownError{Shard: s, Err: lastErr}
}

// backoff is the jittered exponential retry delay for attempt number try
// (0-based): base<<try, plus up to 50% random jitter.
func (c *Cluster) backoff(try int) time.Duration {
	d := c.cfg.RetryBackoff << uint(try)
	if d > 250*time.Millisecond {
		d = 250 * time.Millisecond
	}
	c.mu.Lock()
	j := time.Duration(c.rng.Int63n(int64(d)/2 + 1))
	c.mu.Unlock()
	return d + j
}

func (c *Cluster) sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// legOnce makes one hedged attempt on shard s: the best untried healthy
// replica leads; if it fails fast the second-best takes over immediately,
// and if it is merely slow the second-best is hedged in after the
// latency-percentile delay, first answer wins.
func (c *Cluster) legOnce(ctx context.Context, s int, sql string, tried map[*replica]bool, st *resilient.Routing) (*resilient.Answer, error) {
	prim, alt := c.pick(s, tried)
	if prim == nil {
		return nil, &ShardDownError{Shard: s}
	}
	tried[prim] = true
	if alt == nil || c.cfg.NoHedge {
		ans, err := c.call(ctx, prim, sql, "primary")
		if err == nil || alt == nil {
			return ans, err
		}
		tried[alt] = true
		return c.call(ctx, alt, sql, "failover")
	}

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type rres struct {
		from *replica
		ans  *resilient.Answer
		err  error
	}
	ch := make(chan rres, 2)
	launch := func(r *replica, kind string) {
		go func() {
			a, e := c.call(cctx, r, sql, kind)
			ch <- rres{from: r, ans: a, err: e}
		}()
	}
	launch(prim, "primary")
	pending := 1
	hedged := false     // alt has been launched, for any reason
	hedgeFired := false // alt was launched by the hedge timer specifically
	timer := time.NewTimer(c.hedgeDelay(s))
	defer timer.Stop()
	var firstErr error
	for {
		select {
		case r := <-ch:
			pending--
			if r.err == nil {
				if hedgeFired && r.from == alt {
					// The hedge beat (or outlived) the primary: the fleet's
					// tail-latency insurance paid out.
					c.stats[s].hedgeWins.Add(1)
					obs.FromContext(ctx).SetAttr("hedge_win", "r"+strconv.Itoa(alt.idx))
				}
				return r.ans, nil
			}
			if firstErr == nil {
				firstErr = r.err
			}
			if !hedged {
				// The primary failed before the hedge delay elapsed:
				// fail over immediately instead of waiting.
				timer.Stop()
				hedged = true
				tried[alt] = true
				launch(alt, "failover")
				pending++
				continue
			}
			if pending == 0 {
				return nil, firstErr
			}
		case <-timer.C:
			hedged = true
			hedgeFired = true
			tried[alt] = true
			st.Hedged.Add(1)
			c.stats[s].hedges.Add(1)
			if m := c.cfg.Metrics; m != nil {
				m.Counter(MetricHedges, "shard", strconv.Itoa(s)).Inc()
			}
			launch(alt, "hedge")
			pending++
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// pick returns the two best (lowest-load) healthy replicas of shard s not
// in exclude. healthy() admits half-open probes, so a cooling breaker
// gets its single probe through here.
func (c *Cluster) pick(s int, exclude map[*replica]bool) (best, second *replica) {
	for _, r := range c.reps[s] {
		if exclude[r] || !r.healthy() {
			continue
		}
		switch {
		case best == nil || r.load() < best.load():
			second = best
			best = r
		case second == nil || r.load() < second.load():
			second = r
		}
	}
	return best, second
}

// hedgeDelay is how long shard s's primary gets before a hedge launches:
// the shard's HedgeQuantile latency, clamped to [HedgeMin, HedgeMax];
// HedgeMax until the reservoir has enough samples to trust.
func (c *Cluster) hedgeDelay(s int) time.Duration {
	h := c.hists[s]
	if h.Count() < 16 {
		return c.cfg.HedgeMax
	}
	d := time.Duration(h.Quantile(c.cfg.HedgeQuantile) * float64(time.Second))
	if d < c.cfg.HedgeMin {
		return c.cfg.HedgeMin
	}
	if d > c.cfg.HedgeMax {
		return c.cfg.HedgeMax
	}
	return d
}

// call sends one statement to one replica and folds the outcome into its
// health state and the shard's latency reservoir. kind labels why this
// attempt exists ("primary", "failover", "hedge") on its trace span; the
// replica's own parse/plan/execute trace nests beneath the span, so one
// coordinator tree shows the whole cross-node story.
func (c *Cluster) call(ctx context.Context, r *replica, sql string, kind string) (*resilient.Answer, error) {
	ctx, sp := childSpan(ctx, "attempt")
	sp.SetAttr("replica", strconv.Itoa(r.idx))
	sp.SetAttr("kind", kind)
	sp.SetAttr("breaker", r.br.State())
	r.inflight.Add(1)
	c.stats[r.shard].requests.Add(1)
	t0 := time.Now()
	ans, err := r.node.AskSQL(ctx, sql)
	elapsed := time.Since(t0)
	r.inflight.Add(-1)
	r.observe(err, elapsed)
	c.hists[r.shard].Observe(elapsed.Seconds())
	outcome := callOutcome(err)
	sp.SetAttr("outcome", outcome)
	sp.End()
	if m := c.cfg.Metrics; m != nil {
		sl := strconv.Itoa(r.shard)
		m.Counter(MetricRequests, "shard", sl, "outcome", outcome).Inc()
		m.Histogram(MetricReplicaSeconds, "shard", sl).Observe(elapsed.Seconds())
	}
	return ans, err
}

// callOutcome maps a replica-call error to its metric label.
func callOutcome(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrNodeDown):
		return "down"
	case errors.Is(err, ErrBackpressure):
		return "backpressure"
	case errors.Is(err, ErrStaleEpoch):
		return "stale_epoch"
	case errors.Is(err, context.DeadlineExceeded):
		return "timeout"
	case errors.Is(err, context.Canceled):
		return "canceled"
	default:
		return "error"
	}
}

func (c *Cluster) countRoute(kind routeKind, st *resilient.Routing) {
	st.Route = routeNames[kind]
	switch kind {
	case routeHome:
		c.routeHome.Add(1)
	case routePruned:
		c.routePruned.Add(1)
	default:
		c.routeScatter.Add(1)
	}
	if m := c.cfg.Metrics; m != nil {
		m.Counter(MetricRoutes, "route", st.Route).Inc()
	}
}

// rendezvous orders shards by highest-random-weight for a statement any
// shard can answer: element 0 is where it runs, the rest the failover
// order. Every process computing this over the same N gets the same
// order, so such statements spread evenly and stick to one shard's plan
// cache.
func (c *Cluster) rendezvous(sql string) []int {
	key := qcache.Key(sql)
	type sw struct {
		s int
		w uint64
	}
	ws := make([]sw, c.n)
	for s := 0; s < c.n; s++ {
		h := fnv.New64a()
		h.Write([]byte(key))
		h.Write([]byte{'#', byte(s), byte(s >> 8)})
		ws[s] = sw{s: s, w: h.Sum64()}
	}
	sort.Slice(ws, func(i, j int) bool {
		if ws[i].w != ws[j].w {
			return ws[i].w > ws[j].w
		}
		return ws[i].s < ws[j].s
	})
	out := make([]int, c.n)
	for i, w := range ws {
		out[i] = w.s
	}
	return out
}
