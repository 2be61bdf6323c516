// Command nlidb is an interactive natural-language interface to the demo
// databases: type English, see the generated SQL and its result.
//
// Usage:
//
//	nlidb [-domain sales] [-engine athena] [-chat] [-seed N]
//	      [-timeout 5s] [-fallback parse,pattern,keyword] [-csv a.csv,b.csv]
//	      [-explain] [-metrics-addr 127.0.0.1:9090] [-slowlog 250ms]
//	      [-cache 1024] [-parallel 8] [-plan-cache 256]
//	      [-serve 127.0.0.1:8080] [-drain-timeout 10s] [-max-inflight N]
//	      [-rate-limit R] [-shards N] [-replicas R]
//	      [-remote-shards spawn:N|endpoints] [-join S@E] [-health-sql Q]
//	      [-session-ttl D] [-session-rate R] [-trace-sample P]
//	      ["one-shot question" | "q1; q2; q3"]
//
// Engines: keyword, pattern, parse, athena (default). With -chat the
// session runs through the agent-based dialogue manager, so follow-ups
// like "only those with credit over 20000" and "how many are there" work.
//
// Questions are served through the resilient gateway: -timeout bounds
// each question's wall-clock time (0 disables the deadline), and the
// chain is -engine, then the -fallback engines in order (empty string
// disables fallback). Every stage runs under panic
// isolation and a resource budget, so a pathological question reports an
// error instead of hanging or crashing the session.
//
// Observability: -explain renders each query's span tree (stage
// durations, the engine attempt trail, rows/budget counters, and the
// evaluation plan) after the answer; -metrics-addr serves /metrics
// (Prometheus text), /debug/vars (expvar), /debug/pprof, and /slowlog;
// -slowlog sets the slow-query threshold (0 disables the log). In the
// interactive session, "slowlog" dumps the retained slow queries. A
// positional argument runs one question and exits — the EXPLAIN mode of
// the acceptance demo: nlidb -explain "customers in Berlin".
//
// Scaling & caching: every question is served through a sharded answer
// cache (-cache sets the capacity in entries, 0 disables; entries stay
// until evicted or the data changes — the cache key includes a database
// fingerprint, so inserts invalidate implicitly). A one-shot argument may
// pack several questions separated by ';'; with -parallel N they are
// served through the gateway's worker pool, sharing the cache, so repeats
// hit. Cached answers are marked in the provenance line and carry
// cached=true in the -explain trace.
//
// Serving: -serve exposes the gateway over HTTP (POST /query, POST
// /batch, plus the /metrics debug suite on the same port) behind the
// admission controller — adaptive concurrency limiting, deadline-aware
// queueing, priority classes, and optional per-client rate limiting
// (-rate-limit, req/s). -max-inflight caps concurrent admitted requests
// (0 = 2×GOMAXPROCS). On SIGINT/SIGTERM the server drains gracefully:
// new requests get 503 + Retry-After, in-flight ones get up to
// -drain-timeout to finish, stragglers are cancelled. See the README's
// Overload protection section for the protocol.
//
// Conversational serving (serve mode): POST /session opens a dialogue
// session, POST /session/ask resolves turns — follow-ups like "only
// those with credit over 20000" and "how many are there" — against the
// session's tracked context, DELETE /session ends it. Sessions live in
// a sharded store with a sliding -session-ttl, a 65,536-session cap and
// a 64 MiB budget (least-recently-used conversations are evicted under
// pressure and answer 410 Gone afterwards); repeated follow-ups are
// answered from a 4,096-entry context-keyed cache, and -session-rate adds
// a per-session token bucket on top of the per-client -rate-limit. A turn
// is a request to the serving backend: a full question goes through its
// Ask, exactly as on POST /query, and a follow-up's resolved statement
// through its AskSQL.
//
// Fleet observability (serve mode): every question is traced end-to-end
// — interpretation at the coordinator, classify/route, per-replica
// attempts with hedge/retry/breaker annotations, each replica's
// parse/plan/execute, merge — and tail-sampled into the
// /trace exemplar store (slow, failed, and partial queries always
// retained; healthy ones at -trace-sample under a 16,384-span budget).
// /fleet reports per-shard/per-replica health rollups, and /slo serves
// multi-window (5m/1h/6h/3d) burn rates against a 500 ms latency
// objective met by 99% of requests and a 99.9% availability objective;
// both also ride the /metrics scrape.
//
// Fault tolerance: -shards N partitions the data across N in-process
// shards (foreign-key co-located) with -replicas R SQL executors each,
// behind health-checked, load-aware routing with hedged requests. A
// question is interpreted once, at the coordinator, by the same chain,
// breakers, cache and batch pool the unsharded gateway runs, over the
// full database's vocabulary; shards only ever execute the SQL that
// produced. Cross-shard questions run scatter-gather and degrade to explicit
// partial answers when a shard has no healthy replica (see DESIGN.md's
// failure-modes matrix). Circuit-breaker half-open probes are jittered
// (by up to cooldown/8) to avoid synchronized retry storms.
//
// Out-of-process shards (serve mode): -remote-shards spawn:N forks N×R
// real child processes of this binary — each importing its CSV partition
// (types and keys as declared, from the schema sidecar next to each
// file) and serving the internal HTTP protocol — supervised with
// /healthz readiness gates and jittered-backoff restart; mutually
// exclusive with -shards. Alternatively -remote-shards takes explicit
// endpoints ("http://h1:9001,http://h2:9001;http://h3:9002" — ';'
// between shards, ',' between replicas) for externally managed
// processes. Children are started with -join shard@epoch, which makes the
// process a shard node: it executes the SQL POST /internal/query brings
// and builds no index, lexicon, interpreter chain or session store
// (-engine and -fallback are the coordinator's business), and it fences
// every internal request against a stale shard map (typed 409 on
// mismatch); GET /shardmap serves the coordinator's current versioned map. -health-sql overrides
// the deep-probe query /healthz?deep=1 executes (default: SELECT
// COUNT(*) on the first table; "none" disables the deep probe).
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"nlidb/internal/admission"
	"nlidb/internal/autocomplete"
	"nlidb/internal/benchdata"
	"nlidb/internal/dialogue"
	"nlidb/internal/invindex"
	"nlidb/internal/lexicon"
	"nlidb/internal/nlq"
	"nlidb/internal/obs"
	"nlidb/internal/ontology"
	"nlidb/internal/qcache"
	"nlidb/internal/resilient"
	"nlidb/internal/server"
	"nlidb/internal/session"
	"nlidb/internal/shard"
	"nlidb/internal/sqldata"
	"nlidb/internal/sqlexec"
)

// disabledIfZero maps the CLI cache-size convention (0 = off) onto the
// cluster's (negative = off, 0 = default capacity).
func disabledIfZero(n int) int {
	if n == 0 {
		return -1
	}
	return n
}

func main() {
	domain := flag.String("domain", "sales", "demo domain: sales, movies, hospital, flights, university, medical")
	engine := flag.String("engine", "athena", "first engine of the interpreter chain: keyword, pattern, parse, athena")
	fallback := flag.String("fallback", "parse,pattern,keyword", "comma-separated engines tried, in order, after -engine fails (empty disables)")
	timeout := flag.Duration("timeout", 5*time.Second, "per-question wall-clock deadline (0 disables)")
	chat := flag.Bool("chat", false, "conversational mode (agent-based dialogue manager)")
	seed := flag.Int64("seed", 1, "data generation seed")
	csvFiles := flag.String("csv", "", "comma-separated CSV files to query instead of a demo domain (table name = file name)")
	explain := flag.Bool("explain", false, "print each query's trace tree (stages, durations, rows/budget counters, plan)")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /debug/vars, /debug/pprof and /slowlog on this address")
	slowlog := flag.Duration("slowlog", 250*time.Millisecond, "slow-query log threshold (0 disables the log)")
	cacheSize := flag.Int("cache", 1024, "answer-cache capacity in entries (0 disables caching)")
	parallel := flag.Int("parallel", 0, "worker-pool size for ';'-separated one-shot questions (0 = serial)")
	planCacheSize := flag.Int("plan-cache", 256, "physical-plan cache capacity in entries (0 disables)")
	serveAddr := flag.String("serve", "", "serve POST /query and /batch over HTTP on this address (e.g. 127.0.0.1:8080) instead of the REPL")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "graceful-drain budget for in-flight requests on SIGINT/SIGTERM (serve mode)")
	maxInflight := flag.Int("max-inflight", 0, "admission concurrency ceiling in serve mode (0 = 2×GOMAXPROCS)")
	rateLimit := flag.Float64("rate-limit", 0, "per-client request rate limit in req/s in serve mode (0 disables)")
	sessionTTL := flag.Duration("session-ttl", 15*time.Minute, "idle lifetime of a conversational session in serve mode (sliding; expired sessions answer 410 Gone)")
	sessionRate := flag.Float64("session-rate", 0, "per-session turn rate limit in req/s in serve mode (0 disables)")
	shards := flag.Int("shards", 0, "partition the data across N replicated engine shards in serve mode (0/1 = unsharded)")
	replicas := flag.Int("replicas", 2, "replicas per shard when -shards is set")
	remoteShards := flag.String("remote-shards", "", "serve through out-of-process shard nodes: \"spawn:N\" supervises N×replicas child processes, or list endpoints \"host:p1,host:p2;host:p3,host:p4\" (';' between shards, ',' between replicas)")
	join := flag.String("join", "", "run as a shard node joined at SHARD@EPOCH (set by the supervisor; refuses requests stamped with a different shard-map epoch)")
	healthSQL := flag.String("health-sql", "", "deep /healthz probe statement in serve mode (default: SELECT COUNT(*) over the first table; \"none\" disables the deep probe)")
	traceSample := flag.Float64("trace-sample", 0.01, "probability of retaining a healthy fast query's trace as an exemplar (slow/failed/partial traces are always retained; 1 keeps everything)")
	flag.Parse()

	var d *benchdata.Domain
	switch {
	case *csvFiles != "":
		db := sqldata.NewDatabase("csv")
		for _, path := range strings.Split(*csvFiles, ",") {
			// A file with a schema sidecar (a shard node's partition) loads
			// as declared; a bare CSV is named after the file and inferred.
			tbl, err := sqldata.LoadCSVFile(strings.TrimSpace(path))
			if err == nil {
				err = db.AddTable(tbl)
			}
			if err != nil {
				fatalf("%v", err)
			}
		}
		d = &benchdata.Domain{Name: "csv", DB: db}
	case strings.EqualFold(*domain, "medical"):
		d = benchdata.Medical(*seed)
	default:
		d = benchdata.DomainByName(*domain, *seed)
	}
	if d == nil {
		fatalf("unknown domain %q", *domain)
	}

	shardIdx, shardEpoch, err := parseJoin(*join)
	if err != nil {
		fatalf("%v", err)
	}
	// A shard node (-join) executes the SQL its coordinator sends and
	// nothing else: it builds no index, no lexicon, no interpreter chain
	// and no session store over a partition whose vocabulary is a
	// fragment of the database's.
	node := *join != ""
	if node && (*serveAddr == "" || *shards > 1 || *remoteShards != "") {
		fatalf("-join runs a shard node: it needs -serve and excludes -shards and -remote-shards")
	}

	// One inverted index per process: the interpreter chain, the session
	// and chat agents' resolver, and the REPL completer all share it.
	var (
		ix    *invindex.Index
		chain []nlq.Interpreter
	)
	if !node {
		lex := lexicon.New()
		ix = invindex.Build(d.DB, lex)
		names := []string{*engine}
		if *fallback != "" {
			names = append(names, strings.Split(*fallback, ",")...)
		}
		if chain, err = resilient.ChainOverIndex(d.DB, ix, lex, names); err != nil {
			fatalf("%v", err)
		}
	}

	reg := obs.Default()
	var slow *obs.SlowLog
	if *slowlog > 0 {
		slow = obs.NewSlowLog(*slowlog, 128)
	}
	var cache *qcache.Cache
	if *cacheSize > 0 {
		cache = qcache.New(qcache.Config{MaxEntries: *cacheSize, Metrics: reg})
	}
	var planCache *qcache.Cache
	if *planCacheSize > 0 {
		// No metrics registry: plan-cache hit rates would share metric
		// families with the answer cache and double-count.
		planCache = qcache.New(qcache.Config{MaxEntries: *planCacheSize})
	}
	// Half-open probes are jittered: breakers that tripped together must
	// not all retry the recovering engine at the same instant.
	jitter := resilient.DefaultBreakerJitter(0)
	// The exemplar trace store backs GET /trace: slow/failed/partial
	// queries are always retained, healthy fast ones tail-sampled at
	// -trace-sample, all under the default span budget.
	traces := obs.NewTraceStore(obs.TraceStoreConfig{
		SlowThreshold: *slowlog,
		SampleRate:    *traceSample,
	})
	gw := resilient.New(d.DB, chain, resilient.Config{
		Timeout: *timeout, Metrics: reg, SlowLog: slow, Traces: traces,
		Cache: cache, PlanCache: planCache, Workers: *parallel,
		BreakerJitter: jitter,
	})
	if *serveAddr != "" {
		slo := obs.NewSLO(obs.SLOConfig{})
		obsOpts := []obs.HandlerOption{
			obs.WithPage("/slo", slo.Handler()),
			obs.WithPage("/trace", traces.Handler()),
			obs.WithProm(slo.WriteProm),
		}
		// The gateway, or the shard coordinator when -shards or
		// -remote-shards is set, serves /query, /batch and session turns.
		var backend interface {
			server.Backend
			dialogue.Asker
		} = gw
		// -shards and -remote-shards build one coordinator configuration;
		// only where the replicas run differs.
		clusterCfg := shard.Config{
			Replicas: *replicas,
			Chain:    chain,
			Gateway:  resilient.Config{BreakerJitter: jitter},
			Timeout:  *timeout,
			// The flag convention is 0 = off; the cluster's is negative =
			// off, 0 = default capacity.
			CacheSize:     disabledIfZero(*cacheSize),
			PlanCacheSize: disabledIfZero(*planCacheSize),
			Metrics:       reg,
			SlowLog:       slow,
			Traces:        traces,
			Seed:          *seed,
			Workers:       *parallel,
		}
		if *shards > 1 {
			cl, err := shard.New(d.DB, *shards, clusterCfg)
			if err != nil {
				fatalf("%v", err)
			}
			backend = cl
			obsOpts = append(obsOpts,
				obs.WithPage("/fleet", cl.FleetHandler()),
				obs.WithProm(cl.WriteProm))
			fmt.Printf("sharded: %d shards × %d replicas, rows/shard %v\n",
				cl.ShardCount(), cl.ReplicaCount(), cl.Partitioning().RowsPerShard)
		}
		if *remoteShards != "" {
			if *shards > 1 {
				fatalf("-shards and -remote-shards are mutually exclusive")
			}
			cl, mapSrc, sup, err := remoteCluster(d.DB, *remoteShards, clusterCfg)
			if err != nil {
				fatalf("%v", err)
			}
			if sup != nil {
				defer sup.Close()
			}
			backend = cl
			obsOpts = append(obsOpts,
				obs.WithPage("/fleet", cl.FleetHandler()),
				obs.WithPage("/shardmap", mapSrc.Handler()),
				obs.WithProm(cl.WriteProm))
			fmt.Printf("remote shards: %d shards × %d replicas (out-of-process), rows/shard %v\n",
				cl.ShardCount(), cl.ReplicaCount(), cl.Partitioning().RowsPerShard)
		}
		var sessionRL *admission.RateLimiter
		var sessions *session.Store
		if !node {
			if *sessionRate > 0 {
				sessionRL = admission.NewRateLimiter(admission.RateConfig{RPS: *sessionRate})
			}
			var onEvict func(id, reason string)
			if sessionRL != nil {
				// Evicted sessions release their rate-limiter bucket so dead
				// conversations stop occupying tracked-client slots.
				onEvict = func(id, _ string) { sessionRL.Forget(id) }
			}
			sessions, err = session.New(session.Config{
				Responder: dialogue.NewAgent(ix, backend),
				DB:        d.DB,
				TTL:       *sessionTTL,
				Metrics:   reg,
				SlowLog:   slow,
				Traces:    traces,
				OnEvict:   onEvict,
			})
			if err != nil {
				fatalf("%v", err)
			}
		}
		// Deep /healthz probes default to a COUNT over the first table: a
		// statement every partition can answer, so a wedged pipeline fails
		// the probe while the port still accepts.
		probe := *healthSQL
		switch {
		case strings.EqualFold(probe, "none"):
			probe = ""
		case probe == "":
			if ts := d.DB.Tables(); len(ts) > 0 {
				probe = "SELECT COUNT(*) FROM " + ts[0].Schema.Name
			}
		}
		if err := serve(backend, reg, slow, slo, serveOptions{
			addr:         *serveAddr,
			drainTimeout: *drainTimeout,
			maxInflight:  *maxInflight,
			rateLimit:    *rateLimit,
			sessions:     sessions,
			sessionRL:    sessionRL,
			healthSQL:    probe,
			shardIndex:   shardIdx,
			shardEpoch:   shardEpoch,
		}, obsOpts...); err != nil {
			fatalf("%v", err)
		}
		return
	}
	if *metricsAddr != "" {
		_, bound, err := obs.Serve(*metricsAddr, reg, slow, obs.WithPage("/trace", traces.Handler()))
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("metrics: http://%s/metrics (also /debug/vars, /debug/pprof, /slowlog, /trace)\n", bound)
	}

	// One-shot mode: answer the positional question(s) and exit. Several
	// questions may be packed into one argument separated by ';'; they
	// share the gateway — and therefore the answer cache — and run through
	// the worker pool when -parallel is set.
	if flag.NArg() > 0 {
		questions := splitQuestions(strings.Join(flag.Args(), " "))
		if len(questions) == 0 {
			fatalf("empty question")
		}
		oneShot(gw, questions, *parallel, *explain)
		return
	}

	fmt.Printf("nlidb — domain %q, engine %q%s\n", d.Name, chain[0].Name(),
		map[bool]string{true: ", conversational", false: ""}[*chat])
	if len(chain) > 1 {
		var rest []string
		for _, e := range chain[1:] {
			rest = append(rest, e.Name())
		}
		fmt.Printf("fallback: %s (timeout %s)\n", strings.Join(rest, " → "), *timeout)
	}
	fmt.Println("tables:")
	for _, t := range d.DB.Tables() {
		fmt.Printf("  %s\n", t.Schema.DDL())
	}
	fmt.Println(`type a question ("exit" to quit; "? <prefix>" for completions; "slowlog" for slow queries; "explain [analyze] <question>" for plans):`)

	completer := autocomplete.New(d.DB, ontology.FromDatabase(d.DB), ix)
	eng := sqlexec.New(d.DB)
	var agent *dialogue.Agent
	if *chat {
		// The chat agent is served by the same gateway as one-shot and
		// serve modes: chain, caches, budgets, traces.
		agent = dialogue.NewAgent(ix, gw)
	}

	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("> ")
		if !sc.Scan() {
			break
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if line == "exit" || line == "quit" {
			break
		}
		if line == "slowlog" {
			if slow == nil {
				fmt.Println("  slow-query log disabled (-slowlog 0)")
			} else {
				fmt.Printf("  threshold %s, %d recorded\n%s\n", slow.Threshold(), slow.Total(), indent(slow.String()))
			}
			continue
		}
		if strings.HasPrefix(line, "?") {
			// TR-Discover-style completion of the typed prefix.
			prefix := strings.TrimSpace(strings.TrimPrefix(line, "?"))
			for _, s := range completer.Suggest(prefix, 8) {
				fmt.Printf("  %-24s (%s)\n", s.Text, s.Kind)
			}
			continue
		}
		if q, ok := strings.CutPrefix(line, "explain analyze "); ok {
			ans, err := gw.Ask(context.Background(), q)
			if err != nil {
				fmt.Printf("  could not answer: %v\n", err)
				continue
			}
			fmt.Printf("  SQL: %s  (engine %s)\n", ans.SQL, ans.Engine)
			tree, res, err := eng.ExplainAnalyze(context.Background(), ans.SQL, sqlexec.DefaultBudget())
			if err != nil {
				fmt.Printf("  explain analyze failed: %v\n", err)
				continue
			}
			fmt.Println(indent(tree))
			fmt.Printf("  (%d rows)\n", len(res.Rows))
			continue
		}
		if q, ok := strings.CutPrefix(line, "explain "); ok {
			ans, err := gw.Ask(context.Background(), q)
			if err != nil {
				fmt.Printf("  could not answer: %v\n", err)
				continue
			}
			fmt.Printf("  SQL: %s  (engine %s)\n", ans.SQL, ans.Engine)
			plan, err := eng.Explain(ans.SQL)
			if err != nil {
				fmt.Printf("  explain failed: %v\n", err)
				continue
			}
			fmt.Println(indent(plan))
			continue
		}

		if agent != nil {
			resp, err := agent.Respond(context.Background(), line)
			if err != nil {
				fmt.Printf("  %s (%v)\n", resp.Message, err)
				continue
			}
			if resp.SQL != nil {
				fmt.Printf("  SQL: %s\n", resp.SQL)
			}
			if resp.Result != nil {
				fmt.Println(indent(resp.Result.String()))
			} else {
				fmt.Printf("  %s\n", resp.Message)
			}
			continue
		}

		ans, err := gw.Ask(context.Background(), line)
		if err != nil {
			fmt.Printf("  could not answer: %v\n", err)
			var ce *resilient.ChainError
			if *explain && errors.As(err, &ce) && ce.Trace != nil {
				fmt.Println(indent(ce.Trace.String()))
			}
			continue
		}
		printAnswer(ans)
		if *explain {
			fmt.Println(indent(ans.Trace.String()))
		}
	}
}

// splitQuestions splits a one-shot argument on ';' into trimmed,
// non-empty questions.
func splitQuestions(s string) []string {
	var out []string
	for _, q := range strings.Split(s, ";") {
		if q = strings.TrimSpace(q); q != "" {
			out = append(out, q)
		}
	}
	return out
}

// oneShot serves the one-shot questions — through the worker pool when
// parallel > 0 and there is more than one — and exits non-zero if any
// question failed.
func oneShot(gw *resilient.Gateway, questions []string, parallel int, explain bool) {
	multi := len(questions) > 1
	var results []resilient.BatchResult
	if parallel > 0 && multi {
		results = gw.ServeBatch(context.Background(), questions)
	} else {
		for i, q := range questions {
			ans, err := gw.Ask(context.Background(), q)
			results = append(results, resilient.BatchResult{Index: i, Question: q, Answer: ans, Err: err})
		}
	}
	failed := false
	for _, r := range results {
		if multi {
			fmt.Printf("» %s\n", r.Question)
		}
		if r.Err != nil {
			failed = true
			fmt.Fprintf(os.Stderr, "nlidb: could not answer: %v\n", r.Err)
			var ce *resilient.ChainError
			if explain && errors.As(r.Err, &ce) && ce.Trace != nil {
				fmt.Println(ce.Trace)
			}
			continue
		}
		printAnswer(r.Answer)
		if explain {
			fmt.Println(r.Answer.Trace)
		}
	}
	if failed {
		os.Exit(1)
	}
}

// printAnswer renders one gateway answer: SQL, provenance, rows.
func printAnswer(ans *resilient.Answer) {
	fmt.Printf("  SQL: %s  (confidence %.2f, engine %s", ans.SQL, ans.Score, ans.Engine)
	if ans.Simplified {
		fmt.Print(", simplified retry")
	}
	if ans.Cached {
		fmt.Print(", cached")
	}
	fmt.Printf(", %s)\n", ans.Elapsed.Round(time.Microsecond))
	fmt.Println(indent(ans.Result.String()))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "nlidb: "+format+"\n", args...)
	os.Exit(1)
}

func indent(s string) string {
	return "  " + strings.ReplaceAll(s, "\n", "\n  ")
}
