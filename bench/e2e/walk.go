package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"nlidb/internal/admission"
	"nlidb/internal/invindex"
	"nlidb/internal/lexicon"
	"nlidb/internal/nlp"
	"nlidb/internal/nlq"
	"nlidb/internal/plan"
	"nlidb/internal/qcache"
	"nlidb/internal/resilient"
	"nlidb/internal/server"
	"nlidb/internal/shard"
	"nlidb/internal/sqldata"
	"nlidb/internal/sqlexec"
	"nlidb/internal/sqlparse"
)

// The layer walk calls each layer's public functions directly, one
// question at a time, in this process, and records a span around every
// call. It answers "where does a request's time go" without touching the
// program: spans inside the program are a later change. The serving child
// is not involved except for the cache hit ratio.

// spanRec is one recorded call. Times are nanoseconds since the tracer
// started.
type spanRec struct {
	ID int `json:"id"`
	// Parent is the ID of the span that was open when this one began, 0
	// for none.
	Parent int `json:"parent"`
	// Trace groups the spans of one question: its index in the walk, or -1
	// for work done once per run.
	Trace   int    `json:"trace"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

func (s spanRec) duration() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// tracer keeps spans in memory; the walk is serial, so the open spans form
// a stack.
type tracer struct {
	t0    time.Time
	trace int
	spans []spanRec
	open  []int // indexes into spans
}

func newTracer() *tracer { return &tracer{t0: time.Now(), trace: -1} }

// do runs f inside a span and returns the span's duration.
func (t *tracer) do(name string, f func()) time.Duration {
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	i := len(t.spans)
	t.spans = append(t.spans, spanRec{ID: i + 1, Parent: parent, Trace: t.trace, Name: name})
	t.open = append(t.open, i)
	t.spans[i].StartNs = int64(time.Since(t.t0))
	f()
	t.spans[i].EndNs = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
	return t.spans[i].duration()
}

// durationsUs lists the durations, in microseconds, of the spans with name.
func (t *tracer) durationsUs(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.duration())/float64(time.Microsecond))
		}
	}
	return out
}

// selfTimes returns, per span ID, the span's duration minus the part of
// it that its child spans cover.
func selfTimes(spans []spanRec) map[int]time.Duration {
	children := map[int][]spanRec{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		covered, until := int64(0), s.StartNs
		for _, k := range kids {
			start, end := max(k.StartNs, until), min(k.EndNs, s.EndNs)
			if end > start {
				covered += end - start
				until = end
			}
		}
		self[s.ID] = s.duration() - time.Duration(covered)
	}
	return self
}

// selfTimeByName sums self times over the spans of each name.
func selfTimeByName(spans []spanRec) map[string]time.Duration {
	self := selfTimes(spans)
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}

// cannedBackend answers every question with one prepared answer, so that
// a request through server.Server costs only what the server adds.
type cannedBackend struct {
	ans *resilient.Answer
	err error
}

func (b *cannedBackend) Ask(context.Context, string) (*resilient.Answer, error) {
	return b.ans, b.err
}

func (b *cannedBackend) ServeBatch(context.Context, []string) []resilient.BatchResult { return nil }

// cannedAnswer is an n-row answer shaped like a listing.
func cannedAnswer(n int) *resilient.Answer {
	stmt, err := sqlparse.Parse("SELECT name, city FROM customer")
	if err != nil {
		panic(err)
	}
	res := &sqldata.Result{Columns: []string{"name", "city"}}
	for i := 0; i < n; i++ {
		res.Rows = append(res.Rows, sqldata.Row{sqldata.NewText(fmt.Sprintf("customer%05d", i)), sqldata.NewText("Berlin")})
	}
	return &resilient.Answer{Engine: "canned", SQL: stmt, Result: res, Score: 1}
}

// serveOnce sends one POST /query through srv in-process and returns the
// status; only the ServeHTTP call is inside the span.
func serveOnce(t *tracer, name string, srv *server.Server, question string) int {
	body, _ := json.Marshal(map[string]string{"question": question}) // a map of strings always marshals
	req := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	t.do(name, func() { srv.ServeHTTP(rec, req) })
	return rec.Code
}

func newCannedServer(b *cannedBackend) *server.Server {
	return server.New(server.Config{Backend: b, Admission: admission.New(admission.Config{})})
}

// mallocs reads the allocation counters. ReadMemStats stops the world, so
// it is called outside spans only.
func mallocs() (count, bytes uint64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs, m.TotalAlloc
}

// medianOf3 runs build three times inside spans and returns the median
// duration in milliseconds.
func medianOf3(t *tracer, name string, build func()) float64 {
	var ms []float64
	for i := 0; i < 3; i++ {
		ms = append(ms, float64(t.do(name, build))/float64(time.Millisecond))
	}
	return median(ms)
}

// walker holds what the layer walk calls into and what it counts.
type walker struct {
	t   *tracer
	ctx context.Context
	db  *sqldata.Database

	ix                *invindex.Index
	opts              invindex.LookupOptions
	engines           map[string]nlq.Interpreter
	gwPlain, gwTraced *resilient.Gateway
	cluster           *shard.Cluster // nil unless the topology is sharded
	cache             *qcache.Cache
	planned           *sqlexec.Engine
	echo              *cannedBackend
	echoServer        *server.Server

	indexBuildMs, chainBuildMs, shardBuildMs float64

	questions, answers, attempts int
	failed                       int
	answered                     map[string]int // per engine: questions it returned SQL for
	lookups, lookupMallocs       uint64
	askMallocs, askBytes         uint64
	plans, vectorized, planHits  int
	rowsScanned, rowsOut         int
	shardAsked, shardRefused     int
	shardMismatch                int
	// Sums over the answered questions, for the time-weighted shares.
	askSum, srvSum, blockingSum, interpSum, runSum time.Duration
}

// newWalker builds every layer once, timing the builds, and measures what
// the server and admission add around a backend that answers at once.
func newWalker(w *workload, db *sqldata.Database, seed int64) (*walker, error) {
	t := newTracer()
	lex := lexicon.New()
	wk := &walker{
		t: t, ctx: context.Background(), db: db, opts: invindex.DefaultOptions(),
		engines: map[string]nlq.Interpreter{}, answered: map[string]int{},
		cache:   qcache.New(qcache.Config{MaxEntries: answerCacheEntries}),
		planned: sqlexec.NewWithPlanCache(db, qcache.New(qcache.Config{MaxEntries: planCacheEntries})),
		echo:    &cannedBackend{},
	}
	wk.echoServer = newCannedServer(wk.echo)

	wk.indexBuildMs = medianOf3(t, "invindex.build", func() { wk.ix = invindex.Build(db, lex) })
	var chain []nlq.Interpreter
	var err error
	wk.chainBuildMs = medianOf3(t, "resilient.chain_build", func() { chain, err = buildChain(db) })
	if err != nil {
		return nil, err
	}
	for _, name := range resilient.DefaultChainNames {
		if wk.engines[name], err = resilient.EngineByName(name, db, lex); err != nil {
			return nil, err
		}
	}
	wk.gwPlain = resilient.New(db, chain, resilient.Config{Timeout: askTimeout, NoTrace: true})
	wk.gwTraced = resilient.New(db, chain, resilient.Config{Timeout: askTimeout})
	if w.Topology == "shard2" {
		wk.shardBuildMs = medianOf3(t, "shard.build", func() {
			wk.cluster, err = shard.New(db, shardCount, shard.Config{
				Replicas: shardReplicas, Chain: chain, Timeout: askTimeout,
				CacheSize: -1, PlanCacheSize: planCacheEntries, Seed: seed,
			})
		})
		if err != nil {
			return nil, err
		}
	}

	ctrl := admission.New(admission.Config{})
	for i := 0; i < 2000; i++ {
		t.do("admission.acquire", func() {
			if release, err := ctrl.Acquire(wk.ctx, admission.Interactive); err == nil {
				release()
			}
		})
	}
	small, large := newCannedServer(&cannedBackend{ans: cannedAnswer(1)}), newCannedServer(&cannedBackend{ans: cannedAnswer(5000)})
	for i := 0; i < 300; i++ {
		serveOnce(t, "server.request_1row", small, "customers in Berlin")
	}
	for i := 0; i < 30; i++ {
		serveOnce(t, "server.request_5krow", large, "customers in Berlin")
	}
	return wk, nil
}

// visit walks question i through every layer.
func (wk *walker) visit(i int, text string) {
	t := wk.t
	t.trace = i
	defer func() { t.trace = -1 }()
	wk.questions++

	var (
		ans                             *resilient.Answer
		askErr                          error
		key, tok, ask, parse, prep, run time.Duration
		interp                          = map[string]time.Duration{}
	)
	t.do("walk.question", func() {
		var k string
		key = t.do("qcache.key", func() { k = qcache.WithFingerprint(wk.db.Fingerprint(), qcache.Key(text)) })
		wk.cache.Put(k, text)
		t.do("qcache.get", func() { wk.cache.Get(k) })

		var toks []nlp.Token
		tok = t.do("nlp.tokenize", func() { toks = nlp.Tokenize(text) })
		m0, _ := mallocs()
		for _, wd := range nlp.Words(toks) {
			t.do("invindex.lookup", func() { wk.ix.Lookup(wd.Lower, wk.opts) })
			wk.lookups++
		}
		m1, _ := mallocs()
		wk.lookupMallocs += m1 - m0
		t.do("nlq.analyze", func() { nlq.Analyze(text, wk.ix, wk.opts) })

		for _, name := range resilient.DefaultChainNames {
			var ins []nlq.Interpretation
			var err error
			interp[name] = t.do("interp."+name, func() { ins, err = wk.engines[name].Interpret(text) })
			if best, berr := nlq.Best(ins); err == nil && berr == nil && best.SQL != nil {
				wk.answered[name]++
			}
		}

		// The second of two identical asks finds warm CPU caches, so the
		// traced and the untraced gateway take turns going first.
		askTraced := func() { t.do("resilient.ask_traced", func() { wk.gwTraced.Ask(wk.ctx, text) }) }
		if i%2 == 1 {
			askTraced()
		}
		m0, b0 := mallocs()
		ask = t.do("resilient.ask", func() { ans, askErr = wk.gwPlain.Ask(wk.ctx, text) })
		m1, b1 := mallocs()
		wk.askMallocs += m1 - m0
		wk.askBytes += b1 - b0
		if i%2 == 0 {
			askTraced()
		}
		if ans == nil {
			return
		}

		// The statement the gateway answered with, stage by stage.
		var stmt *sqlparse.SelectStmt
		var p *plan.Plan
		var res *sqldata.Result
		var usage plan.Usage
		var err error
		parse = t.do("sqlparse.parse", func() { stmt, err = sqlparse.Parse(ans.SQL.String()) })
		if err != nil {
			return
		}
		prep = t.do("plan.prepare", func() { p, err = plan.Prepare(wk.db, stmt) })
		if err != nil {
			return
		}
		run = t.do("plan.run", func() { res, usage, err = p.Run(wk.ctx, plan.DefaultBudget()) })
		if err != nil {
			return
		}
		wk.plans++
		if p.Vectorized() {
			wk.vectorized++
		}
		wk.rowsScanned += usage.Rows
		wk.rowsOut += len(res.Rows)
		if _, hit, _ := wk.planned.PrepareCached(stmt); hit {
			wk.planHits++
		}
	})
	if ans == nil {
		// A question no engine can read is an answer; anything else is not.
		if !errors.Is(askErr, resilient.ErrExhausted) {
			wk.failed++
		}
		return
	}
	wk.answers++
	wk.attempts += len(ans.Attempts) + 1

	wk.echo.ans = ans
	var srv time.Duration
	if serveOnce(t, "server.request", wk.echoServer, text) == http.StatusOK {
		srv = t.spans[len(t.spans)-1].duration()
	}
	wk.askSum += ask
	wk.srvSum += srv
	wk.blockingSum += key + tok + interp[ans.Engine] + parse + prep + run + srv
	wk.interpSum += interp[ans.Engine]
	wk.runSum += prep + run

	if wk.cluster != nil {
		wk.shardAsked++
		var sans *resilient.Answer
		var err error
		t.do("shard.ask", func() { sans, err = wk.cluster.Ask(wk.ctx, text) })
		switch {
		case errors.Is(err, shard.ErrNotDistributable):
			wk.shardRefused++
		case err != nil || !sameRows(resultRows(ans.Result), resultRows(sans.Result), len(ans.SQL.OrderBy) > 0):
			wk.shardMismatch++
		}
	}
}

// report adds the per-layer metrics (all but qcache.hit_ratio) to r.
func (wk *walker) report(r *report) {
	n := float64(wk.questions)
	med := func(name string) float64 { return median(wk.t.durationsUs(name)) }
	r.add("server.overhead_us", med("server.request_1row"), "us")
	r.add("server.encode_us_per_krow", (med("server.request_5krow")-med("server.request_1row"))/5, "us")
	r.add("admission.acquire_us", med("admission.acquire"), "us")
	r.add("qcache.key_us", med("qcache.key"), "us")
	r.add("qcache.get_us", med("qcache.get"), "us")
	r.add("nlp.tokenize_us", med("nlp.tokenize"), "us")
	r.add("invindex.keys", float64(wk.ix.Size()), "count")
	r.add("invindex.build_ms", wk.indexBuildMs, "ms")
	r.add("invindex.lookup_us", med("invindex.lookup"), "us")
	r.add("invindex.lookup_allocs", ratio(float64(wk.lookupMallocs), float64(wk.lookups)), "count")
	r.add("nlq.analyze_us", med("nlq.analyze"), "us")
	for _, name := range resilient.DefaultChainNames {
		r.add("interp."+name+".us", med("interp."+name), "us")
		r.add("interp."+name+".answered_ratio", ratio(float64(wk.answered[name]), n), "ratio")
	}
	askUs := med("resilient.ask")
	r.add("resilient.chain_build_ms", wk.chainBuildMs, "ms")
	r.add("resilient.ask_us", askUs, "us")
	r.add("resilient.ask_allocs", ratio(float64(wk.askMallocs), n), "count")
	r.add("resilient.ask_kb", ratio(float64(wk.askBytes), n)/1024, "KB")
	r.add("resilient.attempts_per_answer", ratio(float64(wk.attempts), float64(wk.answers)), "count")
	r.add("resilient.trace_overhead_pct", ratio(med("resilient.ask_traced")-askUs, askUs)*100, "%")
	r.add("sqlparse.parse_us", med("sqlparse.parse"), "us")
	r.add("plan.prepare_us", med("plan.prepare"), "us")
	r.add("plan.run_us", med("plan.run"), "us")
	r.add("plan.vectorized_ratio", ratio(float64(wk.vectorized), float64(wk.plans)), "ratio")
	r.add("plan.rows_scanned_per_row_out", ratio(float64(wk.rowsScanned), float64(wk.rowsOut)), "count")
	r.add("sqlexec.plan_cache_hit_ratio", ratio(float64(wk.planHits), float64(wk.plans)), "ratio")
	// The shard layer is walked only on the sharded topology; elsewhere its
	// metrics read 0.
	shardUs := med("shard.ask")
	r.add("shard.build_ms", wk.shardBuildMs, "ms")
	r.add("shard.ask_us", shardUs, "us")
	r.add("shard.ask_over_gateway", ratio(shardUs, askUs), "ratio")
	r.add("shard.refused_ratio", ratio(float64(wk.shardRefused), float64(wk.shardAsked)), "ratio")
	r.add("shard.mismatch_ratio", ratio(float64(wk.shardMismatch), float64(wk.shardAsked)), "ratio")
	// Time-weighted over the answered questions: the share of all gateway
	// time that the answering engine's interpretation, and that planning
	// and running the statement, account for; and how much of gateway plus
	// server time the layers on the blocking path add up to.
	r.add("walk.interpret_share", ratio(float64(wk.interpSum), float64(wk.askSum)), "ratio")
	r.add("walk.execute_share", ratio(float64(wk.runSum), float64(wk.askSum)), "ratio")
	r.add("walk.coverage", ratio(float64(wk.blockingSum), float64(wk.askSum+wk.srvSum)), "ratio")

	r.Attempted += wk.questions
	r.Failed += wk.failed
	if wk.shardMismatch > 0 {
		r.fail("%d of %d questions got different rows from the shard cluster than from the bare gateway", wk.shardMismatch, wk.shardAsked)
	}
	r.infof("walk_questions %d answered %d", wk.questions, wk.answers)
}

// traceFile is trace_<workload>.json.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// SelfTimeUs is, per span name, the total self time: duration minus
	// what child spans cover.
	SelfTimeUs map[string]float64 `json:"self_time_us"`
	Spans      []spanRec          `json:"spans"`
}

// runLayers is the traced run: a short closed-loop phase against the
// serving child for the cache hit ratio, then the layer walk, whose spans
// it writes to trace_<workload>.json.
func runLayers(w *workload, seed int64, opts options) (*report, error) {
	s, err := openSession(w, seed, opts)
	if err != nil {
		return nil, err
	}
	defer s.child.stop()
	s.warmUp()
	closed := s.phase(loadPhase{workers: loadClients, duration: time.Duration(opts.seconds / 4 * float64(time.Second))})
	s.child.stop()

	r := &report{Workload: w.Name}
	if _, err := s.check(r); err != nil {
		return nil, err
	}
	cached := 0
	for _, sm := range closed {
		if sm.Reply.Cached {
			cached++
		}
	}
	r.add("qcache.hit_ratio", ratio(float64(cached), float64(countOK(closed))), "ratio")

	n := w.Walk
	if opts.smoke {
		n = smokeQuestions
	}
	wk, err := newWalker(w, s.db, seed)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		wk.visit(i, s.qs.at(i).Text)
	}
	wk.report(r)
	t := wk.t

	tf := traceFile{Workload: w.Name, Seed: seed, SelfTimeUs: map[string]float64{}, Spans: t.spans}
	for name, d := range selfTimeByName(t.spans) {
		tf.SelfTimeUs[name] = float64(d) / float64(time.Microsecond)
	}
	if err := os.MkdirAll(opts.outDir, 0o755); err != nil {
		return nil, err
	}
	return r, writeJSON(filepath.Join(opts.outDir, "trace_"+w.Name+".json"), tf)
}
