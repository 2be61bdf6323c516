package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"nlidb/internal/obs"
	"nlidb/internal/resilient"
)

// idProbe wraps a Node to record the trace ID each call arrived with —
// proof that the coordinator's trace identity crosses the node boundary.
type idProbe struct {
	inner Node
	mu    sync.Mutex
	ids   []obs.TraceID
}

func (p *idProbe) record(ctx context.Context) {
	p.mu.Lock()
	p.ids = append(p.ids, obs.ContextTraceID(ctx))
	p.mu.Unlock()
}

func (p *idProbe) AskSQL(ctx context.Context, q string) (*resilient.Answer, error) {
	p.record(ctx)
	return p.inner.AskSQL(ctx, q)
}

func (p *idProbe) recorded() []obs.TraceID {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]obs.TraceID(nil), p.ids...)
}

// childNamed returns sp's direct children with the given name.
func childNamed(sp *obs.Span, name string) []*obs.Span {
	var out []*obs.Span
	for _, c := range sp.Children() {
		if c.Name == name {
			out = append(out, c)
		}
	}
	return out
}

// TestScatterTraceCrossNode is the acceptance shape: one scatter query's
// trace must show interpretation at the coordinator, its classify/route
// spans, per-shard legs with annotated replica attempts, the nested
// replica-executor trace (parse/plan/execute and nothing else) under each
// attempt, and the merge — all under a single trace ID that the replica
// nodes saw on the wire.
func TestScatterTraceCrossNode(t *testing.T) {
	db := fleetDB(t)
	var probes []*idProbe
	var mu sync.Mutex
	cl := testCluster(t, db, 3, Config{
		Replicas:  1,
		CacheSize: -1,
		Seed:      9,
		WrapNode: func(s, r int, n Node) Node {
			p := &idProbe{inner: n}
			mu.Lock()
			probes = append(probes, p)
			mu.Unlock()
			return p
		},
	})

	ans, err := cl.Ask(context.Background(), "SELECT COUNT(*) FROM customers")
	if err != nil {
		t.Fatal(err)
	}
	tr := ans.Trace
	if tr == nil {
		t.Fatal("scatter answer carries no trace")
	}
	if tr.ID == "" {
		t.Fatal("trace has no ID")
	}
	root := tr.Root
	if root.Name != "query" || !root.Ended() {
		t.Fatalf("root = %q ended=%v, want an ended query span", root.Name, root.Ended())
	}
	if root.Attr("route") != "scatter" || root.Attr("outcome") != "ok" {
		t.Fatalf("root attrs route=%q outcome=%q, want scatter/ok", root.Attr("route"), root.Attr("outcome"))
	}

	// Coordinator phase spans: the engine attempt holds interpret, then
	// the routing of the SQL it produced. Interpretation touched no shard.
	attempt := tr.Find("attempt sqlecho")
	if attempt == nil {
		t.Fatalf("no engine attempt span at the coordinator:\n%s", tr)
	}
	interps := childNamed(attempt, "interpret")
	if len(interps) != 1 || len(interps[0].Children()) != 0 {
		t.Fatalf("attempt has %d interpret spans (want 1, a leaf):\n%s", len(interps), tr)
	}
	if root.Attr("engine") != "sqlecho" || !strings.Contains(root.Attr("breakers"), "sqlecho=closed") {
		t.Fatalf("root attrs engine=%q breakers=%q, want the front's", root.Attr("engine"), root.Attr("breakers"))
	}
	classify := tr.Find("classify")
	if classify == nil || classify.Attr("route") != "scatter" {
		t.Fatalf("classify span = %v (route %q), want route=scatter", classify, classify.Attr("route"))
	}

	// Scatter fan-out: one leg per shard, each with an attempt span whose
	// annotations name the replica, why the attempt exists, and the breaker
	// state it saw — and the replica gateway's own trace nested beneath.
	scatter := tr.Find("scatter")
	if scatter == nil {
		t.Fatal("no scatter span")
	}
	if got := scatter.Count("shards"); got != 3 {
		t.Fatalf("scatter shards count = %d, want 3", got)
	}
	for s := 0; s < 3; s++ {
		legs := childNamed(scatter, fmt.Sprintf("shard %d", s))
		if len(legs) != 1 {
			t.Fatalf("scatter has %d 'shard %d' legs, want 1", len(legs), s)
		}
		leg := legs[0]
		attempts := childNamed(leg, "attempt")
		if len(attempts) == 0 {
			t.Fatalf("shard %d leg has no attempt span", s)
		}
		at := attempts[0]
		if at.Attr("replica") != "0" || at.Attr("kind") != "primary" {
			t.Fatalf("shard %d attempt attrs replica=%q kind=%q", s, at.Attr("replica"), at.Attr("kind"))
		}
		if at.Attr("breaker") != "closed" || at.Attr("outcome") != "ok" {
			t.Fatalf("shard %d attempt breaker=%q outcome=%q", s, at.Attr("breaker"), at.Attr("outcome"))
		}
		// The replica's own trace joined the tree across the node boundary:
		// its root "query" span hangs under the attempt, and holds the
		// executor stages only.
		queries := childNamed(at, "query")
		if len(queries) == 0 {
			t.Fatalf("shard %d attempt has no nested replica query span", s)
		}
		var stages []string
		for _, c := range queries[0].Children() {
			stages = append(stages, c.Name)
		}
		if got := strings.Join(stages, ","); got != "parse,plan,execute" {
			t.Fatalf("shard %d replica subtree = %q, want parse,plan,execute", s, got)
		}
	}

	merge := tr.Find("merge")
	if merge == nil {
		t.Fatal("no merge span")
	}
	if merge.Count("merged") != 3 || merge.Count("rows") != 1 {
		t.Fatalf("merge counts merged=%d rows=%d, want 3/1", merge.Count("merged"), merge.Count("rows"))
	}
	if merge.Attr("missing") != "" {
		t.Fatalf("healthy scatter recorded missing=%q", merge.Attr("missing"))
	}

	// Every node-boundary crossing carried the coordinator's trace ID:
	// the 3 scatter legs and nothing else, all under one ID.
	var seen []obs.TraceID
	for _, p := range probes {
		seen = append(seen, p.recorded()...)
	}
	if len(seen) != 3 {
		t.Fatalf("replica nodes saw %d calls, want 3 (one per scatter leg)", len(seen))
	}
	for _, id := range seen {
		if id != tr.ID {
			t.Fatalf("replica saw trace ID %q, want coordinator's %q", id, tr.ID)
		}
	}

	// The rendered tree tells the whole story in one place.
	rendered := tr.String()
	for _, want := range []string{"interpret", "classify", "scatter", "attempt", "merge", "route=scatter"} {
		if !strings.Contains(rendered, want) {
			t.Errorf("rendered trace missing %q:\n%s", want, rendered)
		}
	}
}

// TestNoTraceDisablesCoordinatorSpans: with coordinator and gateway
// tracing both off, Ask must stay span-free end to end.
func TestNoTraceDisablesCoordinatorSpans(t *testing.T) {
	db := fleetDB(t)
	cl := testCluster(t, db, 2, Config{
		Replicas: 1, NoTrace: true, CacheSize: -1,
		Gateway: resilient.Config{NoTrace: true},
	})
	ans, err := cl.Ask(context.Background(), "SELECT COUNT(*) FROM customers")
	if err != nil {
		t.Fatal(err)
	}
	if ans.Trace != nil {
		t.Fatal("NoTrace cluster attached a trace")
	}
}

// TestCoordinatorSlowLogAndTraceStore: the coordinator's slow-log entry
// carries the fleet fields and links, by trace ID, to the retained full
// trace in the TraceStore.
func TestCoordinatorSlowLogAndTraceStore(t *testing.T) {
	db := fleetDB(t)
	slow := obs.NewSlowLog(0, 16)                                    // threshold 0: record everything
	traces := obs.NewTraceStore(obs.TraceStoreConfig{SampleRate: 1}) // retain everything
	cl := testCluster(t, db, 3, Config{
		Replicas:  1,
		CacheSize: -1,
		SlowLog:   slow,
		Traces:    traces,
	})
	ans, err := cl.Ask(context.Background(), "SELECT COUNT(*) FROM customers")
	if err != nil {
		t.Fatal(err)
	}
	entries := slow.Entries()
	if len(entries) != 1 {
		t.Fatalf("slow log has %d entries, want 1", len(entries))
	}
	e := entries[0]
	if e.Route != "scatter" || e.Shards != 3 || e.Partial || e.Outcome != "ok" {
		t.Fatalf("entry = route %q shards %d partial %v outcome %q, want scatter/3/false/ok", e.Route, e.Shards, e.Partial, e.Outcome)
	}
	if e.TraceID != ans.Trace.ID {
		t.Fatalf("entry trace ID %q != answer's %q", e.TraceID, ans.Trace.ID)
	}
	line := slow.String()
	for _, want := range []string{"route=scatter", "shards=3", "trace=" + string(e.TraceID)} {
		if !strings.Contains(line, want) {
			t.Errorf("slow-log line missing %q:\n%s", want, line)
		}
	}
	// The ID on the slow line resolves to the retained full trace.
	st, ok := traces.Get(e.TraceID)
	if !ok {
		t.Fatal("slow-log trace ID not retained in the TraceStore")
	}
	if st.Trace != ans.Trace {
		t.Fatal("retained trace is not the answer's trace")
	}
}

// TestFleetRollups: the always-on per-shard counters, the /fleet JSON
// surface, and the scrape-time Prometheus families.
func TestFleetRollups(t *testing.T) {
	db := fleetDB(t)
	reg := obs.NewRegistry()
	cl := testCluster(t, db, 2, Config{Replicas: 2, CacheSize: -1, Seed: 3, Metrics: reg})
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if _, err := cl.Ask(ctx, "SELECT COUNT(*) FROM customers"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.Ask(ctx, "SELECT name FROM customers WHERE id = 7"); err != nil {
		t.Fatal(err)
	}

	fs := cl.FleetStatus()
	if fs.Shards != 2 || fs.ReplicasPerShard != 2 {
		t.Fatalf("fleet shape = %d x %d, want 2 x 2", fs.Shards, fs.ReplicasPerShard)
	}
	if fs.Routes["scatter"] != 5 {
		t.Fatalf("scatter route count = %d, want 5", fs.Routes["scatter"])
	}
	if fs.Routes["pruned"]+fs.Routes["home"] != 1 {
		t.Fatalf("routes = %v, want the id=7 question counted once as pruned or home", fs.Routes)
	}
	if fs.Partials != 0 || fs.PartialRate != 0 {
		t.Fatalf("healthy fleet reports partials: %d (rate %g)", fs.Partials, fs.PartialRate)
	}
	var totalReq int64
	for _, sh := range fs.PerShard {
		totalReq += sh.Requests
		if len(sh.Replicas) != 2 {
			t.Fatalf("shard %d reports %d replicas, want 2", sh.Shard, len(sh.Replicas))
		}
		for _, rep := range sh.Replicas {
			if rep.State != "closed" {
				t.Fatalf("healthy replica %d/%d state = %q", sh.Shard, rep.Replica, rep.State)
			}
		}
		if sh.Requests > 0 && sh.P99MS <= 0 {
			t.Fatalf("shard %d served %d requests but reports p99 = %g", sh.Shard, sh.Requests, sh.P99MS)
		}
	}
	// 5 scatters x 2 shards + the pruned question's leg: at least 11
	// replica calls fleet-wide.
	if totalReq < 11 {
		t.Fatalf("fleet-wide requests = %d, want >= 11", totalReq)
	}

	// /fleet serves the same shape as JSON.
	rr := httptest.NewRecorder()
	cl.FleetHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/fleet", nil))
	var got FleetStatus
	if err := json.Unmarshal(rr.Body.Bytes(), &got); err != nil {
		t.Fatalf("/fleet is not JSON: %v\n%s", err, rr.Body.String())
	}
	if got.Shards != 2 || len(got.PerShard) != 2 {
		t.Fatalf("/fleet = %+v, want 2 shards", got)
	}

	var sb strings.Builder
	cl.WriteProm(&sb)
	prom := sb.String()
	for _, want := range []string{
		`nlidb_shard_replica_ewma_micros{shard="0",replica="0"}`,
		`nlidb_shard_replica_inflight{shard="1",replica="1"} 0`,
		`nlidb_shard_latency_ms{shard="0",quantile="0.99"}`,
		"nlidb_shard_partial_rate 0",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("fleet prom dump missing %q:\n%s", want, prom)
		}
	}
	// Hedge wins are a registry counter: on /metrics once, not twice.
	sb.Reset()
	reg.WritePrometheus(&sb)
	if want := `nlidb_shard_hedge_wins_total{shard="0"} 0`; !strings.Contains(sb.String(), want) {
		t.Errorf("registry dump missing %q", want)
	}
	if strings.Contains(prom, "hedge_wins") {
		t.Errorf("fleet prom dump repeats the registry's hedge wins:\n%s", prom)
	}
}

// TestChaosTracingVisibility runs a kill/restore window with tracing on
// and asserts the incident is fully visible in the observability layer:
// every breaker transition surfaces through BreakerHook, degraded answers
// are retained as partial exemplar traces whose merge span names the dead
// shard, and recovery shows up as half-open → closed transitions.
func TestChaosTracingVisibility(t *testing.T) {
	db := fleetDB(t)
	traces := obs.NewTraceStore(obs.TraceStoreConfig{SampleRate: -1, SlowThreshold: -1})
	type transition struct {
		shard, replica int
		from, to       string
	}
	var tmu sync.Mutex
	var trans []transition
	sawTransition := func(want transition) bool {
		tmu.Lock()
		defer tmu.Unlock()
		for _, tr := range trans {
			if tr == want {
				return true
			}
		}
		return false
	}

	nodes := make([][]*ChaosNode, 2)
	cl := testCluster(t, db, 2, Config{
		Replicas:         2,
		Gateway:          resilient.Config{NoRetry: true, NoTrace: true},
		ShardTimeout:     300 * time.Millisecond,
		Retries:          1,
		RetryBackoff:     time.Millisecond,
		ReplicaThreshold: 2,
		ReplicaCooldown:  30 * time.Millisecond,
		CacheSize:        -1,
		Seed:             0xFACE,
		Traces:           traces,
		BreakerHook: func(s, r int, from, to string) {
			tmu.Lock()
			trans = append(trans, transition{s, r, from, to})
			tmu.Unlock()
		},
		WrapNode: func(s, r int, n Node) Node {
			cn := &ChaosNode{Inner: n}
			nodes[s] = append(nodes[s], cn)
			return cn
		},
	})

	scatter := "SELECT COUNT(*) FROM customers"
	var wave []string
	for i := 0; i < 8; i++ {
		wave = append(wave, scatter)
	}
	if s := runWave(t, cl, wave, nil); s.failed > 0 || s.partial > 0 {
		t.Fatalf("healthy wave: %d failed %d partial (first: %v)", s.failed, s.partial, s.firstErr)
	}

	const dead = 1
	for _, n := range nodes[dead] {
		n.Kill()
	}
	s := runWave(t, cl, wave, nil)
	if s.failed > 0 {
		t.Fatalf("kill wave: %d failures, first: %v", s.failed, s.firstErr)
	}
	if s.partial != s.ok {
		t.Fatalf("kill wave: %d/%d answers partial, want all", s.partial, s.ok)
	}

	// The kill window is visible as breaker trips on the dead shard only.
	for r := 0; r < 2; r++ {
		if !sawTransition(transition{dead, r, "closed", "open"}) {
			t.Errorf("no closed→open transition recorded for replica %d/%d", dead, r)
		}
	}
	tmu.Lock()
	for _, tr := range trans {
		if tr.shard != dead {
			t.Errorf("healthy shard %d replica %d transitioned %s→%s during the kill window", tr.shard, tr.replica, tr.from, tr.to)
		}
	}
	tmu.Unlock()

	// Every degraded answer left a partial exemplar trace naming the
	// dead shard in its merge span.
	var partials int
	for _, st := range traces.List() {
		if st.Reason != "partial" {
			continue
		}
		partials++
		root := st.Trace.Root
		if root.Attr("partial") != "true" || root.Attr("route") != "scatter" {
			t.Fatalf("partial trace root attrs partial=%q route=%q", root.Attr("partial"), root.Attr("route"))
		}
		merge := st.Trace.Find("merge")
		if merge == nil || !strings.Contains(merge.Attr("missing"), strconv.Itoa(dead)) {
			t.Fatalf("partial trace merge span does not name shard %d: %v", dead, merge)
		}
		// The dead shard's leg ended in shard_down; the survivor answered.
		legDead := st.Trace.Find(fmt.Sprintf("shard %d", dead))
		if legDead == nil || legDead.Attr("outcome") != "shard_down" {
			t.Fatalf("dead shard leg missing or not marked shard_down: %v", legDead)
		}
	}
	if partials != s.partial {
		t.Fatalf("retained %d partial traces, want %d (one per degraded answer)", partials, s.partial)
	}

	// Restore, and the recovery is visible too: the breakers probe
	// (open → half-open) and close again.
	for _, n := range nodes[dead] {
		n.Restore()
	}
	deadline := time.Now().Add(5 * time.Second)
	recovered := false
	for time.Now().Before(deadline) {
		ans, err := cl.Ask(context.Background(), scatter)
		if err == nil && !ans.Partial {
			recovered = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !recovered {
		t.Fatal("no complete answer within 5s of restore")
	}
	halfOpen, closed := false, false
	tmu.Lock()
	for _, tr := range trans {
		if tr.shard == dead && tr.from == "open" && tr.to == "half-open" {
			halfOpen = true
		}
		if tr.shard == dead && tr.from == "half-open" && tr.to == "closed" {
			closed = true
		}
	}
	tmu.Unlock()
	if !halfOpen || !closed {
		t.Fatalf("recovery transitions missing: open→half-open=%v half-open→closed=%v", halfOpen, closed)
	}
}

// TestFleetStatusAgreesWithRegistry: after home, pruned and scatter
// routes, a hedge that wins, a retried leg and a partial answer, every
// FleetStatus count and percentile equals the registry series it reports.
func TestFleetStatusAgreesWithRegistry(t *testing.T) {
	db := fleetDB(t)
	ctx := context.Background()
	ask := func(cl *Cluster, sql string) *resilient.Answer {
		t.Helper()
		ans, err := cl.Ask(ctx, sql)
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		return ans
	}

	reg := obs.NewRegistry()
	nodes := make([][]*ChaosNode, 2)
	cl := testCluster(t, db, 2, Config{
		Replicas:         2,
		CacheSize:        -1,
		Retries:          1,
		RetryBackoff:     time.Millisecond,
		HedgeMin:         time.Millisecond,
		HedgeMax:         2 * time.Millisecond,
		ReplicaThreshold: 100,
		Seed:             3,
		Metrics:          reg,
		WrapNode: func(s, r int, n Node) Node {
			cn := &ChaosNode{Inner: n}
			nodes[s] = append(nodes[s], cn)
			return cn
		},
	})
	// Every replica is idle, so shard 0's leg goes to replica 0 first: it
	// stalls, the hedge launches replica 1 after HedgeMax, and wins.
	nodes[0][0].SetDelay(100 * time.Millisecond)
	ask(cl, "SELECT COUNT(*) FROM customers")
	nodes[0][0].SetDelay(0)
	// Shard 1 down: its leg fails over, is retried, and the answer comes
	// back partial.
	nodes[1][0].Kill()
	nodes[1][1].Kill()
	if !ask(cl, "SELECT COUNT(*) FROM customers").Partial {
		t.Fatal("want a partial answer with shard 1 down")
	}
	nodes[1][0].Restore()
	nodes[1][1].Restore()
	ask(cl, "SELECT name FROM customers WHERE id = 7")

	fs := cl.FleetStatus()
	if fs.Routes["scatter"] != 2 || fs.Routes["pruned"] != 1 || fs.Partials != 1 {
		t.Fatalf("routes %v, partials %d; want 2 scatter, 1 pruned, 1 partial", fs.Routes, fs.Partials)
	}
	if sh := fs.PerShard[0]; sh.Hedges < 1 || sh.HedgeWins < 1 {
		t.Fatalf("shard 0: %d hedges, %d wins; want at least one of each", sh.Hedges, sh.HedgeWins)
	}
	if fs.PerShard[1].Retries < 1 {
		t.Fatal("shard 1: no retry counted")
	}
	fleetAgreesWithRegistry(t, cl, reg)

	// A one-shard cluster routes everything home.
	reg1 := obs.NewRegistry()
	one := testCluster(t, db, 1, Config{CacheSize: -1, Metrics: reg1})
	ask(one, "SELECT COUNT(*) FROM customers")
	if fs := one.FleetStatus(); fs.Routes["home"] != 1 {
		t.Fatalf("one-shard routes %v, want 1 home", fs.Routes)
	}
	fleetAgreesWithRegistry(t, one, reg1)
}

// fleetAgreesWithRegistry compares every registry-backed FleetStatus
// field with the series behind it.
func fleetAgreesWithRegistry(t *testing.T, cl *Cluster, reg *obs.Registry) {
	t.Helper()
	fs := cl.FleetStatus()
	for route, n := range fs.Routes {
		if v := reg.Counter(MetricRoutes, "route", route).Value(); v != n {
			t.Errorf("Routes[%s] = %d, registry %d", route, n, v)
		}
	}
	if v := reg.Counter(MetricPartial).Value(); v != fs.Partials {
		t.Errorf("Partials = %d, registry %d", fs.Partials, v)
	}
	for _, sh := range fs.PerShard {
		sl := strconv.Itoa(sh.Shard)
		var requests int64
		for _, outcome := range callOutcomes {
			requests += reg.Counter(MetricRequests, "shard", sl, "outcome", outcome).Value()
		}
		h := reg.Histogram(MetricReplicaSeconds, "shard", sl)
		for _, c := range []struct {
			name      string
			got, want float64
		}{
			{"Requests", float64(sh.Requests), float64(requests)},
			{"Hedges", float64(sh.Hedges), float64(reg.Counter(MetricHedges, "shard", sl).Value())},
			{"HedgeWins", float64(sh.HedgeWins), float64(reg.Counter(MetricHedgeWins, "shard", sl).Value())},
			{"Retries", float64(sh.Retries), float64(reg.Counter(MetricRetries, "shard", sl).Value())},
			{"P50MS", sh.P50MS, h.Quantile(0.50) * 1e3},
			{"P99MS", sh.P99MS, h.Quantile(0.99) * 1e3},
		} {
			if c.got != c.want {
				t.Errorf("shard %d %s = %v, registry %v", sh.Shard, c.name, c.got, c.want)
			}
		}
		if sh.Requests == 0 {
			t.Errorf("shard %d served no request", sh.Shard)
		}
	}
}
