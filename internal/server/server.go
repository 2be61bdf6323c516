// Package server is the HTTP front door over the resilient gateway. It
// exists to make the paper's interactive-latency requirement survive
// contact with real traffic: every request passes the admission
// controller before it may touch the pipeline, per-client token buckets
// stop any one caller from starving the rest, client deadlines propagate
// from header to context so the pipeline never works on an answer nobody
// is waiting for, and shutdown is a drain — stop accepting, finish what
// is in flight, cancel only the stragglers that outlive the drain budget.
//
// Protocol summary (details in the README's Overload protection section):
//
//	POST /query  {"question": "...", "priority": "interactive|batch"}
//	POST /batch  {"questions": ["...", ...], "priority": "..."}
//
// The X-Deadline-Ms request header carries the client's remaining budget;
// it becomes the request context's deadline (capped by MaxTimeout).
// Overload answers are honest: 429 for a rate-limited client, 503 with
// Retry-After and X-Shed-Reason when admission sheds or the server is
// draining, 504 when the deadline expired mid-pipeline, 422 when every
// engine declined the question.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"nlidb/internal/admission"
	"nlidb/internal/obs"
	"nlidb/internal/resilient"
	"nlidb/internal/session"
	"nlidb/internal/shard"
)

// Mux combines the query API with the observability suite on one
// http.ServeMux: POST /query and /batch go through the Server (and its
// drain barrier), everything else — /metrics, /debug/vars, /debug/pprof,
// /slowlog, plus whatever the options mount (/fleet, /slo, /trace) —
// through the obs handler. The obs routes deliberately bypass the drain
// barrier: a draining server must stay observable, so scrapes and debug
// reads keep answering while query traffic is shed.
func Mux(api *Server, reg *obs.Registry, slow *obs.SlowLog, opts ...obs.HandlerOption) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/query", api)
	mux.Handle("/batch", api)
	mux.Handle("/session", api)
	mux.Handle("/session/ask", api)
	mux.Handle("/internal/query", api)
	mux.Handle("/healthz", api)
	mux.Handle("/", obs.Handler(reg, slow, opts...))
	return mux
}

// Metric family names the server publishes when Config.Metrics is set.
const (
	// MetricHTTPRequests counts finished requests by route and status code.
	MetricHTTPRequests = "nlidb_http_requests_total"
	// MetricHTTPSeconds is the request latency histogram by route.
	MetricHTTPSeconds = "nlidb_http_request_seconds"
	// MetricHTTPInFlight gauges requests currently inside a handler.
	MetricHTTPInFlight = "nlidb_http_inflight"
)

// Backend answers questions: a single resilient.Gateway or a
// shard.Cluster fronting many of them. Both satisfy it natively.
type Backend interface {
	Ask(ctx context.Context, question string) (*resilient.Answer, error)
	ServeBatch(ctx context.Context, questions []string) []resilient.BatchResult
}

// Config tunes a Server. Backend is required; everything else has a
// serviceable default.
type Config struct {
	// Backend serves the questions. One that is also a
	// resilient.Executor (a gateway and a shard cluster both are)
	// additionally serves /internal/query and the deep /healthz probe.
	Backend Backend
	// Admission gates every request (nil = a default Controller wired to
	// Metrics).
	Admission *admission.Controller
	// RateLimit, when non-nil, is consulted per client before admission.
	RateLimit *admission.RateLimiter
	// Sessions, when non-nil, enables the conversational /session API.
	Sessions *session.Store
	// SessionRateLimit, when non-nil, bounds each conversation's turn
	// rate, layered on the per-client RateLimit. Wire its Forget into the
	// store's OnEvict so ended sessions release their buckets.
	SessionRateLimit *admission.RateLimiter
	// Metrics, when non-nil, receives the server's request counters,
	// latency histograms, and in-flight gauge.
	Metrics *obs.Registry
	// SLO, when non-nil, receives every finished question's latency and
	// availability verdict. This is the one place both signals meet:
	// Partial scatter answers and shard-down refusals count against
	// availability here even though the client saw a 200 or got honest
	// retry advice.
	SLO *obs.SLO
	// DefaultTimeout is the per-request deadline applied when the client
	// sends no X-Deadline-Ms header (default 10s).
	DefaultTimeout time.Duration
	// MaxTimeout caps the client-requested deadline (default 30s).
	MaxTimeout time.Duration
	// MaxBodyBytes bounds request bodies (default 1 MiB).
	MaxBodyBytes int64
	// HealthSQL is the probe statement GET /healthz?deep=1 executes
	// through the backend: proof the whole pipeline answers, not just
	// that the process holds the port. Empty disables deep mode.
	HealthSQL string
	// ShardEpoch, when non-zero, declares the shard map epoch this node
	// was configured under: /internal/query requests stamped with a
	// different X-Shard-Epoch are refused typed (409) instead of being
	// answered for a partition this node may no longer own. ShardIndex
	// names the partition served (reported on /healthz).
	ShardEpoch int64
	ShardIndex int
	// DrainClassifier assigns each request a DrainClass (nil: every
	// route gets DrainSweep except /internal/query, which gets
	// DrainOwnDeadline — a coordinator's scatter leg carries a deadline
	// budgeted upstream, and cutting it short at the global drain
	// timeout would turn an answerable leg into a spurious failure).
	DrainClassifier func(*http.Request) DrainClass
	// Now is the clock, injectable for tests (default time.Now).
	Now func() time.Time
}

// DrainClass selects how an in-flight request behaves when a drain
// overruns its budget.
type DrainClass int

const (
	// DrainSweep requests are cancelled when Drain's timeout overruns —
	// the default: interactive callers would rather retry elsewhere.
	DrainSweep DrainClass = iota
	// DrainOwnDeadline requests keep the remainder of their own
	// X-Deadline-Ms budget through a drain overrun; Drain waits for
	// them. Requests in this class without an explicit X-Deadline-Ms
	// fall back to DrainSweep — an unbounded straggler must not be able
	// to hold shutdown hostage for the whole DefaultTimeout.
	DrainOwnDeadline
)

// Server is an http.Handler exposing the gateway with overload
// protection. Safe for concurrent use.
type Server struct {
	cfg Config
	mux *http.ServeMux

	// baseCtx is alive until a drain overruns its budget; cancelling it
	// sweeps every straggler's request context.
	baseCtx          context.Context
	cancelStragglers context.CancelFunc

	mu       sync.Mutex
	inflight int
	idle     chan struct{} // non-nil only while a drain waits for inflight==0
	draining bool
}

// New builds a Server. Config zero values are filled with defaults; a nil
// Admission controller gets a default one sharing Config.Metrics.
func New(cfg Config) *Server {
	if cfg.Backend == nil {
		panic("server: Config.Backend is required")
	}
	if cfg.Admission == nil {
		cfg.Admission = admission.New(admission.Config{Metrics: cfg.Metrics})
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 10 * time.Second
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 30 * time.Second
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	base, cancel := context.WithCancel(context.Background())
	s := &Server{cfg: cfg, baseCtx: base, cancelStragglers: cancel}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/query", s.instrument("/query", s.handleQuery))
	s.mux.HandleFunc("/batch", s.instrument("/batch", s.handleBatch))
	s.mux.HandleFunc("/session", s.instrument("/session", s.handleSession))
	s.mux.HandleFunc("/session/ask", s.instrument("/session/ask", s.handleSessionAsk))
	s.mux.HandleFunc("/internal/query", s.instrument("/internal/query", s.handleInternalQuery))
	// /healthz deliberately skips the instrument drain barrier: a
	// draining server must keep answering probes (with a 503 and an
	// honest "draining" status) so supervisors and LBs see the state
	// change instead of a connection that vanished.
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	if m := cfg.Metrics; m != nil {
		m.Gauge(MetricHTTPInFlight).Set(0)
		routes := []string{"/query", "/batch", "/internal/query"}
		if cfg.Sessions != nil {
			routes = append(routes, "/session", "/session/ask")
		}
		for _, route := range routes {
			m.Counter(MetricHTTPRequests, "route", route, "code", "200")
			m.Histogram(MetricHTTPSeconds, "route", route)
		}
	}
	return s
}

// Admission exposes the server's admission controller (for stats, tests,
// and the drain log line).
func (s *Server) Admission() *admission.Controller { return s.cfg.Admission }

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// statusRecorder captures the response code for the request counter.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with in-flight tracking (the drain barrier)
// and, when metrics are on, the request counter and latency histogram.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !s.enter() {
			// Draining: refuse before any work, with honest retry advice.
			w.Header().Set("Retry-After", retryAfterSeconds(s.cfg.Admission.RetryAfterHint()))
			w.Header().Set("X-Shed-Reason", "draining")
			writeError(w, http.StatusServiceUnavailable, "server draining")
			return
		}
		defer s.exit()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		h(rec, r)
		if m := s.cfg.Metrics; m != nil {
			m.Counter(MetricHTTPRequests, "route", route, "code", strconv.Itoa(rec.code)).Inc()
			m.Histogram(MetricHTTPSeconds, "route", route).Observe(time.Since(start).Seconds())
		}
	}
}

// enter books one in-flight request unless the server is draining.
func (s *Server) enter() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.inflight++
	if m := s.cfg.Metrics; m != nil {
		m.Gauge(MetricHTTPInFlight).Set(int64(s.inflight))
	}
	return true
}

// exit releases the in-flight slot and wakes a waiting drain at zero.
func (s *Server) exit() {
	s.mu.Lock()
	s.inflight--
	if m := s.cfg.Metrics; m != nil {
		m.Gauge(MetricHTTPInFlight).Set(int64(s.inflight))
	}
	if s.inflight == 0 && s.idle != nil {
		close(s.idle)
		s.idle = nil
	}
	s.mu.Unlock()
}

// InFlight reports the number of requests currently inside handlers.
func (s *Server) InFlight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inflight
}

// Drain performs graceful shutdown of the serving layer: new requests are
// refused with 503 (and queued admission waiters flushed), requests
// already in flight get up to timeout to finish, and any stragglers still
// running after that are cancelled through their request contexts — then
// Drain waits for them to unwind. Returns true when everything finished
// within the budget, false when stragglers had to be cancelled.
// Idempotent; concurrent calls all block until the drain completes.
func (s *Server) Drain(timeout time.Duration) bool {
	s.mu.Lock()
	s.draining = true
	s.cfg.Admission.StartDrain()
	if s.inflight == 0 {
		s.mu.Unlock()
		return true
	}
	if s.idle == nil {
		s.idle = make(chan struct{})
	}
	idle := s.idle
	s.mu.Unlock()

	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-idle:
		return true
	case <-t.C:
		// Budget overrun: sweep every straggler's context and wait for the
		// handlers to unwind (the pipeline honors cancellation, so this is
		// prompt).
		s.cancelStragglers()
		<-idle
		return false
	}
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// requestContext derives the handler context: the client's X-Deadline-Ms
// budget (capped at MaxTimeout, defaulted to DefaultTimeout) on top of
// the request context. DrainSweep requests are additionally cancelled
// when a drain overruns and sweeps stragglers; DrainOwnDeadline requests
// with an explicit client deadline keep the remainder of it instead.
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc, error) {
	d := s.cfg.DefaultTimeout
	explicit := false
	if h := r.Header.Get("X-Deadline-Ms"); h != "" {
		ms, err := strconv.ParseInt(h, 10, 64)
		if err != nil || ms <= 0 {
			return nil, nil, fmt.Errorf("invalid X-Deadline-Ms %q: want a positive integer of milliseconds", h)
		}
		// Compare in milliseconds: time.Duration(ms)*time.Millisecond
		// overflows int64 for huge budgets, and a negative duration would
		// yield an already-expired context (a confusing 504) instead of
		// the cap.
		if ms > int64(s.cfg.MaxTimeout/time.Millisecond) {
			d = s.cfg.MaxTimeout
		} else {
			d = time.Duration(ms) * time.Millisecond
		}
		explicit = true
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	if explicit && s.drainClass(r) == DrainOwnDeadline {
		// No straggler sweep: this request runs out its own (bounded,
		// explicit) budget even if a drain overruns around it; Drain's
		// final wait covers it.
		return ctx, cancel, nil
	}
	stop := context.AfterFunc(s.baseCtx, cancel)
	return ctx, func() { stop(); cancel() }, nil
}

// drainClass resolves a request's drain class via the configured
// classifier, defaulting coordinator scatter legs to DrainOwnDeadline.
func (s *Server) drainClass(r *http.Request) DrainClass {
	if s.cfg.DrainClassifier != nil {
		return s.cfg.DrainClassifier(r)
	}
	if r.URL.Path == "/internal/query" {
		return DrainOwnDeadline
	}
	return DrainSweep
}

// clientID identifies the caller for rate limiting: the X-Client header
// when present (trusted deployments put an API key or user id there),
// otherwise the remote IP.
func clientID(r *http.Request) string {
	if c := r.Header.Get("X-Client"); c != "" {
		return c
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// gate runs the pre-pipeline checks shared by both routes: method, rate
// limit, then admission. On success the returned release frees the
// admission slot (call it exactly once). On failure gate has already
// written the response and returns ok=false.
func (s *Server) gate(w http.ResponseWriter, r *http.Request, ctx context.Context, class admission.Priority) (release func(), ok bool) {
	if rl := s.cfg.RateLimit; rl != nil {
		if allowed, retry := rl.Allow(clientID(r)); !allowed {
			if m := s.cfg.Metrics; m != nil {
				m.Counter(admission.MetricShed, "reason", "rate_limit").Inc()
			}
			w.Header().Set("Retry-After", retryAfterSeconds(retry))
			w.Header().Set("X-Shed-Reason", "rate_limit")
			writeError(w, http.StatusTooManyRequests, "client rate limit exceeded")
			return nil, false
		}
	}
	release, err := s.cfg.Admission.Acquire(ctx, class)
	if err != nil {
		reason := "canceled"
		switch {
		case errors.Is(err, admission.ErrQueueFull):
			reason = "queue_full"
		case errors.Is(err, admission.ErrDeadline):
			reason = "deadline"
		case errors.Is(err, admission.ErrDraining):
			reason = "draining"
		}
		w.Header().Set("Retry-After", retryAfterSeconds(s.cfg.Admission.RetryAfterHint()))
		w.Header().Set("X-Shed-Reason", reason)
		writeError(w, http.StatusServiceUnavailable, "overloaded: "+err.Error())
		return nil, false
	}
	return release, true
}

// queryRequest is the POST /query body.
type queryRequest struct {
	Question string `json:"question"`
	Priority string `json:"priority,omitempty"`
}

// queryResponse is the POST /query success body.
type queryResponse struct {
	Engine     string     `json:"engine"`
	SQL        string     `json:"sql"`
	Columns    []string   `json:"columns"`
	Rows       [][]string `json:"rows"`
	Score      float64    `json:"score"`
	Cached     bool       `json:"cached,omitempty"`
	Simplified bool       `json:"simplified,omitempty"`
	// Partial marks an answer assembled without every shard: correct for
	// the reachable data, incomplete overall. MissingShards lists the
	// shard indexes that did not contribute.
	Partial       bool    `json:"partial,omitempty"`
	MissingShards []int   `json:"missing_shards,omitempty"`
	ElapsedMs     float64 `json:"elapsed_ms"`
	// TraceID names the request's distributed trace; when the trace was
	// retained as an exemplar, GET /trace?id=<TraceID> renders it.
	TraceID string `json:"trace_id,omitempty"`
}

func toQueryResponse(ans *resilient.Answer) queryResponse {
	resp := queryResponse{
		Engine:        ans.Engine,
		SQL:           ans.SQL.String(),
		Columns:       ans.Result.Columns,
		Rows:          make([][]string, len(ans.Result.Rows)),
		Score:         ans.Score,
		Cached:        ans.Cached,
		Simplified:    ans.Simplified,
		Partial:       ans.Partial,
		MissingShards: ans.MissingShards,
		ElapsedMs:     float64(ans.Elapsed) / float64(time.Millisecond),
	}
	if ans.Trace != nil {
		resp.TraceID = string(ans.Trace.ID)
	}
	for i, row := range ans.Result.Rows {
		cells := make([]string, len(row))
		for j, v := range row {
			cells[j] = v.String()
		}
		resp.Rows[i] = cells
	}
	return resp
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req queryRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if req.Question == "" {
		writeError(w, http.StatusBadRequest, "question is required")
		return
	}
	class, err := admission.ParsePriority(req.Priority)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	ctx, cancel, err := s.requestContext(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	defer cancel()

	release, ok := s.gate(w, r, ctx, class)
	if !ok {
		return
	}
	defer release()

	start := time.Now()
	ans, err := s.cfg.Backend.Ask(ctx, req.Question)
	s.observeSLO(time.Since(start), ans, err)
	if err != nil {
		s.writeAskError(w, ctx, err)
		return
	}
	writeJSON(w, http.StatusOK, toQueryResponse(ans))
}

// observeSLO folds one finished question into the SLO engine. The
// availability verdict is stricter than the HTTP status: a Partial
// scatter answer is a 200 to the client but an availability miss here,
// and so are shard-down refusals, timeouts, cancellations, and internal
// errors. Semantic refusals — the chain honestly declined the question
// (ErrExhausted) or its shape cannot be distributed — are full answers
// about the question, not service failures, and stay available.
func (s *Server) observeSLO(elapsed time.Duration, ans *resilient.Answer, err error) {
	if s.cfg.SLO == nil {
		return
	}
	available := err == nil && (ans == nil || !ans.Partial)
	if semantic(err) && !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
		available = true
	}
	s.cfg.SLO.Observe(elapsed, available)
}

// batchRequest is the POST /batch body. Batch priority is the default:
// a batch is throughput traffic unless the caller says otherwise.
type batchRequest struct {
	Questions []string `json:"questions"`
	Priority  string   `json:"priority,omitempty"`
}

// batchItem is one element of the POST /batch response. Shed marks a
// question the pipeline never started (safe to retry as-is).
type batchItem struct {
	Index    int            `json:"index"`
	Question string         `json:"question"`
	Answer   *queryResponse `json:"answer,omitempty"`
	Error    string         `json:"error,omitempty"`
	Shed     bool           `json:"shed,omitempty"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req batchRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if len(req.Questions) == 0 {
		writeError(w, http.StatusBadRequest, "questions is required")
		return
	}
	class := admission.Batch
	if req.Priority != "" {
		var err error
		if class, err = admission.ParsePriority(req.Priority); err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
	}
	ctx, cancel, err := s.requestContext(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	defer cancel()

	// One admission slot per batch: the batch's internal worker pool is the
	// gateway's concern; admission prices the batch as one unit of load in
	// the class that sheds first.
	release, ok := s.gate(w, r, ctx, class)
	if !ok {
		return
	}
	defer release()

	results := s.cfg.Backend.ServeBatch(ctx, req.Questions)
	items := make([]batchItem, len(results))
	for i, res := range results {
		item := batchItem{Index: res.Index, Question: res.Question}
		var itemElapsed time.Duration
		if res.Answer != nil {
			itemElapsed = res.Answer.Elapsed
		}
		s.observeSLO(itemElapsed, res.Answer, res.Err)
		if res.Err != nil {
			item.Error = res.Err.Error()
			item.Shed = errors.Is(res.Err, resilient.ErrShed)
		} else {
			resp := toQueryResponse(res.Answer)
			item.Answer = &resp
		}
		items[i] = item
	}
	writeJSON(w, http.StatusOK, map[string]any{"results": items})
}

// writeAskError maps a backend failure to an honest status code: the
// deadline died (504), the work was cancelled out from under us (503 —
// retry elsewhere), no engine could answer or the query shape cannot be
// distributed (422 — retrying the same question is pointless), every
// replica of the owning shard is down (503 — retry after the probe
// window), anything else is a 500. The request context is consulted too:
// a chain exhausted *because* the deadline expired mid-attempt is a
// timeout, not an unanswerable question.
func (s *Server) writeAskError(w http.ResponseWriter, ctx context.Context, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(ctx.Err(), context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, "deadline exceeded: "+err.Error())
	case errors.Is(err, context.Canceled) || errors.Is(ctx.Err(), context.Canceled):
		w.Header().Set("Retry-After", retryAfterSeconds(s.cfg.Admission.RetryAfterHint()))
		writeError(w, http.StatusServiceUnavailable, "canceled: "+err.Error())
	case errors.Is(err, shard.ErrShardDown):
		w.Header().Set("Retry-After", retryAfterSeconds(s.cfg.Admission.RetryAfterHint()))
		writeError(w, http.StatusServiceUnavailable, err.Error())
	case semantic(err):
		writeError(w, http.StatusUnprocessableEntity, err.Error())
	default:
		writeError(w, http.StatusInternalServerError, err.Error())
	}
}

// semantic reports a failure that is an honest answer about the question
// or statement — no engine could read it, its shape cannot be
// distributed, or it fails on its own terms — and not a service failure.
func semantic(err error) bool {
	return errors.Is(err, resilient.ErrExhausted) || errors.Is(err, shard.ErrNotDistributable) ||
		errors.Is(err, resilient.ErrStatement)
}

func retryAfterSeconds(d time.Duration) string {
	secs := int64(d / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
