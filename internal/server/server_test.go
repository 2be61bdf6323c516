package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"nlidb/internal/admission"
	"nlidb/internal/nlq"
	"nlidb/internal/obs"
	"nlidb/internal/resilient"
	"nlidb/internal/sqldata"
	"nlidb/internal/sqlparse"
)

// fakeInterp is a scriptable interpreter for server tests.
type fakeInterp struct {
	name string
	fn   func(q string) ([]nlq.Interpretation, error)
}

func (f *fakeInterp) Name() string                                     { return f.name }
func (f *fakeInterp) Interpret(q string) ([]nlq.Interpretation, error) { return f.fn(q) }

func answering(name, sql string) *fakeInterp {
	return &fakeInterp{name: name, fn: func(q string) ([]nlq.Interpretation, error) {
		return []nlq.Interpretation{{SQL: sqlparse.MustParse(sql), Score: 0.9}}, nil
	}}
}

// testDB builds the tiny customers table the fake interpreters query.
func testDB(t *testing.T) *sqldata.Database {
	t.Helper()
	db := sqldata.NewDatabase("test")
	tbl, err := db.CreateTable(&sqldata.Schema{Name: "customer", Columns: []sqldata.Column{
		{Name: "id", Type: sqldata.TypeInt},
		{Name: "name", Type: sqldata.TypeText},
		{Name: "city", Type: sqldata.TypeText},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range [][2]string{{"ann", "Berlin"}, {"bob", "Munich"}, {"carol", "Berlin"}} {
		tbl.MustInsert(sqldata.NewInt(int64(i+1)), sqldata.NewText(row[0]), sqldata.NewText(row[1]))
	}
	return db
}

// post sends a JSON body to the server and returns the recorder.
func post(s *Server, path, body string, hdr map[string]string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.RemoteAddr = "192.0.2.1:4242"
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

// promText renders the registry in Prometheus text format.
func promText(reg *obs.Registry) string {
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	return sb.String()
}

func decode[T any](t *testing.T, rec *httptest.ResponseRecorder) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatalf("bad JSON response %q: %v", rec.Body.String(), err)
	}
	return v
}

func TestQueryEndToEnd(t *testing.T) {
	db := testDB(t)
	gw := resilient.New(db, []nlq.Interpreter{answering("a", "SELECT name FROM customer WHERE city = 'Berlin'")}, resilient.Config{})
	s := New(Config{Backend: gw})

	rec := post(s, "/query", `{"question": "customers in Berlin"}`, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, body %s", rec.Code, rec.Body)
	}
	resp := decode[queryResponse](t, rec)
	if resp.Engine != "a" || len(resp.Rows) != 2 || len(resp.Columns) != 1 {
		t.Fatalf("unexpected response: %+v", resp)
	}
	if resp.SQL == "" || resp.ElapsedMs < 0 {
		t.Fatalf("missing sql/elapsed: %+v", resp)
	}
}

func TestQueryRejectsBadRequests(t *testing.T) {
	db := testDB(t)
	gw := resilient.New(db, []nlq.Interpreter{answering("a", "SELECT name FROM customer")}, resilient.Config{})
	s := New(Config{Backend: gw})

	for name, tc := range map[string]struct {
		path, body string
		hdr        map[string]string
		want       int
	}{
		"empty question":  {"/query", `{"question": ""}`, nil, http.StatusBadRequest},
		"bad json":        {"/query", `{`, nil, http.StatusBadRequest},
		"bad priority":    {"/query", `{"question": "x", "priority": "vip"}`, nil, http.StatusBadRequest},
		"bad deadline":    {"/query", `{"question": "x"}`, map[string]string{"X-Deadline-Ms": "soon"}, http.StatusBadRequest},
		"empty batch":     {"/batch", `{"questions": []}`, nil, http.StatusBadRequest},
		"get not allowed": {"/query", "", nil, http.StatusMethodNotAllowed},
	} {
		var rec *httptest.ResponseRecorder
		if name == "get not allowed" {
			req := httptest.NewRequest(http.MethodGet, tc.path, nil)
			rec = httptest.NewRecorder()
			s.ServeHTTP(rec, req)
		} else {
			rec = post(s, tc.path, tc.body, tc.hdr)
		}
		if rec.Code != tc.want {
			t.Errorf("%s: status %d, want %d (body %s)", name, rec.Code, tc.want, rec.Body)
		}
	}
}

// TestDeadlineHeaderPropagates pins client deadline propagation: a tight
// X-Deadline-Ms budget must cut the pipeline short and come back 504 —
// long before the engine's injected slowness would have finished.
func TestDeadlineHeaderPropagates(t *testing.T) {
	db := testDB(t)
	gw := resilient.New(db, []nlq.Interpreter{answering("slow", "SELECT name FROM customer")}, resilient.Config{
		NoRetry: true,
		Hook: func(site resilient.Site, engine string) resilient.Fault {
			if site == resilient.SiteExecute {
				return resilient.Fault{Delay: 5 * time.Second}
			}
			return resilient.Fault{}
		},
	})
	s := New(Config{Backend: gw})

	start := time.Now()
	rec := post(s, "/query", `{"question": "customers"}`, map[string]string{"X-Deadline-Ms": "50"})
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (body %s)", rec.Code, rec.Body)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("50ms deadline took %v to enforce", elapsed)
	}
}

// TestDeadlineHeaderEdgeCases pins the X-Deadline-Ms validation
// boundary: non-positive and malformed budgets are 400s with a clear
// message, while a huge budget must clamp to MaxTimeout rather than
// overflow time.Duration into an already-expired context (which
// surfaced as a baffling 504 on an instant query).
func TestDeadlineHeaderEdgeCases(t *testing.T) {
	db := testDB(t)
	gw := resilient.New(db, []nlq.Interpreter{answering("a", "SELECT name FROM customer")}, resilient.Config{})
	s := New(Config{Backend: gw})

	for _, h := range []string{"0", "-100", "soon", "1e9"} {
		rec := post(s, "/query", `{"question": "customers"}`, map[string]string{"X-Deadline-Ms": h})
		if rec.Code != http.StatusBadRequest {
			t.Errorf("X-Deadline-Ms %q: status %d, want 400 (body %s)", h, rec.Code, rec.Body)
		}
		if !strings.Contains(rec.Body.String(), "X-Deadline-Ms") {
			t.Errorf("X-Deadline-Ms %q: error does not name the header: %s", h, rec.Body)
		}
	}

	// MaxInt64 milliseconds overflows time.Duration; it must behave like
	// any over-cap budget and answer instantly.
	rec := post(s, "/query", `{"question": "customers"}`, map[string]string{"X-Deadline-Ms": "9223372036854775807"})
	if rec.Code != http.StatusOK {
		t.Fatalf("huge deadline: status %d, want 200 (body %s)", rec.Code, rec.Body)
	}
}

func TestRateLimitPerClient(t *testing.T) {
	db := testDB(t)
	gw := resilient.New(db, []nlq.Interpreter{answering("a", "SELECT name FROM customer")}, resilient.Config{})
	reg := obs.NewRegistry()
	s := New(Config{
		Backend:   gw,
		Metrics:   reg,
		RateLimit: admission.NewRateLimiter(admission.RateConfig{RPS: 0.001, Burst: 1}),
	})

	alice := map[string]string{"X-Client": "alice"}
	if rec := post(s, "/query", `{"question": "customers"}`, alice); rec.Code != http.StatusOK {
		t.Fatalf("first request: status %d (body %s)", rec.Code, rec.Body)
	}
	rec := post(s, "/query", `{"question": "customers"}`, alice)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("second request: status %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" || rec.Header().Get("X-Shed-Reason") != "rate_limit" {
		t.Fatalf("429 missing retry advice: headers %v", rec.Header())
	}
	// A different client is unaffected.
	if rec := post(s, "/query", `{"question": "customers"}`, map[string]string{"X-Client": "bob"}); rec.Code != http.StatusOK {
		t.Fatalf("other client: status %d", rec.Code)
	}
	if text := promText(reg); !strings.Contains(text, `nlidb_admission_shed_total{reason="rate_limit"} 1`) {
		t.Fatalf("rate_limit shed not counted:\n%s", text)
	}
}

// parkedServer builds a server whose interpreter parks every pipeline run
// until release is closed (or the request context dies), over a
// 1-slot/1-queue admission controller — the smallest saturable system.
func parkedServer(t *testing.T, extra Config) (*Server, chan struct{}, chan struct{}) {
	t.Helper()
	db := testDB(t)
	started := make(chan struct{}, 64)
	release := make(chan struct{})
	eng := &fakeInterp{name: "parked", fn: func(q string) ([]nlq.Interpretation, error) {
		started <- struct{}{}
		<-release
		return []nlq.Interpretation{{SQL: sqlparse.MustParse("SELECT name FROM customer"), Score: 0.9}}, nil
	}}
	gw := resilient.New(db, []nlq.Interpreter{eng}, resilient.Config{NoRetry: true})
	cfg := extra
	cfg.Backend = gw
	if cfg.Admission == nil {
		cfg.Admission = admission.New(admission.Config{
			MaxInFlight: 1, MaxQueue: 1, BatchQueue: 1, NoAdapt: true, Metrics: cfg.Metrics,
		})
	}
	return New(cfg), started, release
}

// TestOverloadSheds503WithRetryAfter saturates the 1-slot controller and
// asserts the honest rejection: 503, Retry-After, X-Shed-Reason.
func TestOverloadSheds503WithRetryAfter(t *testing.T) {
	s, started, release := parkedServer(t, Config{})

	var wg sync.WaitGroup
	codes := make([]int, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := post(s, "/query", `{"question": "customers"}`, nil)
			codes[i] = rec.Code
		}(i)
	}
	<-started // one request holds the slot; the other is queued or about to be
	// Wait until the second request is actually queued behind the slot.
	deadline := time.Now().Add(5 * time.Second)
	for s.Admission().Stats().Queued[admission.Interactive] == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(100 * time.Microsecond)
	}

	// Queue full: the third concurrent request is shed immediately.
	rec := post(s, "/query", `{"question": "customers"}`, nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("saturated server answered %d, want 503 (body %s)", rec.Code, rec.Body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	if got := rec.Header().Get("X-Shed-Reason"); got != "queue_full" {
		t.Fatalf("X-Shed-Reason %q, want queue_full", got)
	}

	close(release)
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("request %d finished %d, want 200 after release", i, code)
		}
	}
}

// TestDrainFinishesInFlight is the graceful half of drain: the in-flight
// request completes with 200, new requests get 503 + Retry-After, and
// Drain returns true (no stragglers cancelled).
func TestDrainFinishesInFlight(t *testing.T) {
	s, started, release := parkedServer(t, Config{})

	var inflightCode int
	done := make(chan struct{})
	go func() {
		defer close(done)
		inflightCode = post(s, "/query", `{"question": "customers"}`, nil).Code
	}()
	<-started

	drained := make(chan bool, 1)
	go func() { drained <- s.Drain(10 * time.Second) }()
	// The drain flips refusal on before it waits; poll until visible.
	deadline := time.Now().Add(5 * time.Second)
	for !s.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("drain never started")
		}
		time.Sleep(100 * time.Microsecond)
	}

	// New work is refused while the drain waits.
	rec := post(s, "/query", `{"question": "customers"}`, nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining server answered %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" || rec.Header().Get("X-Shed-Reason") != "draining" {
		t.Fatalf("draining 503 missing advice: %v", rec.Header())
	}

	// The in-flight request finishes normally.
	close(release)
	<-done
	if inflightCode != http.StatusOK {
		t.Fatalf("in-flight request finished %d, want 200", inflightCode)
	}
	if !<-drained {
		t.Fatal("drain reported stragglers despite the in-flight request finishing in time")
	}
	if s.InFlight() != 0 {
		t.Fatalf("in-flight count %d after drain", s.InFlight())
	}
}

// TestDrainTimeoutCancelsStragglers is the forceful half: a request that
// outlives the drain budget is cancelled through its context, the drain
// returns false, and the handler still unwinds with an error response.
func TestDrainTimeoutCancelsStragglers(t *testing.T) {
	db := testDB(t)
	started := make(chan struct{}, 4)
	// The straggler: an hour-long injected stall at the execute site. The
	// guard's delay honors the request context, so the drain's straggler
	// sweep — which cancels exactly that context — is the only way out.
	gw := resilient.New(db, []nlq.Interpreter{answering("a", "SELECT name FROM customer")}, resilient.Config{
		NoRetry: true,
		Hook: func(site resilient.Site, engine string) resilient.Fault {
			if site == resilient.SiteExecute {
				select {
				case started <- struct{}{}:
				default:
				}
				return resilient.Fault{Delay: time.Hour}
			}
			return resilient.Fault{}
		},
	})
	s := New(Config{Backend: gw})

	code := make(chan int, 1)
	go func() {
		code <- post(s, "/query", `{"question": "customers"}`, nil).Code
	}()
	<-started

	start := time.Now()
	if s.Drain(50 * time.Millisecond) {
		t.Fatal("drain reported clean finish; the straggler cannot have finished")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("drain with a 50ms budget took %v", elapsed)
	}
	// The handler unwound with an error (the context died under it).
	if c := <-code; c == http.StatusOK {
		t.Fatalf("cancelled straggler answered %d, want an error status", c)
	}
	if s.InFlight() != 0 {
		t.Fatalf("in-flight count %d after forced drain", s.InFlight())
	}
}

// TestDrainIdempotentWhenIdle covers the trivial path: draining an idle
// server finishes immediately and stays drained.
func TestDrainIdempotentWhenIdle(t *testing.T) {
	db := testDB(t)
	gw := resilient.New(db, []nlq.Interpreter{answering("a", "SELECT name FROM customer")}, resilient.Config{})
	s := New(Config{Backend: gw})
	if !s.Drain(time.Second) {
		t.Fatal("idle drain must finish cleanly")
	}
	if !s.Drain(time.Second) {
		t.Fatal("second drain must remain clean")
	}
	if rec := post(s, "/query", `{"question": "customers"}`, nil); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("drained server answered %d, want 503", rec.Code)
	}
}

// TestBatchEndToEndAndShedMarking runs a batch whose deadline expires
// midway: early questions answer, the unserved tail is marked shed so the
// caller can retry exactly those.
func TestBatchEndToEndAndShedMarking(t *testing.T) {
	db := testDB(t)
	gw := resilient.New(db, []nlq.Interpreter{answering("a", "SELECT name FROM customer")}, resilient.Config{
		NoRetry: true,
		Workers: 1,
		Hook: func(site resilient.Site, engine string) resilient.Fault {
			if site == resilient.SiteExecute {
				return resilient.Fault{Delay: 30 * time.Millisecond}
			}
			return resilient.Fault{}
		},
	})
	s := New(Config{Backend: gw})

	questions := make([]string, 10)
	for i := range questions {
		questions[i] = fmt.Sprintf(`"q %d"`, i)
	}
	body := fmt.Sprintf(`{"questions": [%s]}`, strings.Join(questions, ","))
	rec := post(s, "/batch", body, map[string]string{"X-Deadline-Ms": "150"})
	if rec.Code != http.StatusOK {
		t.Fatalf("batch status %d (body %s)", rec.Code, rec.Body)
	}
	resp := decode[struct {
		Results []batchItem `json:"results"`
	}](t, rec)
	if len(resp.Results) != 10 {
		t.Fatalf("%d results, want 10", len(resp.Results))
	}
	answered, shed := 0, 0
	for _, item := range resp.Results {
		switch {
		case item.Answer != nil:
			answered++
		case item.Shed:
			shed++
		}
	}
	if answered == 0 {
		t.Fatalf("no question answered before the deadline: %+v", resp.Results)
	}
	if shed == 0 {
		t.Fatalf("deadline expiry left no shed items (answered=%d): %+v", answered, resp.Results)
	}
}

// TestBatchDefaultsToBatchPriority pins that /batch traffic lands in the
// batch admission class (the one that sheds first) unless overridden.
func TestBatchDefaultsToBatchPriority(t *testing.T) {
	db := testDB(t)
	gw := resilient.New(db, []nlq.Interpreter{answering("a", "SELECT name FROM customer")}, resilient.Config{})
	ctrl := admission.New(admission.Config{MaxInFlight: 4, NoAdapt: true})
	s := New(Config{Backend: gw, Admission: ctrl})
	if rec := post(s, "/batch", `{"questions": ["customers"]}`, nil); rec.Code != http.StatusOK {
		t.Fatalf("batch status %d (body %s)", rec.Code, rec.Body)
	}
	st := ctrl.Stats()
	if st.Admitted != 1 {
		t.Fatalf("admitted %d, want 1", st.Admitted)
	}
}

// TestHTTPMetricsRecorded spot-checks the server's own metric families.
func TestHTTPMetricsRecorded(t *testing.T) {
	db := testDB(t)
	gw := resilient.New(db, []nlq.Interpreter{answering("a", "SELECT name FROM customer")}, resilient.Config{})
	reg := obs.NewRegistry()
	s := New(Config{Backend: gw, Metrics: reg})
	post(s, "/query", `{"question": "customers"}`, nil)
	text := promText(reg)
	for _, want := range []string{
		`nlidb_http_requests_total{code="200",route="/query"} 1`,
		"nlidb_http_request_seconds",
		"nlidb_http_inflight 0",
		"nlidb_admission_inflight 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}
