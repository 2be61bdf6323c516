package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"nlidb/internal/nlq"
	"nlidb/internal/resilient"
	"nlidb/internal/sqldata"
)

// TestInternalQueryTypedAnswer: POST /internal/query answers in the
// typed wire form — cells carry tags, and the decoded answer's values
// keep their types instead of the /query route's strings.
func TestInternalQueryTypedAnswer(t *testing.T) {
	db := testDB(t)
	gw := resilient.New(db, []nlq.Interpreter{answering("a", "SELECT name FROM customer")}, resilient.Config{})
	s := New(Config{Backend: gw})

	rec := post(s, "/internal/query", `{"sql": "SELECT COUNT(*) FROM customer"}`, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, body %s", rec.Code, rec.Body)
	}
	ans, wire, err := resilient.DecodeAnswerJSON(rec.Body.Bytes())
	if err != nil {
		t.Fatalf("response is not a wire answer: %v\n%s", err, rec.Body)
	}
	if v := ans.Result.Rows[0][0]; v.T != sqldata.TypeInt || v.Int() != 3 {
		t.Fatalf("COUNT cell = %v (type %v), want INT 3", v, v.T)
	}
	if len(wire.Trace) == 0 {
		t.Fatal("no server-side trace traveled with the answer")
	}
}

// TestInternalQueryValidation: sql and nothing else — a node executes,
// it does not interpret, so a question is a protocol error — POST only,
// and a malformed trace header is rejected rather than mislinked.
func TestInternalQueryValidation(t *testing.T) {
	db := testDB(t)
	gw := resilient.New(db, []nlq.Interpreter{answering("a", "SELECT name FROM customer")}, resilient.Config{})
	s := New(Config{Backend: gw})

	for _, body := range []string{`{}`, `{"question":"customers"}`, `{"question":"x","sql":"SELECT 1"}`, `not json`} {
		if rec := post(s, "/internal/query", body, nil); rec.Code != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, rec.Code)
		}
	}
	req := httptest.NewRequest(http.MethodGet, "/internal/query", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET: status %d, want 405", rec.Code)
	}
	if rec := post(s, "/internal/query", `{"sql":"SELECT 1"}`, map[string]string{"X-Trace-Context": "%%%"}); rec.Code != http.StatusBadRequest {
		t.Errorf("malformed trace header: status %d, want 400", rec.Code)
	}
}

// TestInternalQueryEpochFence: a node declared under shard-map epoch E
// refuses requests stamped with any other epoch — typed 409 carrying the
// node's epoch — before reading the body.
func TestInternalQueryEpochFence(t *testing.T) {
	db := testDB(t)
	gw := resilient.New(db, []nlq.Interpreter{answering("a", "SELECT name FROM customer")}, resilient.Config{})
	s := New(Config{Backend: gw, ShardEpoch: 5, ShardIndex: 2})

	rec := post(s, "/internal/query", `{"sql":"SELECT COUNT(*) FROM customer"}`, map[string]string{"X-Shard-Epoch": "4"})
	if rec.Code != http.StatusConflict {
		t.Fatalf("stale epoch: status %d, want 409 (body %s)", rec.Code, rec.Body)
	}
	if got := rec.Header().Get("X-Shard-Epoch"); got != "5" {
		t.Fatalf("409 response epoch header = %q, want 5", got)
	}
	resp := decode[map[string]any](t, rec)
	if resp["shard_epoch"] != float64(5) || resp["error"] == "" {
		t.Fatalf("409 body = %v, want error + shard_epoch 5", resp)
	}

	if rec := post(s, "/internal/query", `{"sql":"SELECT COUNT(*) FROM customer"}`, map[string]string{"X-Shard-Epoch": "bogus"}); rec.Code != http.StatusBadRequest {
		t.Errorf("unparseable epoch: status %d, want 400", rec.Code)
	}
	for _, hdr := range []map[string]string{nil, {"X-Shard-Epoch": "5"}} {
		if rec := post(s, "/internal/query", `{"sql":"SELECT COUNT(*) FROM customer"}`, hdr); rec.Code != http.StatusOK {
			t.Errorf("hdr %v: status %d, want 200 (body %s)", hdr, rec.Code, rec.Body)
		}
	}
}

// TestHealthz covers the probe ladder: shallow, deep, deep-failing,
// draining, and the shard identity fields.
func TestHealthz(t *testing.T) {
	db := testDB(t)
	get := func(s *Server, path string) (*httptest.ResponseRecorder, healthzResponse) {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec, decode[healthzResponse](t, rec)
	}

	t.Run("shallow and deep ok", func(t *testing.T) {
		gw := resilient.New(db, []nlq.Interpreter{answering("a", "SELECT name FROM customer")}, resilient.Config{})
		s := New(Config{Backend: gw, HealthSQL: "SELECT COUNT(*) FROM customer", ShardEpoch: 3, ShardIndex: 1})
		rec, resp := get(s, "/healthz")
		if rec.Code != http.StatusOK || resp.Status != "ok" || resp.Mode != "shallow" || !resp.DeepSupported {
			t.Fatalf("shallow: %d %+v", rec.Code, resp)
		}
		if resp.ShardIndex == nil || *resp.ShardIndex != 1 || resp.ShardEpoch != 3 {
			t.Fatalf("shard identity: %+v", resp)
		}
		rec, resp = get(s, "/healthz?deep=1")
		if rec.Code != http.StatusOK || resp.Mode != "deep" || resp.ProbeMs < 0 {
			t.Fatalf("deep: %d %+v", rec.Code, resp)
		}
	})

	t.Run("deep probe failure is a 503", func(t *testing.T) {
		gw := resilient.New(db, []nlq.Interpreter{answering("a", "SELECT name FROM customer")}, resilient.Config{})
		s := New(Config{Backend: gw, HealthSQL: "SELECT x FROM no_such_table"})
		rec, resp := get(s, "/healthz?deep=1")
		if rec.Code != http.StatusServiceUnavailable || resp.Status != "failing" || resp.Error == "" {
			t.Fatalf("failing deep: %d %+v", rec.Code, resp)
		}
		// Shallow still answers 200: the process is up, the pipeline is not.
		if rec, resp := get(s, "/healthz"); rec.Code != http.StatusOK || resp.Status != "ok" {
			t.Fatalf("shallow after deep failure: %d %+v", rec.Code, resp)
		}
	})

	t.Run("draining answers 503 with retry advice", func(t *testing.T) {
		gw := resilient.New(db, []nlq.Interpreter{answering("a", "SELECT name FROM customer")}, resilient.Config{})
		s := New(Config{Backend: gw})
		if !s.Drain(time.Second) {
			t.Fatal("idle drain not clean")
		}
		rec, resp := get(s, "/healthz")
		if rec.Code != http.StatusServiceUnavailable || resp.Status != "draining" {
			t.Fatalf("draining: %d %+v", rec.Code, resp)
		}
		if rec.Header().Get("Retry-After") == "" {
			t.Fatal("draining healthz carries no Retry-After")
		}
	})

	t.Run("post is rejected", func(t *testing.T) {
		gw := resilient.New(db, []nlq.Interpreter{answering("a", "SELECT name FROM customer")}, resilient.Config{})
		s := New(Config{Backend: gw})
		if rec := post(s, "/healthz", "", nil); rec.Code != http.StatusMethodNotAllowed {
			t.Fatalf("POST /healthz: status %d, want 405", rec.Code)
		}
	})
}

// blockingBackend parks every call until release closes (or the call's
// context dies), reporting each call's context so the test can watch
// which ones a drain sweep cancels.
type blockingBackend struct {
	ctxs    chan context.Context
	release chan struct{}
	answer  *resilient.Answer
}

func (b *blockingBackend) serve(ctx context.Context) (*resilient.Answer, error) {
	b.ctxs <- ctx
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-b.release:
		return b.answer, nil
	}
}

func (b *blockingBackend) Ask(ctx context.Context, q string) (*resilient.Answer, error) {
	return b.serve(ctx)
}

func (b *blockingBackend) AskSQL(ctx context.Context, sql string) (*resilient.Answer, error) {
	return b.serve(ctx)
}

func (b *blockingBackend) ServeBatch(ctx context.Context, qs []string) []resilient.BatchResult {
	out := make([]resilient.BatchResult, len(qs))
	for i, q := range qs {
		ans, err := b.serve(ctx)
		out[i] = resilient.BatchResult{Index: i, Question: q, Answer: ans, Err: err}
	}
	return out
}

// TestDrainClassOwnDeadline is the drain-class regression test: when a
// drain overruns its budget, DrainSweep requests (interactive /query)
// are cancelled, but an in-flight /internal/query leg carrying its own
// explicit X-Deadline-Ms keeps the remainder of that budget — the
// coordinator priced the leg upstream, and sweeping it would turn an
// answerable scatter leg into a spurious failure.
func TestDrainClassOwnDeadline(t *testing.T) {
	bb := &blockingBackend{
		ctxs:    make(chan context.Context, 2),
		release: make(chan struct{}),
		answer: &resilient.Answer{
			Engine: "block",
			Result: &sqldata.Result{Columns: []string{"a"}, Rows: []sqldata.Row{{sqldata.NewInt(1)}}},
		},
	}
	s := New(Config{Backend: bb})

	type result struct {
		path string
		code int
	}
	results := make(chan result, 2)
	start := func(path, body string, hdr map[string]string) {
		go func() {
			rec := post(s, path, body, hdr)
			results <- result{path, rec.Code}
		}()
	}
	// The scatter leg: explicit deadline, own-deadline drain class.
	start("/internal/query", `{"sql":"SELECT 1"}`, map[string]string{"X-Deadline-Ms": "10000"})
	legCtx := <-bb.ctxs
	// The interactive query: no explicit deadline, sweep class.
	start("/query", `{"question":"x"}`, nil)
	userCtx := <-bb.ctxs

	drained := make(chan bool, 1)
	go func() { drained <- s.Drain(50 * time.Millisecond) }()

	// The drain overruns and sweeps: the interactive request dies...
	select {
	case <-userCtx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("sweep never cancelled the interactive request")
	}
	// ...but the leg with its own deadline is still alive.
	select {
	case <-legCtx.Done():
		t.Fatal("drain sweep cancelled an own-deadline scatter leg")
	case <-time.After(100 * time.Millisecond):
	}

	close(bb.release)
	if <-drained {
		t.Fatal("drain reported clean despite sweeping a straggler")
	}
	for i := 0; i < 2; i++ {
		r := <-results
		switch r.path {
		case "/internal/query":
			if r.code != http.StatusOK {
				t.Errorf("own-deadline leg finished %d, want 200", r.code)
			}
		case "/query":
			if r.code == http.StatusOK {
				t.Error("swept interactive request reported 200")
			}
		}
	}
}

// TestDrainClassRequiresExplicitDeadline: an /internal/query request
// WITHOUT X-Deadline-Ms falls back to the sweep class — otherwise an
// unbounded leg could hold shutdown hostage for the whole DefaultTimeout.
func TestDrainClassRequiresExplicitDeadline(t *testing.T) {
	bb := &blockingBackend{
		ctxs:    make(chan context.Context, 1),
		release: make(chan struct{}),
		answer:  &resilient.Answer{Engine: "block", Result: &sqldata.Result{}},
	}
	s := New(Config{Backend: bb})
	done := make(chan int, 1)
	go func() {
		rec := post(s, "/internal/query", `{"sql":"SELECT 1"}`, nil)
		done <- rec.Code
	}()
	ctx := <-bb.ctxs

	go s.Drain(50 * time.Millisecond)
	select {
	case <-ctx.Done():
		if !strings.Contains(ctx.Err().Error(), "canceled") {
			t.Fatalf("ctx err = %v, want cancellation from the sweep", ctx.Err())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("sweep never cancelled the deadline-less internal request")
	}
	close(bb.release)
	<-done
}
