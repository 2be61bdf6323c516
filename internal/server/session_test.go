package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"nlidb/internal/admission"
	"nlidb/internal/dialogue"
	"nlidb/internal/invindex"
	"nlidb/internal/lexicon"
	"nlidb/internal/nlq"
	"nlidb/internal/obs"
	"nlidb/internal/resilient"
	"nlidb/internal/session"
)

// sessionServer builds a server with conversational serving enabled over
// the tiny test database: the fake interpreter answers the Berlin query,
// follow-ups resolve through the real dialogue machinery.
func sessionServer(t *testing.T) (*Server, *session.Store) {
	t.Helper()
	db := testDB(t)
	ix := invindex.Build(db, lexicon.New())
	interp := answering("a", "SELECT name FROM customer WHERE city = 'Berlin'")
	exec := resilient.New(db, []nlq.Interpreter{interp}, resilient.Config{NoTrace: true})
	st, err := session.New(session.Config{
		Responder: dialogue.NewAgent(ix, exec),
		DB:        db,
		NoTrace:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Backend: exec, Sessions: st}
	return New(cfg), st
}

// do sends a request with the given method, echoing post()'s conventions.
func do(s *Server, method, path, body string, hdr map[string]string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	req.RemoteAddr = "192.0.2.1:4242"
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

func TestSessionCreateAskFollowUpEnd(t *testing.T) {
	s, _ := sessionServer(t)

	rec := post(s, "/session", "", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("create: %d %s", rec.Code, rec.Body)
	}
	created := decode[sessionCreateResponse](t, rec)
	if created.SessionID == "" || created.TTLMs <= 0 {
		t.Fatalf("create response %+v", created)
	}
	if rec.Header().Get("X-Session-ID") != created.SessionID {
		t.Fatal("create did not echo X-Session-ID")
	}
	hdr := map[string]string{"X-Session-ID": created.SessionID}

	rec = post(s, "/session/ask", `{"utterance": "customers in Berlin"}`, hdr)
	if rec.Code != http.StatusOK {
		t.Fatalf("ask: %d %s", rec.Code, rec.Body)
	}
	turn1 := decode[sessionAskResponse](t, rec)
	if turn1.Turn != 1 || turn1.ContextResolved || len(turn1.Rows) != 2 || turn1.Engine != "a" {
		t.Fatalf("turn 1: %+v", turn1)
	}
	if rec.Header().Get("X-Session-ID") != created.SessionID {
		t.Fatal("ask did not echo X-Session-ID")
	}

	rec = post(s, "/session/ask", `{"utterance": "how many are there"}`, hdr)
	if rec.Code != http.StatusOK {
		t.Fatalf("follow-up: %d %s", rec.Code, rec.Body)
	}
	turn2 := decode[sessionAskResponse](t, rec)
	if turn2.Turn != 2 || !turn2.ContextResolved || turn2.Intent != "aggregate" {
		t.Fatalf("turn 2: %+v", turn2)
	}
	if len(turn2.Rows) != 1 || turn2.Rows[0][0] != "2" {
		t.Fatalf("follow-up rows %v, want [[2]]", turn2.Rows)
	}

	rec = do(s, http.MethodDelete, "/session", "", hdr)
	if rec.Code != http.StatusNoContent {
		t.Fatalf("end: %d %s", rec.Code, rec.Body)
	}
	// Asking an ended session is 410 Gone, not 404: the ID did exist.
	rec = post(s, "/session/ask", `{"utterance": "how many are there"}`, hdr)
	if rec.Code != http.StatusGone {
		t.Fatalf("ask after end: %d, want 410", rec.Code)
	}
}

func TestSessionAskBodySessionID(t *testing.T) {
	s, st := sessionServer(t)
	id := st.Create()
	rec := post(s, `/session/ask`, `{"utterance": "customers in Berlin", "session_id": "`+id+`"}`, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("body session_id: %d %s", rec.Code, rec.Body)
	}
}

func TestSessionErrors(t *testing.T) {
	s, _ := sessionServer(t)
	hdrUnknown := map[string]string{"X-Session-ID": "deadbeefdeadbeefdeadbeefdeadbeef"}

	for name, tc := range map[string]struct {
		method, path, body string
		hdr                map[string]string
		want               int
	}{
		"unknown session ask": {http.MethodPost, "/session/ask", `{"utterance": "x"}`, hdrUnknown, http.StatusNotFound},
		"unknown session end": {http.MethodDelete, "/session", "", hdrUnknown, http.StatusNotFound},
		"missing id":          {http.MethodPost, "/session/ask", `{"utterance": "x"}`, nil, http.StatusBadRequest},
		"missing utterance":   {http.MethodPost, "/session/ask", `{}`, hdrUnknown, http.StatusBadRequest},
		"bad json":            {http.MethodPost, "/session/ask", `{`, hdrUnknown, http.StatusBadRequest},
		"bad priority":        {http.MethodPost, "/session/ask", `{"utterance": "x", "priority": "vip"}`, hdrUnknown, http.StatusBadRequest},
		"end without id":      {http.MethodDelete, "/session", "", nil, http.StatusBadRequest},
		"get session":         {http.MethodGet, "/session", "", nil, http.StatusMethodNotAllowed},
		"get ask":             {http.MethodGet, "/session/ask", "", nil, http.StatusMethodNotAllowed},
	} {
		rec := do(s, tc.method, tc.path, tc.body, tc.hdr)
		if rec.Code != tc.want {
			t.Errorf("%s: %d, want %d (%s)", name, rec.Code, tc.want, rec.Body)
		}
	}
}

func TestSessionDisabled(t *testing.T) {
	db := testDB(t)
	gw := resilient.New(db, []nlq.Interpreter{answering("a", "SELECT name FROM customer")}, resilient.Config{})
	s := New(Config{Backend: gw})
	if rec := post(s, "/session", "", nil); rec.Code != http.StatusNotImplemented {
		t.Fatalf("create with sessions off: %d, want 501", rec.Code)
	}
	if rec := post(s, "/session/ask", `{"utterance": "x", "session_id": "y"}`, nil); rec.Code != http.StatusNotImplemented {
		t.Fatalf("ask with sessions off: %d, want 501", rec.Code)
	}
}

func TestSessionRateLimitSheds(t *testing.T) {
	db := testDB(t)
	ix := invindex.Build(db, lexicon.New())
	interp := answering("a", "SELECT name FROM customer WHERE city = 'Berlin'")
	exec := resilient.New(db, []nlq.Interpreter{interp}, resilient.Config{NoTrace: true})
	st, err := session.New(session.Config{
		Responder: dialogue.NewAgent(ix, exec),
		DB:        db,
		NoTrace:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	rl := admission.NewRateLimiter(admission.RateConfig{RPS: 0.001, Burst: 1})
	s := New(Config{Backend: exec, Sessions: st, SessionRateLimit: rl, Metrics: reg})

	id := st.Create()
	hdr := map[string]string{"X-Session-ID": id}
	if rec := post(s, "/session/ask", `{"utterance": "customers in Berlin"}`, hdr); rec.Code != http.StatusOK {
		t.Fatalf("first turn: %d %s", rec.Code, rec.Body)
	}
	rec := post(s, "/session/ask", `{"utterance": "how many are there"}`, hdr)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("second turn: %d, want 429", rec.Code)
	}
	if rec.Header().Get("X-Shed-Reason") != "session_rate_limit" {
		t.Fatalf("shed reason %q", rec.Header().Get("X-Shed-Reason"))
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if reg.Counter(admission.MetricShed, "reason", "session_rate_limit").Value() != 1 {
		t.Fatal("session shed not counted")
	}

	// A different session on the same server is unaffected: the bucket is
	// per conversation.
	id2 := st.Create()
	if rec := post(s, "/session/ask", `{"utterance": "customers in Berlin"}`, map[string]string{"X-Session-ID": id2}); rec.Code != http.StatusOK {
		t.Fatalf("second session throttled by the first: %d", rec.Code)
	}
}

func TestSessionExpiryIs410(t *testing.T) {
	db := testDB(t)
	ix := invindex.Build(db, lexicon.New())
	interp := answering("a", "SELECT name FROM customer WHERE city = 'Berlin'")
	exec := resilient.New(db, []nlq.Interpreter{interp}, resilient.Config{NoTrace: true})
	clock := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	now := &clock
	st, err := session.New(session.Config{
		Responder: dialogue.NewAgent(ix, exec),
		DB:        db,
		NoTrace:   true,
		TTL:       time.Minute,
		Now:       func() time.Time { return *now },
	})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Backend: exec, Sessions: st})
	id := st.Create()
	clock = clock.Add(2 * time.Minute)
	rec := post(s, "/session/ask", `{"utterance": "customers in Berlin"}`, map[string]string{"X-Session-ID": id})
	if rec.Code != http.StatusGone {
		t.Fatalf("expired session: %d, want 410 (%s)", rec.Code, rec.Body)
	}
}

// panicky is a session responder that panics on "boom" and defers to
// inner otherwise.
type panicky struct{ inner session.Responder }

func (p panicky) RespondWith(ctx context.Context, conv *dialogue.Context, utterance string) (*dialogue.Response, error) {
	if utterance == "boom" {
		panic("responder exploded")
	}
	return p.inner.RespondWith(ctx, conv, utterance)
}

// TestSessionAskPanicIs500: a panic in the turn's responder answers 500
// with the JSON error body /query would send, and the session answers its
// next turn. A panic inside the interpreter chain is isolated there, so
// the turn answers exactly as /query does.
func TestSessionAskPanicIs500(t *testing.T) {
	db := testDB(t)
	ix := invindex.Build(db, lexicon.New())
	berlin := answering("a", "SELECT name FROM customer WHERE city = 'Berlin'")
	interp := &fakeInterp{name: "a", fn: func(q string) ([]nlq.Interpretation, error) {
		if q == "kaboom" {
			panic("interpreter exploded")
		}
		return berlin.fn(q)
	}}
	exec := resilient.New(db, []nlq.Interpreter{interp}, resilient.Config{NoTrace: true})
	st, err := session.New(session.Config{Responder: panicky{dialogue.NewAgent(ix, exec)}, DB: db, NoTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Backend: exec, Sessions: st})
	hdr := map[string]string{"X-Session-ID": st.Create()}

	rec := post(s, "/session/ask", `{"utterance": "boom"}`, hdr)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking turn: %d %s, want 500", rec.Code, rec.Body)
	}
	if body := decode[map[string]string](t, rec); !strings.Contains(body["error"], "responder exploded") {
		t.Fatalf("500 body %v does not carry the panic", body)
	}

	query := post(s, "/query", `{"question": "kaboom"}`, nil)
	rec = post(s, "/session/ask", `{"utterance": "kaboom"}`, hdr)
	if rec.Code != query.Code || !strings.Contains(rec.Body.String(), "interpreter exploded") {
		t.Fatalf("interpreter panic in a turn: %d %s; /query answered %d %s", rec.Code, rec.Body, query.Code, query.Body)
	}
	if rec := post(s, "/session/ask", `{"utterance": "customers in Berlin"}`, hdr); rec.Code != http.StatusOK {
		t.Fatalf("turn after the panic: %d %s, want 200", rec.Code, rec.Body)
	}
}
