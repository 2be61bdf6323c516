package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"nlidb/internal/nlq"
	"nlidb/internal/obs"
	"nlidb/internal/resilient"
	"nlidb/internal/shard"
)

// TestObservabilityDuringDrain is the regression test for the shutdown
// ordering bug: a draining server must shed query traffic with 503s but
// keep /metrics, /debug/vars, and /slowlog answering, so operators can
// watch the drain instead of going blind at the worst moment.
func TestObservabilityDuringDrain(t *testing.T) {
	db := testDB(t)
	block := make(chan struct{})
	// entered fires once the parked request reaches the interpreter, past
	// admission: InFlight counts a request before it is admitted, and a
	// drain that starts in between sheds it.
	entered := make(chan struct{}, 1)
	slowInterp := &fakeInterp{name: "slow", fn: func(q string) ([]nlq.Interpretation, error) {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-block
		return answering("slow", "SELECT name FROM customer").fn(q)
	}}
	reg := obs.NewRegistry()
	slow := obs.NewSlowLog(time.Millisecond, 16)
	gw := resilient.New(db, []nlq.Interpreter{slowInterp}, resilient.Config{Metrics: reg, SlowLog: slow})
	api := New(Config{Backend: gw, Metrics: reg})
	mux := Mux(api, reg, slow)

	// Park one request inside the pipeline so the drain has to wait.
	done := make(chan int, 1)
	go func() {
		req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(`{"question": "x"}`))
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		done <- rec.Code
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request never reached the interpreter")
	}

	drained := make(chan bool, 1)
	go func() { drained <- api.Drain(10 * time.Second) }()
	for !api.Draining() {
		time.Sleep(time.Millisecond)
	}

	// Query traffic is shed...
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(`{"question": "y"}`)))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("query during drain: status %d, want 503", rec.Code)
	}
	if rec.Header().Get("X-Shed-Reason") != "draining" {
		t.Fatalf("query during drain: X-Shed-Reason %q, want draining", rec.Header().Get("X-Shed-Reason"))
	}
	// ...but the debug suite keeps answering.
	for _, path := range []string{"/metrics", "/debug/vars", "/slowlog"} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Errorf("GET %s during drain: status %d, want 200", path, rec.Code)
		}
		if rec.Body.Len() == 0 {
			t.Errorf("GET %s during drain: empty body", path)
		}
	}

	close(block)
	if !<-drained {
		t.Fatal("drain reported stragglers despite the request finishing")
	}
	if code := <-done; code != http.StatusOK {
		t.Fatalf("in-flight request finished with %d, want 200", code)
	}
}

// TestShardedBackendOverHTTP wires a shard.Cluster as the server Backend
// and checks the degradation contract reaches the client: a dead shard
// turns scatter answers into partial:true with the missing shard listed.
func TestShardedBackendOverHTTP(t *testing.T) {
	db := testDB(t)
	nodes := make([][]*shard.ChaosNode, 2)
	cl, err := shard.New(db, 2, shard.Config{
		Replicas:     1,
		Chain:        []nlq.Interpreter{answering("a", "SELECT name FROM customer")},
		Retries:      1,
		RetryBackoff: time.Millisecond,
		CacheSize:    -1,
		WrapNode: func(s, r int, n shard.Node) shard.Node {
			cn := &shard.ChaosNode{Inner: n}
			nodes[s] = append(nodes[s], cn)
			return cn
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Backend: cl})

	rec := post(s, "/query", `{"question": "all customers"}`, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("healthy cluster: status %d, body %s", rec.Code, rec.Body)
	}
	resp := decode[queryResponse](t, rec)
	if resp.Partial || len(resp.Rows) != 3 {
		t.Fatalf("healthy cluster: %+v", resp)
	}

	nodes[1][0].Kill()
	rec = post(s, "/query", `{"question": "all customers"}`, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("degraded cluster: status %d, body %s", rec.Code, rec.Body)
	}
	resp = decode[queryResponse](t, rec)
	if !resp.Partial {
		t.Fatalf("degraded cluster: answer not marked partial: %+v", resp)
	}
	if len(resp.MissingShards) != 1 || resp.MissingShards[0] != 1 {
		t.Fatalf("degraded cluster: missing_shards %v, want [1]", resp.MissingShards)
	}
	if len(resp.Rows) >= 3 {
		t.Fatalf("degraded cluster: partial answer has %d rows, want fewer than 3", len(resp.Rows))
	}
}
