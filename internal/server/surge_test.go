package server

// Seeded surge chaos: a burst of concurrent clients several times larger
// than the admit limit hits a server whose pipeline is misbehaving under
// fault injection (panics, errors, slowness — replayable from one seed).
// The invariants under test are the serving layer's whole contract:
// every request gets exactly one well-formed HTTP answer from the known
// status set, nothing panics through, overload is shed honestly with
// retry advice, and after the storm the server still drains clean.

import (
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nlidb/internal/admission"
	"nlidb/internal/nlq"
	"nlidb/internal/obs"
	"nlidb/internal/resilient"
	"nlidb/internal/resilient/faultinject"
)

func TestSurgeChaosUnderOverload(t *testing.T) {
	db := testDB(t)
	inj := faultinject.New(0xC0FFEE)
	inj.PanicRate = 0.05
	inj.ErrorRate = 0.10
	inj.SlowRate = 0.20
	inj.SlowBy = 2 * time.Millisecond

	reg := obs.NewRegistry()
	gw := resilient.New(db, []nlq.Interpreter{
		answering("primary", "SELECT name, city FROM customer"),
		answering("fallback", "SELECT name FROM customer"),
	}, resilient.Config{
		NoRetry:          true,
		Hook:             inj.Hook(),
		BreakerThreshold: 3,
		BreakerCooldown:  20 * time.Millisecond,
		Metrics:          reg,
	})
	ctrl := admission.New(admission.Config{
		MaxInFlight: 4,
		MaxQueue:    8,
		BatchQueue:  2,
		Metrics:     reg,
	})
	s := New(Config{
		Backend:        gw,
		Admission:      ctrl,
		Metrics:        reg,
		DefaultTimeout: 2 * time.Second,
		RateLimit:      admission.NewRateLimiter(admission.RateConfig{RPS: 500, Burst: 50}),
	})

	// 3 waves of clients, each wave several times the admit limit, mixing
	// interactive queries, batch requests, and tight client deadlines.
	const wave, waves = 24, 3
	var (
		wg       sync.WaitGroup
		statuses sync.Map // status code -> *atomic.Int64
		total    atomic.Int64
	)
	count := func(code int) {
		v, _ := statuses.LoadOrStore(code, &atomic.Int64{})
		v.(*atomic.Int64).Add(1)
		total.Add(1)
	}
	for w := 0; w < waves; w++ {
		for i := 0; i < wave; i++ {
			wg.Add(1)
			go func(w, i int) {
				defer wg.Done()
				hdr := map[string]string{"X-Client": fmt.Sprintf("c%d", i%8)}
				var rec interface{ Result() *http.Response }
				switch i % 4 {
				case 0: // interactive query
					rec = post(s, "/query", fmt.Sprintf(`{"question": "customers wave %d %d"}`, w, i), hdr)
				case 1: // tight deadline
					hdr["X-Deadline-Ms"] = "30"
					rec = post(s, "/query", `{"question": "customers in Berlin"}`, hdr)
				case 2: // batch
					rec = post(s, "/batch", `{"questions": ["customers", "cities"]}`, hdr)
				default: // explicit batch-class single query
					rec = post(s, "/query", `{"question": "customers", "priority": "batch"}`, hdr)
				}
				res := rec.Result()
				count(res.StatusCode)
				switch res.StatusCode {
				case http.StatusOK, http.StatusGatewayTimeout,
					http.StatusUnprocessableEntity, http.StatusInternalServerError:
				case http.StatusServiceUnavailable, http.StatusTooManyRequests:
					if res.Header.Get("Retry-After") == "" {
						t.Errorf("%d response without Retry-After", res.StatusCode)
					}
				default:
					t.Errorf("unexpected status %d", res.StatusCode)
				}
			}(w, i)
		}
		wg.Wait() // wave barrier: let breakers and the limit adapt between waves
	}

	if got := total.Load(); got != wave*waves {
		t.Fatalf("%d responses for %d requests; every request must be answered exactly once", got, wave*waves)
	}
	okCount := int64(0)
	if v, ok := statuses.Load(http.StatusOK); ok {
		okCount = v.(*atomic.Int64).Load()
	}
	if okCount == 0 {
		t.Fatal("surge produced zero successful answers; the fallback chain should still serve some traffic")
	}

	// The storm is over: the server must still drain clean, and the
	// admission books must balance (nothing leaked a slot).
	if !s.Drain(5 * time.Second) {
		t.Fatal("post-surge drain had to cancel stragglers")
	}
	st := ctrl.Stats()
	if st.InFlight != 0 || st.Queued[admission.Interactive] != 0 || st.Queued[admission.Batch] != 0 {
		t.Fatalf("admission books unbalanced after drain: %+v", st)
	}
	if s.InFlight() != 0 {
		t.Fatalf("http in-flight %d after drain", s.InFlight())
	}
	if counts := inj.Counts(); counts["panic"] == 0 && counts["error"] == 0 {
		t.Fatalf("chaos injected nothing (counts %v); the seed should produce faults", counts)
	}
}
