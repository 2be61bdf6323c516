package main

// The overload benchmark is the tentpole's acceptance experiment: drive
// the HTTP serving layer with an open-loop arrival process at 1×, 2×, 5×,
// and 10× its measured capacity, once behind the admission controller and
// once with admission effectively disabled (a limiter too large to ever
// bind), and record goodput and admitted-request latency. The claim under
// test: with admission control, goodput and admitted p99 stay flat (within
// 2×) from 1× to 10× offered load, while the unprotected server collapses
// — every request is accepted, all of them share one core, and none
// finishes inside its deadline.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"nlidb/internal/admission"
	"nlidb/internal/benchdata"
	"nlidb/internal/lexicon"
	"nlidb/internal/resilient"
	"nlidb/internal/server"
)

const (
	// overloadDeadlineMs is each request's client budget; a 250ms answer is
	// the survey's interactive bar, and overload shows up as missing it.
	overloadDeadlineMs = 250
	// overloadRunSeconds is the nominal duration of each load run.
	overloadRunSeconds = 2.0
	// overloadMaxRequests caps any single run (10× on a fast box would
	// otherwise spawn unbounded goroutines).
	overloadMaxRequests = 4000
	// overloadCapacityProbes sizes the serial capacity measurement.
	overloadCapacityProbes = 200
	// overloadReps: each (mode, multiplier) cell runs this many times on a
	// fresh server and reports the rep with the median admitted p99 — tail
	// percentiles on a small shared box are noisy, single runs doubly so.
	overloadReps = 3
)

// OverloadRun is one (mode, multiplier) cell of the experiment.
type OverloadRun struct {
	Mode       string  `json:"mode"` // "admission" or "baseline"
	Multiplier float64 `json:"multiplier"`
	OfferedQPS float64 `json:"offered_qps"`
	Requests   int     `json:"requests"`

	OK       int `json:"ok"`        // 200s inside the client deadline, measured from scheduled arrival
	LateOK   int `json:"late_ok"`   // 200s that arrived after the client would have given up
	Shed     int `json:"shed"`      // 503s — rejected up front
	Timeout  int `json:"timeout"`   // 504s — admitted but missed the deadline
	OtherErr int `json:"other_err"` // anything else

	GoodputQPS float64 `json:"goodput_qps"`
	// AdmittedP50ms/AdmittedP99ms are service-time percentiles over the
	// 200s: ServeHTTP entry to response, the span admission control
	// governs. E2EP99ms is the same tail measured from each request's
	// scheduled arrival; on this in-process single-box harness it also
	// includes the load generator's own scheduling backlog, which is why
	// the flatness claim is stated over service time while e2e is
	// reported alongside (it carries the baseline's collapse signal).
	AdmittedP50ms float64 `json:"admitted_p50_ms"`
	AdmittedP99ms float64 `json:"admitted_p99_ms"`
	E2EP99ms      float64 `json:"e2e_p99_ms"`
}

// OverloadReport is BENCH_overload.json.
type OverloadReport struct {
	GeneratedBy string  `json:"generated_by"`
	Seed        int64   `json:"seed"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	CapacityQPS float64 `json:"capacity_qps"`
	DeadlineMs  int     `json:"deadline_ms"`

	Runs []OverloadRun `json:"runs"`

	// AdmissionGoodputRatio / AdmissionP99Ratio: worst/best across the
	// admission runs in the overload range (multiplier ≥ 2; the 1× run is
	// the healthy reference). Acceptance: ≤ 2 — "flat within 2×".
	AdmissionGoodputRatio float64 `json:"admission_goodput_ratio"`
	AdmissionP99Ratio     float64 `json:"admission_p99_ratio"`
	// BaselineGoodputCollapse: baseline 1× goodput over baseline 10×
	// goodput (the bigger, the harder the unprotected server fell).
	BaselineGoodputCollapse float64 `json:"baseline_goodput_collapse"`
}

// overloadServer builds the system under test: the default chain over the
// Sales domain, no answer cache (every request pays the pipeline), and
// the given admission controller.
func overloadServer(d *benchdata.Domain, ctrl *admission.Controller) *server.Server {
	gw := resilient.New(d.DB, resilient.DefaultChain(d.DB, lexicon.New()),
		resilient.Config{NoTrace: true, NoRetry: true})
	return server.New(server.Config{Backend: gw, Admission: ctrl})
}

// runOverloadBench measures the overload behavior and writes the JSON
// report to path.
func runOverloadBench(path string, seed int64) error {
	d := benchdata.Sales(seed)

	// Pick a handful of answerable questions; unanswerable ones would
	// measure chain exhaustion, not serving capacity.
	probe := resilient.New(d.DB, resilient.DefaultChain(d.DB, lexicon.New()),
		resilient.Config{NoTrace: true, NoRetry: true})
	set := benchdata.WikiSQLStyle(d, 40, seed+5)
	var questions []string
	for _, p := range set.Pairs {
		if _, err := probe.Ask(context.Background(), p.Question); err == nil {
			questions = append(questions, p.Question)
		}
		if len(questions) == 8 {
			break
		}
	}
	if len(questions) < 2 {
		return fmt.Errorf("overload bench: only %d answerable questions", len(questions))
	}

	// Capacity: serial round-robin service through a generously admitted
	// server — the 1-slot-per-core ceiling the load multipliers scale from.
	warm := overloadServer(d, admission.New(admission.Config{NoAdapt: true, MaxInFlight: 4}))
	start := time.Now()
	for i := 0; i < overloadCapacityProbes; i++ {
		rec := overloadRequest(warm, questions[i%len(questions)])
		if i == 0 && rec.Code != http.StatusOK {
			return fmt.Errorf("overload bench: warmup request failed: %d %s", rec.Code, rec.Body)
		}
	}
	capacity := float64(overloadCapacityProbes) / time.Since(start).Seconds()

	report := OverloadReport{
		GeneratedBy: "nlidb-bench -overload",
		Seed:        seed,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		CapacityQPS: capacity,
		DeadlineMs:  overloadDeadlineMs,
	}

	multipliers := []float64{1, 2, 5, 10}
	for _, mode := range []string{"admission", "baseline"} {
		for _, m := range multipliers {
			newCtrl := func() *admission.Controller {
				if mode == "admission" {
					return admission.New(admission.Config{})
				}
				// "No admission": a limiter that can never bind — every
				// request is admitted immediately and they all fight for
				// the same cores.
				return admission.New(admission.Config{
					NoAdapt: true, MaxInFlight: 1 << 20, MaxQueue: 1 << 20, BatchQueue: 1 << 20,
				})
			}
			reps := make([]OverloadRun, 0, overloadReps)
			for r := 0; r < overloadReps; r++ {
				reps = append(reps, overloadRun(overloadServer(d, newCtrl()), questions, mode, m, capacity))
			}
			sort.Slice(reps, func(i, j int) bool { return reps[i].AdmittedP99ms < reps[j].AdmittedP99ms })
			run := reps[len(reps)/2]
			report.Runs = append(report.Runs, run)
			fmt.Printf("  %-9s %4.0f×: offered %7.1f q/s  ok %4d  late %4d  shed %4d  timeout %4d  goodput %7.1f q/s  p99 %8.2fms  e2e-p99 %8.2fms\n",
				mode, m, run.OfferedQPS, run.OK, run.LateOK, run.Shed, run.Timeout, run.GoodputQPS, run.AdmittedP99ms, run.E2EP99ms)
		}
	}

	// Flatness and collapse ratios.
	var admGood, admP99, baseGood []float64
	for _, r := range report.Runs {
		if r.Mode == "admission" && r.Multiplier >= 2 {
			admGood = append(admGood, r.GoodputQPS)
			admP99 = append(admP99, r.AdmittedP99ms)
		}
		if r.Mode == "baseline" {
			baseGood = append(baseGood, r.GoodputQPS)
		}
	}
	report.AdmissionGoodputRatio = worstBest(admGood)
	report.AdmissionP99Ratio = worstBest(admP99)
	if last := baseGood[len(baseGood)-1]; last > 0 {
		report.BaselineGoodputCollapse = baseGood[0] / last
	} else {
		report.BaselineGoodputCollapse = float64(overloadMaxRequests) // total collapse: zero goodput at 10×
	}

	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("overload bench: capacity %.1f q/s, admission goodput ratio %.2f, p99 ratio %.2f, baseline collapse %.1f× → %s\n",
		capacity, report.AdmissionGoodputRatio, report.AdmissionP99Ratio, report.BaselineGoodputCollapse, path)
	return nil
}

// overloadRequest posts one question with the standard client budget.
func overloadRequest(s *server.Server, q string) *httptest.ResponseRecorder {
	body := fmt.Sprintf(`{"question": %q}`, q)
	req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body))
	req.RemoteAddr = "192.0.2.1:4242"
	req.Header.Set("X-Deadline-Ms", fmt.Sprint(overloadDeadlineMs))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

// overloadRun fires an open-loop arrival process at multiplier×capacity
// for overloadRunSeconds (bounded by overloadMaxRequests) and tallies the
// outcome. Open loop is the point: real clients do not slow down because
// the server is struggling, so neither does the generator — and latency
// is measured from each request's *scheduled* arrival, not from whenever
// the starved dispatcher actually got to spawn it, so queueing anywhere
// (the Go scheduler included) counts against the server, never hides
// behind it (the coordinated-omission correction).
func overloadRun(s *server.Server, questions []string, mode string, multiplier, capacity float64) OverloadRun {
	rate := multiplier * capacity
	n := int(rate * overloadRunSeconds)
	if n > overloadMaxRequests {
		n = overloadMaxRequests
	}
	if n < 1 {
		n = 1
	}

	type outcome struct {
		code    int
		latency time.Duration // from scheduled arrival (e2e, CO-corrected)
		service time.Duration // from ServeHTTP entry (what admission governs)
	}
	outcomes := make([]outcome, n)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		at := time.Duration(float64(i) / rate * float64(time.Second))
		if d := at - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int, scheduled time.Time) {
			defer wg.Done()
			t0 := time.Now()
			rec := overloadRequest(s, questions[i%len(questions)])
			service := time.Since(t0)
			outcomes[i] = outcome{code: rec.Code, latency: time.Since(scheduled), service: service}
		}(i, start.Add(at))
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	run := OverloadRun{Mode: mode, Multiplier: multiplier, OfferedQPS: rate, Requests: n}
	var okService, okE2E []float64
	deadline := overloadDeadlineMs * time.Millisecond
	for _, o := range outcomes {
		switch o.code {
		case http.StatusOK:
			okService = append(okService, float64(o.service)/float64(time.Millisecond))
			okE2E = append(okE2E, float64(o.latency)/float64(time.Millisecond))
			if o.latency <= deadline {
				run.OK++
			} else {
				// The server said 200, but past the client's budget: by the
				// time the answer existed, nobody was listening. Not goodput.
				run.LateOK++
			}
		case http.StatusServiceUnavailable, http.StatusTooManyRequests:
			run.Shed++
		case http.StatusGatewayTimeout:
			run.Timeout++
		default:
			run.OtherErr++
		}
	}
	run.GoodputQPS = float64(run.OK) / elapsed
	run.AdmittedP50ms = percentile(okService, 0.50)
	run.AdmittedP99ms = percentile(okService, 0.99)
	run.E2EP99ms = percentile(okE2E, 0.99)
	return run
}

// worstBest returns max/min of xs (0 when degenerate) — the "flat within
// k×" acceptance ratio.
func worstBest(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	min, max := xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	if min <= 0 {
		return 0
	}
	return max / min
}
