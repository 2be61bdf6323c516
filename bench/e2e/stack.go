package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"time"

	"nlidb/internal/admission"
	"nlidb/internal/lexicon"
	"nlidb/internal/nlq"
	"nlidb/internal/obs"
	"nlidb/internal/qcache"
	"nlidb/internal/resilient"
	"nlidb/internal/server"
	"nlidb/internal/shard"
	"nlidb/internal/sqldata"
)

// This file is the only place that wires the system under test. It uses
// the constructors and the defaults `cmd/nlidb -serve` uses, on a database
// built in-process so the schema keeps its foreign keys and synonyms
// (`cmd/nlidb -csv` drops both). The serving defaults live here once:
const (
	answerCacheEntries = 1024
	planCacheEntries   = 256
	askTimeout         = 5 * time.Second
	slowLogThreshold   = 250 * time.Millisecond
	traceSampleRate    = 0.01
	traceRetainSpans   = 16384
	shardCount         = 2
	shardReplicas      = 1
	// The stack is constructed at least minSetupRuns times and for at least
	// minSetupTime, at most maxSetupRuns times; setup_s is the median. A
	// construction takes 7 ms on sales2k, and seven of those would time the
	// process's page faults more than the constructors.
	minSetupRuns = 7
	maxSetupRuns = 51
	minSetupTime = time.Second
)

// buildChain is the default fallback chain over db.
func buildChain(db *sqldata.Database) ([]nlq.Interpreter, error) {
	return resilient.ChainByNames(db, lexicon.New(), resilient.DefaultChainNames)
}

// buildStack constructs the serving stack for one topology over db and
// returns the handler `cmd/nlidb -serve` would listen with.
func buildStack(db *sqldata.Database, topology string, seed int64) (http.Handler, error) {
	chain, err := buildChain(db)
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	slow := obs.NewSlowLog(slowLogThreshold, 128)
	jitter := resilient.DefaultBreakerJitter(0)
	traces := obs.NewTraceStore(obs.TraceStoreConfig{
		SlowThreshold: slowLogThreshold,
		SampleRate:    traceSampleRate,
		MaxSpans:      traceRetainSpans,
	})
	slo := obs.NewSLO(obs.SLOConfig{})
	obsOpts := []obs.HandlerOption{
		obs.WithPage("/slo", slo.Handler()),
		obs.WithPage("/trace", traces.Handler()),
		obs.WithProm(slo.WriteProm),
	}

	var backend server.Backend
	switch topology {
	case "gateway":
		backend = resilient.New(db, chain, resilient.Config{
			Timeout: askTimeout, Metrics: reg, SlowLog: slow, Traces: traces,
			Cache:         qcache.New(qcache.Config{MaxEntries: answerCacheEntries, Metrics: reg}),
			PlanCache:     qcache.New(qcache.Config{MaxEntries: planCacheEntries}),
			BreakerJitter: jitter,
		})
	case "shard2":
		cl, err := shard.New(db, shardCount, shard.Config{
			Replicas:      shardReplicas,
			Chain:         chain,
			Gateway:       resilient.Config{BreakerJitter: jitter},
			Timeout:       askTimeout,
			CacheSize:     answerCacheEntries,
			PlanCacheSize: planCacheEntries,
			Metrics:       reg,
			SlowLog:       slow,
			Traces:        traces,
			Seed:          seed,
		})
		if err != nil {
			return nil, err
		}
		backend = cl
		obsOpts = append(obsOpts, obs.WithPage("/fleet", cl.FleetHandler()), obs.WithProm(cl.WriteProm))
	default:
		return nil, fmt.Errorf("unknown topology %q", topology)
	}

	api := server.New(server.Config{
		Backend:   backend,
		Admission: admission.New(admission.Config{Metrics: reg}),
		Metrics:   reg,
		SLO:       slo,
	})
	return server.Mux(api, reg, slow, obsOpts...), nil
}

// childHello is the one line the serving child prints once it listens.
type childHello struct {
	Addr string `json:"addr"`
	// SetupS holds the wall time of each stack construction, data
	// generation excluded.
	SetupS []float64 `json:"setup_s"`
}

// serveChild is the `-serve` role: build the dataset, construct the stack
// repeatedly, serve the last construction on a loopback port, print the
// address, and exit when standard input closes. A smoke run constructs the
// stack minSetupRuns times and no more. The child never learns a
// workload name; everything it serves arrives over HTTP.
func serveChild(dataset, topology string, seed int64, smoke bool) error {
	d, err := buildDataset(dataset, seed)
	if err != nil {
		return err
	}
	hello := childHello{}
	var handler http.Handler
	began := time.Now()
	for i := 0; i < maxSetupRuns && (i < minSetupRuns || time.Since(began) < minSetupTime && !smoke); i++ {
		handler = nil
		runtime.GC() // each construction starts from the same heap
		t0 := time.Now()
		if handler, err = buildStack(d.DB, topology, seed); err != nil {
			return err
		}
		hello.SetupS = append(hello.SetupS, time.Since(t0).Seconds())
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hello.Addr = ln.Addr().String()
	srv := &http.Server{Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	if err := json.NewEncoder(os.Stdout).Encode(hello); err != nil {
		return err
	}
	stdinClosed := make(chan struct{})
	go func() {
		_, _ = io.Copy(io.Discard, os.Stdin) // returns at EOF or on a read error; either means the parent is gone
		close(stdinClosed)
	}()
	select {
	case err := <-errc:
		return err
	case <-stdinClosed:
		return srv.Close()
	}
}
