package shard

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// ReplicaStatus is one replica's live health as routing sees it.
type ReplicaStatus struct {
	Replica int `json:"replica"`
	// State is the breaker state: "closed", "open", or "half-open".
	State string `json:"state"`
	// EWMAMicros is the smoothed call latency in microseconds (0 before
	// the first sample).
	EWMAMicros int64 `json:"ewma_micros"`
	// Inflight is the number of calls on the wire right now.
	Inflight int64 `json:"inflight"`
}

// ShardStatus is one shard's rollup: request totals, hedge economics,
// latency percentiles from the reservoir that drives hedge delays, and
// every replica's health. The counts and percentiles are the registry
// series /metrics exports.
type ShardStatus struct {
	Shard     int   `json:"shard"`
	Requests  int64 `json:"requests"`
	Hedges    int64 `json:"hedges"`
	HedgeWins int64 `json:"hedge_wins"`
	Retries   int64 `json:"retries"`
	// DownLegs counts legs that exhausted every replica and retry.
	DownLegs int64 `json:"down_legs"`
	// P50MS / P99MS are replica-call latency percentiles in milliseconds
	// (0 until the shard has samples).
	P50MS float64 `json:"p50_ms"`
	P99MS float64 `json:"p99_ms"`
	// QPS is the request rate since the previous /fleet scrape (0 on the
	// first scrape; only set by the HTTP handler, not FleetStatus).
	QPS      float64         `json:"qps"`
	Replicas []ReplicaStatus `json:"replicas"`
}

// FleetStatus is the whole cluster's health at a glance — the JSON body
// of the /fleet endpoint.
type FleetStatus struct {
	Shards           int              `json:"shards"`
	ReplicasPerShard int              `json:"replicas_per_shard"`
	Routes           map[string]int64 `json:"routes"`
	// Partials counts scatter answers returned degraded; PartialRate is
	// Partials over scatter-routed questions.
	Partials    int64         `json:"partials"`
	PartialRate float64       `json:"partial_rate"`
	PerShard    []ShardStatus `json:"per_shard"`
}

// FleetStatus snapshots the cluster's counters and replica health. It
// reads the registry series /metrics exports, so clusters sharing one
// registry report the same counts.
func (c *Cluster) FleetStatus() FleetStatus {
	fs := FleetStatus{
		Shards:           c.n,
		ReplicasPerShard: c.cfg.Replicas,
		Routes:           make(map[string]int64, len(routeNames)),
		Partials:         c.partials.Value(),
	}
	for kind, route := range routeNames {
		fs.Routes[route] = c.routes[kind].Value()
	}
	if sc := fs.Routes["scatter"]; sc > 0 {
		fs.PartialRate = float64(fs.Partials) / float64(sc)
	}
	for s := 0; s < c.n; s++ {
		st := &c.stats[s]
		sh := ShardStatus{
			Shard:     s,
			Hedges:    st.hedges.Value(),
			HedgeWins: st.hedgeWins.Value(),
			Retries:   st.retries.Value(),
			DownLegs:  st.downLegs.Load(),
		}
		for _, n := range st.requests {
			sh.Requests += n.Value()
		}
		if h := st.seconds; h.Count() > 0 {
			sh.P50MS = h.Quantile(0.50) * 1e3
			sh.P99MS = h.Quantile(0.99) * 1e3
		}
		for r, rep := range c.reps[s] {
			sh.Replicas = append(sh.Replicas, ReplicaStatus{
				Replica:    r,
				State:      rep.br.State(),
				EWMAMicros: rep.ewmaMicros.Load(),
				Inflight:   rep.inflight.Load(),
			})
		}
		fs.PerShard = append(fs.PerShard, sh)
	}
	return fs
}

// FleetHandler serves FleetStatus as JSON at /fleet. Per-shard QPS is the
// request-count delta over wall time since the handler's previous scrape,
// so the fleet view carries its own rate without any per-request cost.
func (c *Cluster) FleetHandler() http.Handler {
	var mu sync.Mutex
	var lastAt time.Time
	lastReq := make([]int64, c.n)
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		fs := c.FleetStatus()
		mu.Lock()
		now := time.Now()
		if dt := now.Sub(lastAt).Seconds(); !lastAt.IsZero() && dt > 0 {
			for i := range fs.PerShard {
				fs.PerShard[i].QPS = float64(fs.PerShard[i].Requests-lastReq[i]) / dt
			}
		}
		for i := range fs.PerShard {
			lastReq[i] = fs.PerShard[i].Requests
		}
		lastAt = now
		mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(fs)
	})
}

// WriteProm appends the scrape-time fleet rollups in Prometheus text
// format — families computed from live replica state rather than
// accumulated in the registry, wired onto /metrics via obs.WithProm.
// Registry-backed nlidb_shard_* families (requests, latency histograms,
// breaker-state gauges, hedge, hedge-win and retry counters) are NOT
// repeated here.
func (c *Cluster) WriteProm(w io.Writer) {
	fmt.Fprintf(w, "# TYPE nlidb_shard_replica_ewma_micros gauge\n# TYPE nlidb_shard_replica_inflight gauge\n")
	for s := 0; s < c.n; s++ {
		for r, rep := range c.reps[s] {
			fmt.Fprintf(w, "nlidb_shard_replica_ewma_micros{shard=\"%d\",replica=\"%d\"} %d\n", s, r, rep.ewmaMicros.Load())
			fmt.Fprintf(w, "nlidb_shard_replica_inflight{shard=\"%d\",replica=\"%d\"} %d\n", s, r, rep.inflight.Load())
		}
	}
	fmt.Fprintf(w, "# TYPE nlidb_shard_latency_ms gauge\n")
	for s := 0; s < c.n; s++ {
		if h := c.stats[s].seconds; h.Count() > 0 {
			fmt.Fprintf(w, "nlidb_shard_latency_ms{shard=\"%d\",quantile=\"0.5\"} %g\n", s, h.Quantile(0.50)*1e3)
			fmt.Fprintf(w, "nlidb_shard_latency_ms{shard=\"%d\",quantile=\"0.99\"} %g\n", s, h.Quantile(0.99)*1e3)
		}
	}
	partials, scatters := c.partials.Value(), c.routes[routeScatter].Value()
	rate := 0.0
	if scatters > 0 {
		rate = float64(partials) / float64(scatters)
	}
	fmt.Fprintf(w, "# TYPE nlidb_shard_partial_rate gauge\nnlidb_shard_partial_rate %g\n", rate)
}
