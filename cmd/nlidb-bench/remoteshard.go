package main

// The remote-shard benchmark prices the move from in-process shard nodes
// to real child processes speaking the HTTP protocol. The scaling sweep
// runs one closed-loop workload twice per cluster width — against the
// in-process cluster and against a supervisor-launched fleet of real
// cmd/nlidb children — so the socket+wire tax is measured, not guessed.
// The chaos timelines then SIGKILL actual processes (one replica, then a
// whole shard) under load and bucket goodput over time: answers must
// stay correct-or-honest through the kill window, and completeness must
// return after the supervisor restores the children.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"nlidb/internal/benchdata"
	"nlidb/internal/lexicon"
	"nlidb/internal/procnode"
	"nlidb/internal/resilient"
	"nlidb/internal/shard"
)

const (
	// remoteShardRequests per (mode, cluster width) scaling cell.
	remoteShardRequests = 200
	remoteShardWorkers  = 8
	// Each chaos timeline runs 5s: SIGKILL at 1.5s, restore at 2.5s —
	// the restore window is wide because the child must re-import its
	// CSV partition and pass /healthz before it takes traffic again.
	remoteChaosRunMs     = 5000
	remoteChaosKillMs    = 1500
	remoteChaosRestoreMs = 2500
	remoteChaosBucketMs  = 100
)

// RemoteScalingRun is one (mode, width) cell of the scaling comparison.
type RemoteScalingRun struct {
	Mode      string  `json:"mode"` // "in_process" or "out_of_process"
	Shards    int     `json:"shards"`
	Replicas  int     `json:"replicas"`
	Requests  int     `json:"requests"`
	Questions int     `json:"questions"`
	QPS       float64 `json:"qps"`
	P50ms     float64 `json:"p50_ms"`
	P99ms     float64 `json:"p99_ms"`
}

// RemoteChaosRun is one real-process kill/restore timeline.
type RemoteChaosRun struct {
	Scenario  string `json:"scenario"` // "replica_sigkill" or "shard_sigkill"
	Shards    int    `json:"shards"`
	Replicas  int    `json:"replicas"`
	KillMs    int    `json:"kill_ms"`
	RestoreMs int    `json:"restore_ms"`

	Timeline []ShardBucket `json:"timeline"`

	TotalOK      int `json:"total_ok"`
	TotalPartial int `json:"total_partial"`
	TotalFailed  int `json:"total_failed"`
	// RecoveredMs is the start of the first post-restore bucket with only
	// complete answers (-1 if completeness never returned).
	RecoveredMs int `json:"recovered_ms"`
	// SupervisorEvents counts the supervisor's lifecycle log lines
	// (launches, exits, restarts) — nonzero restarts prove the kills
	// were real processes dying, not flags flipping.
	SupervisorEvents int `json:"supervisor_events"`
}

// RemoteShardReport is BENCH_remote_shard.json.
type RemoteShardReport struct {
	GeneratedBy string `json:"generated_by"`
	Seed        int64  `json:"seed"`
	GOMAXPROCS  int    `json:"gomaxprocs"`

	Scaling []RemoteScalingRun `json:"scaling"`
	Chaos   []RemoteChaosRun   `json:"chaos"`
}

// buildNlidbBinary produces the child binary the supervisor forks.
// NLIDB_BIN overrides (for prebuilt setups); otherwise `go build` from
// the module root, which is where `make bench-remote-shard` runs.
func buildNlidbBinary(dir string) (string, error) {
	if env := os.Getenv("NLIDB_BIN"); env != "" {
		return env, nil
	}
	bin := filepath.Join(dir, "nlidb")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/nlidb")
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("remote-shard bench: building cmd/nlidb (run from the module root, or set NLIDB_BIN): %w", err)
	}
	return bin, nil
}

// benchRemoteFleet wires a coordinator Cluster over a supervisor's
// children with the same knobs as the in-process bench cluster, so the
// two scaling modes differ only in the hop.
func benchRemoteFleet(d *benchdata.Domain, sup *procnode.Supervisor, seed int64) (*shard.Cluster, error) {
	return shard.NewRemote(d.DB, shard.Config{
		Chain:            resilient.DefaultChain(d.DB, lexicon.New()),
		Gateway:          resilient.Config{NoTrace: true, NoRetry: true},
		CacheSize:        -1,
		ReplicaThreshold: 3,
		ReplicaCooldown:  200 * time.Millisecond,
		RetryBackoff:     time.Millisecond,
		Seed:             seed,
	}, shard.RemoteFleet{Epoch: sup.Map().Epoch, Addrs: sup.AddrFuncs()})
}

// startBenchFleet forks shards×replicas real children serving their CSV
// partitions and waits for every /healthz.
func startBenchFleet(d *benchdata.Domain, bin string, shards, replicas int, seed int64, onEvent func(string)) (*procnode.Supervisor, error) {
	return procnode.Start(d.DB, procnode.Config{
		Binary:   bin,
		Shards:   shards,
		Replicas: replicas,
		Seed:     seed,
		OnEvent:  onEvent,
	})
}

// filterRemoteQuestions keeps the questions the fleet serves end to end
// (the ones its coordinator can interpret and distribute).
func filterRemoteQuestions(cl *shard.Cluster, candidates []string) []string {
	var qs []string
	for _, q := range candidates {
		if _, err := cl.Ask(context.Background(), q); err == nil {
			qs = append(qs, q)
		}
	}
	return qs
}

// closedLoop drives the workload through ask with the bench worker pool
// and returns latency percentiles and throughput.
func closedLoop(ask func(context.Context, string) (*resilient.Answer, error), questions []string) (qps, p50, p99 float64, err error) {
	latencies := make([]float64, remoteShardRequests)
	var next atomic.Int64
	var firstErr atomic.Value
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < remoteShardWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= remoteShardRequests {
					return
				}
				t0 := time.Now()
				if _, aerr := ask(context.Background(), questions[i%len(questions)]); aerr != nil {
					firstErr.CompareAndSwap(nil, aerr)
					return
				}
				latencies[i] = float64(time.Since(t0)) / float64(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if e, ok := firstErr.Load().(error); ok {
		return 0, 0, 0, e
	}
	elapsed := time.Since(start).Seconds()
	return float64(remoteShardRequests) / elapsed, percentile(latencies, 0.50), percentile(latencies, 0.99), nil
}

// runRemoteShardBench measures the in-process vs out-of-process scaling
// comparison and the real-process chaos timelines, writing path.
func runRemoteShardBench(path string, seed int64) error {
	d := benchdata.Sales(seed)
	tmp, err := os.MkdirTemp("", "nlidb-remote-bench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	bin, err := buildNlidbBinary(tmp)
	if err != nil {
		return err
	}

	// Candidate questions from an in-process probe; each fleet filters
	// them again against its own partition vocabularies.
	probe, err := shardCluster(d, 2, 1, seed, nil)
	if err != nil {
		return err
	}
	set := benchdata.WikiSQLStyle(d, 60, seed+5)
	var candidates []string
	for _, p := range set.Pairs {
		if _, err := probe.Ask(context.Background(), p.Question); err == nil {
			candidates = append(candidates, p.Question)
		}
		if len(candidates) == 8 {
			break
		}
	}
	if len(candidates) < 2 {
		return fmt.Errorf("remote-shard bench: only %d shardable questions", len(candidates))
	}

	report := RemoteShardReport{
		GeneratedBy: "nlidb-bench -remote-shard",
		Seed:        seed,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
	}

	for _, n := range []int{1, 2, 4} {
		sup, err := startBenchFleet(d, bin, n, 1, seed, nil)
		if err != nil {
			return fmt.Errorf("remote-shard bench: fleet n=%d: %w", n, err)
		}
		rcl, err := benchRemoteFleet(d, sup, seed)
		if err != nil {
			sup.Close()
			return err
		}
		qs := filterRemoteQuestions(rcl, candidates)
		if len(qs) < 2 {
			sup.Close()
			return fmt.Errorf("remote-shard bench: fleet n=%d serves only %d of %d candidate questions", n, len(qs), len(candidates))
		}
		// Same question set through both modes, so the cells compare.
		icl, err := shardCluster(d, n, 1, seed, nil)
		if err != nil {
			sup.Close()
			return err
		}
		for _, mode := range []struct {
			name string
			ask  func(context.Context, string) (*resilient.Answer, error)
		}{{"in_process", icl.Ask}, {"out_of_process", rcl.Ask}} {
			qps, p50, p99, err := closedLoop(mode.ask, qs)
			if err != nil {
				sup.Close()
				return fmt.Errorf("remote-shard bench: scaling n=%d %s: %w", n, mode.name, err)
			}
			report.Scaling = append(report.Scaling, RemoteScalingRun{
				Mode: mode.name, Shards: n, Replicas: 1,
				Requests: remoteShardRequests, Questions: len(qs),
				QPS: qps, P50ms: p50, P99ms: p99,
			})
			fmt.Printf("  scaling %d shard(s) %-14s: %7.1f q/s  p50 %6.2fms  p99 %6.2fms  (%d questions)\n",
				n, mode.name, qps, p50, p99, len(qs))
		}
		sup.Close()
	}

	for _, scenario := range []string{"replica_sigkill", "shard_sigkill"} {
		run, err := remoteChaosTimeline(d, bin, seed, candidates, scenario)
		if err != nil {
			return err
		}
		report.Chaos = append(report.Chaos, run)
		fmt.Printf("  chaos %-15s: ok %5d  partial %4d  failed %4d  recovered at t=%dms (restore at %dms)\n",
			scenario, run.TotalOK, run.TotalPartial, run.TotalFailed, run.RecoveredMs, run.RestoreMs)
	}

	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("remote-shard bench: %d scaling cells, %d chaos timelines → %s\n",
		len(report.Scaling), len(report.Chaos), path)
	return nil
}

// remoteChaosTimeline drives a 2×2 fleet of real processes through one
// SIGKILL/restore schedule and buckets the answers over time.
func remoteChaosTimeline(d *benchdata.Domain, bin string, seed int64, candidates []string, scenario string) (RemoteChaosRun, error) {
	var events atomic.Int64
	sup, err := startBenchFleet(d, bin, 2, 2, seed, func(string) { events.Add(1) })
	if err != nil {
		return RemoteChaosRun{}, fmt.Errorf("remote-shard bench: chaos fleet: %w", err)
	}
	defer sup.Close()
	cl, err := benchRemoteFleet(d, sup, seed)
	if err != nil {
		return RemoteChaosRun{}, err
	}
	qs := filterRemoteQuestions(cl, candidates)
	if len(qs) < 2 {
		return RemoteChaosRun{}, fmt.Errorf("remote-shard bench: chaos fleet serves only %d questions", len(qs))
	}

	kill := func() {
		sup.Proc(0, 0).Kill()
		if scenario == "shard_sigkill" {
			sup.Proc(0, 1).Kill()
		}
	}
	restore := func() {
		// Restore blocks until the child re-imports its partition and
		// passes /healthz; run both in parallel off the timer goroutine.
		var wg sync.WaitGroup
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				_ = sup.Proc(0, r).Restore()
			}(r)
		}
		wg.Wait()
	}

	nBuckets := remoteChaosRunMs / remoteChaosBucketMs
	buckets := make([]ShardBucket, nBuckets)
	for i := range buckets {
		buckets[i].TMs = i * remoteChaosBucketMs
	}
	var mu sync.Mutex
	var next atomic.Int64
	start := time.Now()
	time.AfterFunc(remoteChaosKillMs*time.Millisecond, kill)
	time.AfterFunc(remoteChaosRestoreMs*time.Millisecond, restore)

	var wg sync.WaitGroup
	for w := 0; w < remoteShardWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				elapsed := time.Since(start)
				if elapsed >= remoteChaosRunMs*time.Millisecond {
					return
				}
				i := int(next.Add(1)) - 1
				ans, err := cl.Ask(context.Background(), qs[i%len(qs)])
				b := int(time.Since(start) / (remoteChaosBucketMs * time.Millisecond))
				if b >= nBuckets {
					return
				}
				mu.Lock()
				switch {
				case err != nil:
					buckets[b].Failed++
				case ans.Partial:
					buckets[b].Partial++
				default:
					buckets[b].OK++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	run := RemoteChaosRun{
		Scenario:    scenario,
		Shards:      2,
		Replicas:    2,
		KillMs:      remoteChaosKillMs,
		RestoreMs:   remoteChaosRestoreMs,
		Timeline:    buckets,
		RecoveredMs: -1,
	}
	for _, b := range buckets {
		run.TotalOK += b.OK
		run.TotalPartial += b.Partial
		run.TotalFailed += b.Failed
	}
	for _, b := range buckets {
		if b.TMs >= remoteChaosRestoreMs && b.OK > 0 && b.Partial == 0 && b.Failed == 0 {
			run.RecoveredMs = b.TMs
			break
		}
	}
	run.SupervisorEvents = int(events.Load())
	return run, nil
}
