package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"nlidb/internal/nlq"
	"nlidb/internal/obs"
	"nlidb/internal/procnode"
	"nlidb/internal/resilient"
	"nlidb/internal/shard"
	"nlidb/internal/sqldata"
)

// parseJoin decodes the -join flag ("SHARD@EPOCH") a supervisor passes
// to its children. Empty means "not a shard node" (index 0, epoch 0 —
// epoch 0 disables the fencing).
func parseJoin(v string) (int, int64, error) {
	if v == "" {
		return 0, 0, nil
	}
	s, e, ok := strings.Cut(v, "@")
	if !ok {
		return 0, 0, fmt.Errorf("-join %q: want SHARD@EPOCH", v)
	}
	idx, err := strconv.Atoi(s)
	if err != nil || idx < 0 {
		return 0, 0, fmt.Errorf("-join %q: bad shard index", v)
	}
	epoch, err := strconv.ParseInt(e, 10, 64)
	if err != nil || epoch <= 0 {
		return 0, 0, fmt.Errorf("-join %q: bad epoch", v)
	}
	return idx, epoch, nil
}

// remoteClusterConfig carries the flag values the remote coordinator
// path needs from main.
type remoteClusterConfig struct {
	chain         []nlq.Interpreter
	timeout       time.Duration
	cacheSize     int
	cacheTTL      time.Duration
	planCacheSize int
	jitter        time.Duration
	seed          int64
	workers       int
	metrics       *obs.Registry
	slow          *obs.SlowLog
	traces        *obs.TraceStore
}

// remoteCluster builds the out-of-process coordinator for -remote-shards:
// either self-supervising ("spawn:N" launches N×replicas children of this
// very binary, each loading its partition over the CSV path) or routing
// to an explicit endpoint list ("a,b;c,d": ';' between shards, ','
// between replicas). Either way the coordinator interprets — cc.chain is
// built over the full database — and the nodes execute the SQL they are
// sent. The returned supervisor is nil for explicit fleets.
func remoteCluster(db *sqldata.Database, spec string, replicas int, cc remoteClusterConfig) (*shard.Cluster, *shard.MapSource, *procnode.Supervisor, error) {
	var (
		fleet  shard.RemoteFleet
		mapSrc *shard.MapSource
		sup    *procnode.Supervisor
	)
	if nStr, ok := strings.CutPrefix(spec, "spawn:"); ok {
		n, err := strconv.Atoi(nStr)
		if err != nil || n < 1 {
			return nil, nil, nil, fmt.Errorf("-remote-shards %q: want spawn:N with N >= 1", spec)
		}
		bin, err := os.Executable()
		if err != nil {
			return nil, nil, nil, fmt.Errorf("-remote-shards: %w", err)
		}
		sup, err = procnode.Start(db, procnode.Config{
			Binary:   bin,
			Shards:   n,
			Replicas: replicas,
			Stderr:   os.Stderr,
			Seed:     cc.seed,
			OnEvent:  func(s string) { fmt.Println("supervisor:", s) },
		})
		if err != nil {
			return nil, nil, nil, err
		}
		fleet = shard.RemoteFleet{Epoch: sup.Map().Epoch, Addrs: sup.AddrFuncs()}
		mapSrc = shard.NewMapSource(sup.Map)
	} else {
		addrs, err := parseRemoteAddrs(spec)
		if err != nil {
			return nil, nil, nil, err
		}
		fns := make([][]func() string, len(addrs))
		for s := range addrs {
			fns[s] = make([]func() string, len(addrs[s]))
			for r := range addrs[s] {
				a := addrs[s][r]
				fns[s][r] = func() string { return a }
			}
		}
		// Explicit fleets carry no epoch: nodes not started with -join
		// have no shard map version to fence against.
		fleet = shard.RemoteFleet{Addrs: fns}
		mapSrc = shard.NewMapSource(func() shard.Map { return shard.Map{Shards: addrs} })
	}
	cl, err := shard.NewRemote(db, shard.Config{
		Chain:         cc.chain,
		Timeout:       cc.timeout,
		CacheSize:     disabledIfZero(cc.cacheSize),
		CacheTTL:      cc.cacheTTL,
		PlanCacheSize: disabledIfZero(cc.planCacheSize),
		Gateway:       resilient.Config{BreakerJitter: cc.jitter},
		Metrics:       cc.metrics,
		SlowLog:       cc.slow,
		Traces:        cc.traces,
		Seed:          cc.seed,
		Workers:       cc.workers,
	}, fleet)
	if err != nil {
		if sup != nil {
			sup.Close()
		}
		return nil, nil, nil, err
	}
	return cl, mapSrc, sup, nil
}

// parseRemoteAddrs decodes an explicit endpoint list: shards separated
// by ';', replicas by ','. Endpoints without a scheme get "http://".
func parseRemoteAddrs(spec string) ([][]string, error) {
	var out [][]string
	for _, shardSpec := range strings.Split(spec, ";") {
		var reps []string
		for _, a := range strings.Split(shardSpec, ",") {
			a = strings.TrimSpace(a)
			if a == "" {
				continue
			}
			if !strings.Contains(a, "://") {
				a = "http://" + a
			}
			reps = append(reps, strings.TrimRight(a, "/"))
		}
		if len(reps) == 0 {
			return nil, fmt.Errorf("-remote-shards %q: empty shard entry", spec)
		}
		out = append(out, reps)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-remote-shards %q: no shards", spec)
	}
	return out, nil
}
