// Package shard turns the single-process NLIDB gateway into a
// fault-tolerant sharded fleet that interprets each question once. Rows
// are hash-partitioned across N shards (children co-located with their
// foreign-key parents so FK joins stay shard-local) and each shard is
// served by R replicas. A replica is an executor and nothing else: a
// chain-less resilient.Gateway over its partition in process, or a
// cmd/nlidb -join child behind POST /internal/query. A Cluster
// coordinates:
//
//   - the one interpreter front — fallback chain, per-engine breakers,
//     simplified retry, answer cache, singleflight, batch pool, trace root
//     and slow log — is a resilient.Gateway built over the FULL database's
//     vocabulary (resilient.NewOver), the same code a bare gateway runs;
//     the Cluster is the Executor it hands each interpretation's SQL to;
//   - that SQL is bound against the full schema, then classified:
//     single-shard queries are pruned to their owner shard, cross-shard
//     queries scatter-gather with partial aggregation pushed down, and
//     queries the coordinator cannot merge correctly fail with
//     ErrNotDistributable — never silently wrong;
//   - routing verdicts and infrastructure failures (ErrNotDistributable,
//     ErrShardDown, a dead deadline) go back to the front as
//     resilient.Refusal: terminal, typed, and charged to no engine;
//   - per-replica health (circuit breaker + EWMA latency + in-flight
//     load) drives load-aware routing, slow calls hedge to a second
//     replica after a latency-percentile delay, and failed shards degrade
//     scatter-gather answers to Partial with the missing shards named.
//
// The survey's north star is NLIDBs serving production traffic; this
// package is the horizontal half of that story — the single-process
// overload work (internal/admission, internal/server) being the vertical
// half.
package shard

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"nlidb/internal/resilient"
)

// Metric family names the cluster publishes (the nlidb_shard_* namespace).
const (
	// MetricRequests counts replica calls by shard and outcome.
	MetricRequests = "nlidb_shard_requests_total"
	// MetricReplicaSeconds is the per-shard replica call latency histogram.
	MetricReplicaSeconds = "nlidb_shard_replica_seconds"
	// MetricReplicaState gauges each replica's breaker (0 closed, 1 open,
	// 2 half-open), labeled by shard and replica index.
	MetricReplicaState = "nlidb_shard_replica_state"
	// MetricHedges counts hedged (second-replica) launches by shard.
	MetricHedges = "nlidb_shard_hedges_total"
	// MetricHedgeWins counts hedges that answered first, by shard.
	MetricHedgeWins = "nlidb_shard_hedge_wins_total"
	// MetricRetries counts per-shard retry attempts after a failed call.
	MetricRetries = "nlidb_shard_retries_total"
	// MetricRoutes counts routed statements by route: "home" (no
	// partitioned table involved, or a single-shard cluster: run whole on
	// one rendezvous-chosen shard), "pruned" (sent to the one owner
	// shard), "scatter" (fanned out to all shards).
	MetricRoutes = "nlidb_shard_routes_total"
	// MetricPartial counts scatter-gather answers returned Partial.
	MetricPartial = "nlidb_shard_partial_total"
	// MetricShardDown counts scatter legs abandoned because a shard had no
	// healthy replica (after retries), by shard.
	MetricShardDown = "nlidb_shard_down_total"
)

// ErrNodeDown is returned by a killed ChaosNode: the in-process stand-in
// for a crashed replica process.
var ErrNodeDown = errors.New("shard: node down")

// ErrShardDown marks a shard with no replica able to answer — every
// replica failed or has an open breaker. The concrete error is a
// *ShardDownError naming the shard.
var ErrShardDown = errors.New("shard: no healthy replica")

// ErrNotDistributable marks a query the coordinator refuses to run across
// shards because it cannot guarantee a correct merge (sub-queries,
// HAVING, DISTINCT aggregates, non-co-located joins, ...). The concrete
// error is a *NotDistributableError carrying the reason. Callers on a
// single-shard cluster never see it; on a multi-shard cluster it is the
// honest alternative to a silently wrong answer.
var ErrNotDistributable = errors.New("shard: query not distributable")

// ShardDownError reports which shard was unreachable and why.
type ShardDownError struct {
	// Shard is the unreachable shard's index.
	Shard int
	// Err is the last per-replica failure (nil when every replica was
	// skipped by an open breaker).
	Err error
}

func (e *ShardDownError) Error() string {
	if e.Err == nil {
		return fmt.Sprintf("shard %d: no healthy replica", e.Shard)
	}
	return fmt.Sprintf("shard %d: no healthy replica (last: %v)", e.Shard, e.Err)
}

// Unwrap lets errors.Is(err, ErrShardDown) match.
func (e *ShardDownError) Unwrap() error { return ErrShardDown }

// NotDistributableError explains why a statement cannot be scattered.
type NotDistributableError struct {
	// Reason is the human-readable refusal.
	Reason string
}

func (e *NotDistributableError) Error() string {
	return "shard: query not distributable: " + e.Reason
}

// Unwrap lets errors.Is(err, ErrNotDistributable) match.
func (e *NotDistributableError) Unwrap() error { return ErrNotDistributable }

// Node is one replica endpoint: trusted SQL in, typed rows out, over the
// node's partition. In process it is a chain-less *resilient.Gateway, out
// of process a RemoteNode; tests interpose ChaosNode to simulate crashes
// and slowness.
type Node = resilient.Executor

// ChaosNode wraps a Node with a kill switch and an optional artificial
// delay, standing in for a crashed or degraded replica process. The
// chaos harness and the shard bench flip replicas down and back up with
// it; Kill/Restore/SetDelay are safe to call while requests are in
// flight.
type ChaosNode struct {
	// Inner is the wrapped replica.
	Inner Node

	down  atomic.Bool
	delay atomic.Int64 // nanoseconds added before every call
}

// Kill makes every subsequent call fail immediately with ErrNodeDown.
func (c *ChaosNode) Kill() { c.down.Store(true) }

// Restore brings the node back.
func (c *ChaosNode) Restore() { c.down.Store(false) }

// Down reports whether the node is currently killed.
func (c *ChaosNode) Down() bool { return c.down.Load() }

// SetDelay adds d of artificial latency before every call (0 clears it).
// The delay respects the call's context.
func (c *ChaosNode) SetDelay(d time.Duration) { c.delay.Store(int64(d)) }

func (c *ChaosNode) gate(ctx context.Context) error {
	if c.down.Load() {
		return ErrNodeDown
	}
	if d := time.Duration(c.delay.Load()); d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
		}
		if c.down.Load() { // killed mid-delay
			return ErrNodeDown
		}
	}
	return nil
}

// AskSQL implements Node.
func (c *ChaosNode) AskSQL(ctx context.Context, sql string) (*resilient.Answer, error) {
	if err := c.gate(ctx); err != nil {
		return nil, err
	}
	return c.Inner.AskSQL(ctx, sql)
}
