package shard

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"nlidb/internal/nlq"
	"nlidb/internal/resilient"
	"nlidb/internal/sqldata"
	"nlidb/internal/sqlparse"
)

// fixedInterp reads every question as one fixed statement and counts how
// often it was asked to.
type fixedInterp struct {
	name  string
	sql   string
	calls atomic.Int64
}

func (f *fixedInterp) Name() string { return f.name }

func (f *fixedInterp) Interpret(string) ([]nlq.Interpretation, error) {
	f.calls.Add(1)
	return []nlq.Interpretation{{SQL: sqlparse.MustParse(f.sql), Score: 0.9}}, nil
}

// engineTransitions collects every engine-breaker transition of a
// cluster's front; a test that expects none asserts it stays empty.
type engineTransitions struct{ n atomic.Int64 }

func (e *engineTransitions) hook(string, string, string) { e.n.Add(1) }

// TestShardDownIsTerminalAndChargesNoEngine: a question pruned to a shard
// whose replicas are all dead is refused with ErrShardDown — as the
// executor's Refusal, not as an exhausted chain with a failure trail —
// the next engine is never consulted, and however often it happens no
// engine breaker moves: the fleet's health is not the interpreter's.
func TestShardDownIsTerminalAndChargesNoEngine(t *testing.T) {
	db := fleetDB(t)
	second := &fixedInterp{name: "second", sql: "SELECT COUNT(*) FROM customers"}
	var moved engineTransitions
	nodes := make([][]*ChaosNode, 2)
	cl := testCluster(t, db, 2, Config{
		Replicas:     2,
		Chain:        []nlq.Interpreter{sqlInterp{}, second},
		Gateway:      resilient.Config{BreakerHook: moved.hook},
		Retries:      1,
		RetryBackoff: time.Millisecond,
		CacheSize:    -1,
		WrapNode: func(s, r int, n Node) Node {
			cn := &ChaosNode{Inner: n}
			nodes[s] = append(nodes[s], cn)
			return cn
		},
	})
	const dead = 1
	for _, n := range nodes[dead] {
		n.Kill()
	}
	var pruned string
	for id := int64(1); id <= 40 && pruned == ""; id++ {
		if owner, _ := cl.Partitioning().Owner("customers", sqldata.NewInt(id)); owner == dead {
			pruned = fmt.Sprintf("SELECT name FROM customers WHERE id = %d", id)
		}
	}

	ctx := context.Background()
	for i := 0; i < 5; i++ { // past the default engine-breaker threshold of 3
		_, err := cl.Ask(ctx, pruned)
		if !errors.Is(err, ErrShardDown) {
			t.Fatalf("ask %d: err = %v, want ErrShardDown", i, err)
		}
		var refused *resilient.Refusal
		if !errors.As(err, &refused) || refused.Outcome != "shard_down" {
			t.Fatalf("ask %d: err = %#v, want a Refusal with outcome shard_down", i, err)
		}
		var ce *resilient.ChainError
		if errors.As(err, &ce) {
			t.Fatalf("ask %d: refusal carries a failure trail of %d attempts, want none", i, len(ce.Attempts))
		}
	}
	if n := second.calls.Load(); n != 0 {
		t.Fatalf("second engine was consulted %d times after a shard-down refusal", n)
	}
	if n := moved.n.Load(); n != 0 {
		t.Fatalf("%d engine-breaker transitions; infrastructure failures must charge no engine", n)
	}
	// The other shard still answers, through the first engine, with both
	// engine breakers reported closed on the trace root.
	ans, err := cl.Ask(ctx, "SELECT COUNT(*) FROM orders WHERE id < 0")
	if err != nil {
		t.Fatalf("healthy scatter after the refusals: %v", err)
	}
	if got := ans.Trace.Root.Attr("breakers"); got != "sqlecho=closed,second=closed" {
		t.Fatalf("engine breakers = %q, want both closed", got)
	}
}

// TestNotDistributableIsTerminal: when the first engine's reading cannot
// be distributed, the verdict goes to the caller as it is; a later engine
// whose reading could have been answered is not tried in its place.
func TestNotDistributableIsTerminal(t *testing.T) {
	db := fleetDB(t)
	first := &fixedInterp{name: "first", sql: "SELECT COUNT(DISTINCT city) FROM customers"}
	second := &fixedInterp{name: "second", sql: "SELECT COUNT(*) FROM customers"}
	var moved engineTransitions
	cl := testCluster(t, db, 3, Config{
		Chain:     []nlq.Interpreter{first, second},
		Gateway:   resilient.Config{BreakerHook: moved.hook},
		CacheSize: -1,
	})
	for i := 0; i < 5; i++ {
		_, err := cl.Ask(context.Background(), "how many cities")
		if !errors.Is(err, ErrNotDistributable) {
			t.Fatalf("err = %v, want ErrNotDistributable", err)
		}
	}
	if first.calls.Load() != 5 || second.calls.Load() != 0 {
		t.Fatalf("engines consulted %d/%d times, want 5/0", first.calls.Load(), second.calls.Load())
	}
	if n := moved.n.Load(); n != 0 {
		t.Fatalf("%d engine-breaker transitions after routing verdicts", n)
	}
}

// TestStatementFailureFallsThrough: a reading that fails on its own terms
// on the shards — here SUM over a TEXT column, which only the shards that
// hold matching rows even notice — is that engine's failed attempt, as it
// is unsharded: no Partial answer, no replica breaker charged, and the
// next engine answers.
func TestStatementFailureFallsThrough(t *testing.T) {
	db := fleetDB(t)
	first := &fixedInterp{name: "first", sql: "SELECT SUM(name) FROM customers WHERE city = 'Oslo'"}
	second := &fixedInterp{name: "second", sql: "SELECT COUNT(*) FROM customers WHERE city = 'Oslo'"}
	cl := testCluster(t, db, 3, Config{
		Replicas:         2,
		Chain:            []nlq.Interpreter{first, second},
		ReplicaThreshold: 1, // one countable failure would open a replica
		CacheSize:        -1,
	})
	want, err := resilient.New(db, []nlq.Interpreter{first, second}, resilient.Config{}).Ask(context.Background(), "how many in Oslo")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		ans, err := cl.Ask(context.Background(), "how many in Oslo")
		if err != nil {
			t.Fatal(err)
		}
		if ans.Engine != want.Engine || ans.Partial || !ans.Result.EqualUnordered(want.Result) {
			t.Fatalf("answer [%s partial=%v]\n%s\nwant [%s]\n%s", ans.Engine, ans.Partial, ans.Result, want.Engine, want.Result)
		}
		if len(ans.Attempts) != len(want.Attempts) || !errors.Is(ans.Attempts[0].Err, resilient.ErrStatement) {
			t.Fatalf("failure trail %v, want the first engine's statement error as on the gateway (%v)", ans.Attempts, want.Attempts)
		}
	}
	for s, reps := range cl.ReplicaStates() {
		for r, state := range reps {
			if state != "closed" {
				t.Fatalf("replica %d/%d is %s after statement failures, want closed", s, r, state)
			}
		}
	}
}
