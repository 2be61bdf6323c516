package shard

import (
	"context"
	"testing"

	"nlidb/internal/nlq"
	"nlidb/internal/resilient"
)

// TestAskSQLMatchesUnsharded pins the coordinator's trusted-SQL entry
// point (the one conversational sessions execute through): for every
// routable shape — home-routed point lookups, pruned scans, scatter
// aggregates — AskSQL must return exactly what the unsharded engine does.
func TestAskSQLMatchesUnsharded(t *testing.T) {
	db := fleetDB(t)
	single := resilient.New(db, []nlq.Interpreter{sqlInterp{}}, resilient.Config{NoRetry: true})
	cl := testCluster(t, db, 3, Config{Replicas: 2, Seed: 7})

	ctx := context.Background()
	for _, sql := range []string{
		"SELECT * FROM customers WHERE id = 7",             // pruned to one shard
		"SELECT name FROM customers WHERE city = 'Berlin'", // scatter scan
		"SELECT COUNT(*) FROM customers",                   // scatter aggregate
		"SELECT city, COUNT(*), AVG(credit) FROM customers GROUP BY city",
		"SELECT name FROM customers ORDER BY name LIMIT 5",
	} {
		want, err := single.AskSQL(ctx, sql)
		if err != nil {
			t.Fatalf("unsharded %q: %v", sql, err)
		}
		got, err := cl.AskSQL(ctx, sql)
		if err != nil {
			t.Fatalf("sharded %q: %v", sql, err)
		}
		if got.Engine != resilient.SQLEngine {
			t.Errorf("%q: engine %q, want %q", sql, got.Engine, resilient.SQLEngine)
		}
		if got.Partial {
			t.Errorf("%q: Partial with every shard healthy", sql)
		}
		if !got.Result.EqualUnordered(want.Result) {
			t.Errorf("%q:\nsharded:\n%s\nunsharded:\n%s", sql, got.Result, want.Result)
		}
	}
}

// TestAskSQLRejectsBadSQL: the statement arrives pre-resolved, so a parse
// failure is an input error, not a fallback opportunity.
func TestAskSQLRejectsBadSQL(t *testing.T) {
	db := fleetDB(t)
	cl := testCluster(t, db, 3, Config{Replicas: 1})
	if _, err := cl.AskSQL(context.Background(), "SELEC nonsense"); err == nil {
		t.Fatal("AskSQL accepted unparseable SQL")
	}
}

// TestAskSQLSurvivesReplicaLoss: with one replica of every shard killed,
// trusted-SQL statements fail over to survivors exactly like NL questions.
func TestAskSQLSurvivesReplicaLoss(t *testing.T) {
	cl, nodes, _ := chaosCluster(t, 0xA5C)
	for s := range nodes {
		nodes[s][0].Kill()
	}
	ans, err := cl.AskSQL(context.Background(), "SELECT COUNT(*) FROM customers")
	if err != nil {
		t.Fatalf("AskSQL with one replica down per shard: %v", err)
	}
	if ans.Partial {
		t.Fatal("answer partial despite healthy survivors")
	}
	if got := ans.Result.Rows[0][0].Int(); got != 40 {
		t.Fatalf("count %d, want 40", got)
	}
}
