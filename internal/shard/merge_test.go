package shard

import (
	"context"
	"testing"

	"nlidb/internal/nlq"
	"nlidb/internal/resilient"
	"nlidb/internal/sqldata"
)

// TestMergedSumPromotesOverflow: six INT values of 5·2^59 over three
// shards. Every shard's SUM partial fits int64, but their total does not,
// so the unsharded executor promotes it to FLOAT. The coordinator's merge
// must do the same instead of wrapping to a negative INT.
func TestMergedSumPromotesOverflow(t *testing.T) {
	db := sqldata.NewDatabase("big")
	tab, err := db.CreateTable(&sqldata.Schema{Name: "t", Columns: []sqldata.Column{
		{Name: "id", Type: sqldata.TypeInt, PrimaryKey: true},
		{Name: "v", Type: sqldata.TypeInt},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 6; i++ {
		tab.MustInsert(sqldata.NewInt(int64(i)), sqldata.NewInt(5<<59))
	}
	single := resilient.New(db, []nlq.Interpreter{sqlInterp{}}, resilient.Config{NoRetry: true})
	cl := testCluster(t, db, 3, Config{Replicas: 1, CacheSize: -1})
	for s, n := range cl.Partitioning().RowsPerShard {
		if n > 3 {
			t.Fatalf("shard %d holds %d rows: its own partial SUM would overflow, and the probe needs every partial to fit", s, n)
		}
	}

	ctx := context.Background()
	for _, sql := range []string{
		"SELECT SUM(v) FROM t",
		"SELECT SUM(v), COUNT(*) FROM t",
	} {
		want, err := single.Ask(ctx, sql)
		if err != nil {
			t.Fatalf("unsharded %q: %v", sql, err)
		}
		if want.Result.Rows[0][0].T != sqldata.TypeFloat {
			t.Fatalf("unsharded %q: SUM is %s, want the overflow promoted to FLOAT", sql, want.Result.Rows[0][0].T)
		}
		got, err := cl.Ask(ctx, sql)
		if err != nil {
			t.Fatalf("sharded %q: %v", sql, err)
		}
		if !got.Result.EqualOrdered(want.Result) {
			t.Errorf("%q:\nsharded:\n%s\nunsharded:\n%s", sql, got.Result, want.Result)
		}
	}
}

// TestMergeStatementShapes: the clauses the merge statement carries over
// from the original — ORDER BY on an aggregate or an alias, DISTINCT with
// LIMIT, a star projection, no partial rows at all — give the unsharded
// rows in the unsharded order.
func TestMergeStatementShapes(t *testing.T) {
	db := fleetDB(t)
	single := resilient.New(db, []nlq.Interpreter{sqlInterp{}}, resilient.Config{NoRetry: true})
	cl := testCluster(t, db, 3, Config{Replicas: 1, CacheSize: -1})
	ctx := context.Background()
	for _, sql := range []string{
		"SELECT city, AVG(credit) FROM customers GROUP BY city ORDER BY AVG(credit) DESC, city LIMIT 3",
		"SELECT city AS c, COUNT(*) AS n FROM customers GROUP BY city ORDER BY n, c",
		"SELECT DISTINCT city FROM customers ORDER BY city DESC LIMIT 2",
		"SELECT * FROM customers ORDER BY name LIMIT 4",
		"SELECT name FROM customers WHERE city = 'Nowhere' ORDER BY name",
		"SELECT city, SUM(credit) FROM customers WHERE city = 'Nowhere' GROUP BY city",
	} {
		want, err := single.Ask(ctx, sql)
		if err != nil {
			t.Fatalf("unsharded %q: %v", sql, err)
		}
		scatters := cl.routes[routeScatter].Value()
		got, err := cl.Ask(ctx, sql)
		if err != nil {
			t.Fatalf("sharded %q: %v", sql, err)
		}
		if cl.routes[routeScatter].Value() != scatters+1 {
			t.Fatalf("%q: not scattered", sql)
		}
		if !got.Result.EqualOrdered(want.Result) {
			t.Errorf("%q:\nsharded:\n%s\nunsharded:\n%s", sql, got.Result, want.Result)
		}
	}
}
