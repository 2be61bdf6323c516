// Out-of-process shard tests: real internal/server instances behind
// httptest listeners, driven through RemoteNode and NewRemote. External
// test package — internal/server imports internal/shard, so these tests
// cannot live inside package shard.
package shard_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nlidb/internal/benchdata"
	"nlidb/internal/lexicon"
	"nlidb/internal/nlq"
	"nlidb/internal/resilient"
	"nlidb/internal/server"
	"nlidb/internal/shard"
	"nlidb/internal/sqldata"
	"nlidb/internal/sqlparse"
)

// echoInterp treats the question text as SQL so tests drive routing with
// precise statements (mirrors the in-package sqlInterp).
type echoInterp struct{}

func (echoInterp) Name() string { return "sqlecho" }

func (echoInterp) Interpret(q string) ([]nlq.Interpretation, error) {
	stmt, err := sqlparse.Parse(q)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", nlq.ErrNoInterpretation, err)
	}
	return []nlq.Interpretation{{SQL: stmt, Score: 1}}, nil
}

// echoChain is the coordinator's chain in the routing tests.
var echoChain = []nlq.Interpreter{echoInterp{}}

// remoteDB is the FK dataset the remote tests shard.
func remoteDB(t testing.TB) *sqldata.Database {
	t.Helper()
	db := sqldata.NewDatabase("fleet")
	cust, err := db.CreateTable(&sqldata.Schema{Name: "customers", Columns: []sqldata.Column{
		{Name: "id", Type: sqldata.TypeInt, PrimaryKey: true},
		{Name: "name", Type: sqldata.TypeText},
		{Name: "city", Type: sqldata.TypeText},
		{Name: "credit", Type: sqldata.TypeFloat},
	}})
	if err != nil {
		t.Fatal(err)
	}
	cities := []string{"Berlin", "Munich", "Paris", "Oslo"}
	for i := 0; i < 40; i++ {
		cust.MustInsert(
			sqldata.NewInt(int64(i+1)),
			sqldata.NewText(fmt.Sprintf("cust%02d", i)),
			sqldata.NewText(cities[i%len(cities)]),
			sqldata.NewFloat(float64(i%7)*10.5),
		)
	}
	ord, err := db.CreateTable(&sqldata.Schema{
		Name: "orders",
		Columns: []sqldata.Column{
			{Name: "id", Type: sqldata.TypeInt, PrimaryKey: true},
			{Name: "customer_id", Type: sqldata.TypeInt},
			{Name: "amount", Type: sqldata.TypeInt},
		},
		ForeignKeys: []sqldata.ForeignKey{{Column: "customer_id", RefTable: "customers", RefColumn: "id"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 120; j++ {
		ord.MustInsert(
			sqldata.NewInt(int64(j+1)),
			sqldata.NewInt(int64(j%40)+1),
			sqldata.NewInt(int64((j*13)%97)),
		)
	}
	return db
}

// remoteFleet boots one real internal/server process-equivalent per
// replica (same handler stack a child process serves, minus the OS
// process) and returns the fleet plus per-replica address slots that
// tests can blank to simulate a dead process. Each child is built the way
// cmd/nlidb -join builds itself, from the partition only: the tables are
// written out and loaded back through the CSV-plus-sidecar path, and the
// gateway over them has no interpreter chain.
func remoteFleet(t testing.TB, db *sqldata.Database, shards, replicas int, epoch int64) (shard.RemoteFleet, [][]*atomic.Value) {
	t.Helper()
	dbs, _, err := shard.Split(db, shards)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	addrs := make([][]*atomic.Value, shards)
	fns := make([][]func() string, shards)
	for s := 0; s < shards; s++ {
		child := sqldata.NewDatabase("csv")
		for _, tbl := range dbs[s].Tables() {
			path := filepath.Join(dir, fmt.Sprintf("s%d_%s.csv", s, tbl.Schema.Name))
			if err := sqldata.WriteCSVFile(path, tbl); err != nil {
				t.Fatal(err)
			}
			loaded, err := sqldata.LoadCSVFile(path)
			if err == nil {
				err = child.AddTable(loaded)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		addrs[s] = make([]*atomic.Value, replicas)
		fns[s] = make([]func() string, replicas)
		for r := 0; r < replicas; r++ {
			gw := resilient.New(child, nil, resilient.Config{})
			api := server.New(server.Config{Backend: gw, ShardEpoch: epoch, ShardIndex: s})
			ts := httptest.NewServer(api)
			t.Cleanup(ts.Close)
			slot := &atomic.Value{}
			slot.Store(ts.URL)
			addrs[s][r] = slot
			fns[s][r] = func() string { return slot.Load().(string) }
		}
	}
	return shard.RemoteFleet{Epoch: epoch, Addrs: fns}, addrs
}

// TestRemoteMatchesLocal is the out-of-process correctness contract: a
// cluster whose replicas answer over HTTP returns exactly what the
// unsharded engine returns, typed cells intact, for every distributable
// shape including the partial-aggregate pushdowns.
func TestRemoteMatchesLocal(t *testing.T) {
	db := remoteDB(t)
	single := resilient.New(db, echoChain, resilient.Config{NoRetry: true})
	fleet, _ := remoteFleet(t, db, 3, 2, 1)
	cl, err := shard.NewRemote(db, shard.Config{Chain: echoChain, Seed: 11, CacheSize: -1}, fleet)
	if err != nil {
		t.Fatal(err)
	}

	queries := []struct {
		sql     string
		ordered bool
	}{
		{sql: "SELECT name, city FROM customers"},
		{sql: "SELECT * FROM customers WHERE id = 7"},
		{sql: "SELECT COUNT(*) FROM customers"},
		{sql: "SELECT AVG(credit) FROM customers"},
		{sql: "SELECT SUM(amount), MIN(amount), MAX(amount), COUNT(amount) FROM orders"},
		{sql: "SELECT city, COUNT(*), AVG(credit) FROM customers GROUP BY city"},
		{sql: "SELECT DISTINCT city FROM customers"},
		{sql: "SELECT name FROM customers ORDER BY name LIMIT 5", ordered: true},
		{sql: "SELECT customers.city, SUM(orders.amount) FROM customers JOIN orders ON orders.customer_id = customers.id GROUP BY customers.city"},
		{sql: "SELECT COUNT(*), SUM(credit) FROM customers WHERE city = 'Nowhere'"},
	}
	ctx := context.Background()
	for _, q := range queries {
		want, err := single.Ask(ctx, q.sql)
		if err != nil {
			t.Fatalf("unsharded %q: %v", q.sql, err)
		}
		got, err := cl.Ask(ctx, q.sql)
		if err != nil {
			t.Fatalf("remote %q: %v", q.sql, err)
		}
		if got.Partial {
			t.Errorf("%q: Partial with every node healthy", q.sql)
		}
		equal := got.Result.EqualUnordered(want.Result)
		if q.ordered {
			equal = got.Result.EqualOrdered(want.Result)
		}
		if !equal {
			t.Errorf("%q:\nremote:\n%s\nunsharded:\n%s", q.sql, got.Result, want.Result)
		}
	}
	// Typed cells survived the wire: AVG stays FLOAT even when integral.
	ans, err := cl.Ask(ctx, "SELECT AVG(credit) FROM customers")
	if err != nil {
		t.Fatal(err)
	}
	if v := ans.Result.Rows[0][0]; v.T != sqldata.TypeFloat {
		t.Fatalf("AVG cell type = %v, want FLOAT", v.T)
	}
}

// TestRemoteErrorTaxonomy drives one RemoteNode against every failure
// shape and asserts the classification — the contract the breaker and
// retry layers rely on.
func TestRemoteErrorTaxonomy(t *testing.T) {
	ctx := context.Background()
	kindOf := func(err error) shard.RemoteErrorKind {
		t.Helper()
		var re *shard.RemoteError
		if !errors.As(err, &re) {
			t.Fatalf("err = %v (%T), want *RemoteError", err, err)
		}
		return re.Kind
	}

	t.Run("conn refused", func(t *testing.T) {
		n := shard.NewRemoteNode(func() string { return "http://127.0.0.1:1" }, 0, nil)
		_, err := n.AskSQL(ctx, "SELECT 1")
		if kindOf(err) != shard.RemoteConn || !errors.Is(err, shard.ErrNodeDown) {
			t.Fatalf("err = %v, want RemoteConn unwrapping to ErrNodeDown", err)
		}
	})

	t.Run("supervisor says down", func(t *testing.T) {
		n := shard.NewRemoteNode(func() string { return "" }, 0, nil)
		_, err := n.AskSQL(ctx, "SELECT 1")
		if kindOf(err) != shard.RemoteConn || !errors.Is(err, shard.ErrNodeDown) {
			t.Fatalf("err = %v, want RemoteConn/ErrNodeDown without a dial", err)
		}
	})

	t.Run("backpressure", func(t *testing.T) {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Retry-After", "2")
			w.Header().Set("X-Shed-Reason", "queue_full")
			http.Error(w, `{"error":"shed"}`, http.StatusServiceUnavailable)
		}))
		defer ts.Close()
		n := shard.NewRemoteNode(func() string { return ts.URL }, 0, nil)
		_, err := n.AskSQL(ctx, "SELECT 1")
		if kindOf(err) != shard.RemoteBackpressure || !errors.Is(err, shard.ErrBackpressure) {
			t.Fatalf("err = %v, want backpressure", err)
		}
		var re *shard.RemoteError
		errors.As(err, &re)
		if re.RetryAfter != 2*time.Second || re.ShedReason != "queue_full" {
			t.Fatalf("RetryAfter=%v ShedReason=%q, want 2s/queue_full", re.RetryAfter, re.ShedReason)
		}
		if errors.Is(err, shard.ErrNodeDown) {
			t.Fatal("shedding must not look like a dead node")
		}
	})

	t.Run("stale epoch", func(t *testing.T) {
		db := remoteDB(t)
		gw := resilient.New(db, nil, resilient.Config{})
		api := server.New(server.Config{Backend: gw, ShardEpoch: 2})
		ts := httptest.NewServer(api)
		defer ts.Close()
		n := shard.NewRemoteNode(func() string { return ts.URL }, 1, nil)
		_, err := n.AskSQL(ctx, "SELECT COUNT(*) FROM customers")
		if kindOf(err) != shard.RemoteStale || !errors.Is(err, shard.ErrStaleEpoch) {
			t.Fatalf("err = %v, want stale epoch", err)
		}
		var se *shard.StaleEpochError
		if !errors.As(err, &se) || se.Have != 1 || se.Want != 2 {
			t.Fatalf("stale detail = %+v, want have=1 want=2", se)
		}
		// Matching epochs answer fine — the fence, not the path, was the problem.
		n2 := shard.NewRemoteNode(func() string { return ts.URL }, 2, nil)
		if _, err := n2.AskSQL(ctx, "SELECT COUNT(*) FROM customers"); err != nil {
			t.Fatalf("matching epoch failed: %v", err)
		}
	})

	t.Run("semantic", func(t *testing.T) {
		// The node ran the statement and it failed on its own terms: 422,
		// a verdict on the statement, not on the node's health.
		gw := resilient.New(remoteDB(t), nil, resilient.Config{})
		ts := httptest.NewServer(server.New(server.Config{Backend: gw}))
		defer ts.Close()
		n := shard.NewRemoteNode(func() string { return ts.URL }, 0, nil)
		_, err := n.AskSQL(ctx, "SELECT SUM(name) FROM customers")
		if kindOf(err) != shard.RemoteSemantic || !errors.Is(err, resilient.ErrStatement) {
			t.Fatalf("err = %v, want semantic/ErrStatement", err)
		}
	})

	t.Run("protocol garbage", func(t *testing.T) {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusOK)
			w.Write([]byte(`{"rows": [[{"t":"f","v":"NaN"}]], "columns":["x"]}`))
		}))
		defer ts.Close()
		n := shard.NewRemoteNode(func() string { return ts.URL }, 0, nil)
		_, err := n.AskSQL(ctx, "SELECT 1")
		if kindOf(err) != shard.RemoteProtocol || !errors.Is(err, resilient.ErrWire) {
			t.Fatalf("err = %v, want protocol/ErrWire — NaN must never merge", err)
		}
	})

	t.Run("node-side timeout", func(t *testing.T) {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, `{"error":"deadline exceeded"}`, http.StatusGatewayTimeout)
		}))
		defer ts.Close()
		n := shard.NewRemoteNode(func() string { return ts.URL }, 0, nil)
		_, err := n.AskSQL(ctx, "SELECT 1")
		if kindOf(err) != shard.RemoteTimeout || !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want timeout", err)
		}
	})

	t.Run("caller cancellation is not node illness", func(t *testing.T) {
		blocked := make(chan struct{})
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			<-blocked
		}))
		defer ts.Close()
		defer close(blocked)
		n := shard.NewRemoteNode(func() string { return ts.URL }, 0, nil)
		cctx, cancel := context.WithTimeout(ctx, 30*time.Millisecond)
		defer cancel()
		_, err := n.AskSQL(cctx, "SELECT 1")
		var re *shard.RemoteError
		if errors.As(err, &re) {
			t.Fatalf("cancelled call classified as %v; must surface the context error", re.Kind)
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want context.DeadlineExceeded", err)
		}
	})
}

// TestRemoteClusterChaos kills every replica-server of one shard (the
// address slots go blank, exactly what a supervisor reports mid-restart)
// and asserts the honest-degradation contract holds across process
// boundaries: scatter answers degrade to Partial+MissingShards, pruned
// questions for the dead shard refuse with ErrShardDown, and restoring
// the addresses recovers complete answers.
func TestRemoteClusterChaos(t *testing.T) {
	db := remoteDB(t)
	fleet, addrs := remoteFleet(t, db, 2, 2, 1)
	cl, err := shard.NewRemote(db, shard.Config{
		Chain:            echoChain,
		Seed:             3,
		CacheSize:        -1,
		Retries:          1,
		RetryBackoff:     time.Millisecond,
		ReplicaThreshold: 2,
		ReplicaCooldown:  20 * time.Millisecond,
		ShardTimeout:     time.Second,
	}, fleet)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	scatter := "SELECT COUNT(*) FROM customers"

	ans, err := cl.Ask(ctx, scatter)
	if err != nil || ans.Partial {
		t.Fatalf("healthy scatter: err=%v partial=%v", err, ans != nil && ans.Partial)
	}

	const dead = 1
	saved := make([]string, len(addrs[dead]))
	for r, slot := range addrs[dead] {
		saved[r] = slot.Load().(string)
		slot.Store("")
	}

	sawPartial := false
	for i := 0; i < 6; i++ {
		ans, err := cl.Ask(ctx, scatter)
		if err != nil {
			t.Fatalf("kill window scatter %d: %v", i, err)
		}
		if ans.Partial {
			sawPartial = true
			if len(ans.MissingShards) != 1 || ans.MissingShards[0] != dead {
				t.Fatalf("missing shards %v, want [%d]", ans.MissingShards, dead)
			}
		}
	}
	if !sawPartial {
		t.Fatal("no scatter answer went Partial with a whole shard's processes gone")
	}

	// A question pruned to the dead shard refuses typed.
	part := cl.Partitioning()
	var deadID, liveID int64
	for id := int64(1); id <= 40; id++ {
		owner, ok := part.Owner("customers", sqldata.NewInt(id))
		if !ok {
			t.Fatal("customers not in the partitioning map")
		}
		if owner == dead {
			if deadID == 0 {
				deadID = id
			}
		} else if liveID == 0 {
			liveID = id
		}
	}
	if _, err := cl.Ask(ctx, fmt.Sprintf("SELECT name FROM customers WHERE id = %d", deadID)); !errors.Is(err, shard.ErrShardDown) {
		t.Fatalf("pruned-to-dead err = %v, want ErrShardDown", err)
	}
	if _, err := cl.Ask(ctx, fmt.Sprintf("SELECT name FROM customers WHERE id = %d", liveID)); err != nil {
		t.Fatalf("pruned-to-live err = %v, want success", err)
	}

	// Addresses come back (supervisor restarted the children): recovery.
	for r, slot := range addrs[dead] {
		slot.Store(saved[r])
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		ans, err := cl.Ask(ctx, scatter)
		if err == nil && !ans.Partial {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no complete answer within 5s of address restore")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRemoteTraceGraft: the distributed trace is one tree — the
// coordinator's attempt span carries a "remote" child for the HTTP leg,
// and the server process's own span tree hangs beneath it.
func TestRemoteTraceGraft(t *testing.T) {
	db := remoteDB(t)
	fleet, _ := remoteFleet(t, db, 2, 1, 1)
	cl, err := shard.NewRemote(db, shard.Config{Chain: echoChain, Seed: 5, CacheSize: -1}, fleet)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := cl.Ask(context.Background(), "SELECT COUNT(*) FROM customers")
	if err != nil {
		t.Fatal(err)
	}
	if ans.Trace == nil {
		t.Fatal("no coordinator trace")
	}
	remote := ans.Trace.Find("remote")
	if remote == nil {
		t.Fatalf("no remote span in trace:\n%s", ans.Trace)
	}
	if remote.Attr("outcome") != "ok" || remote.Attr("addr") == "" {
		t.Fatalf("remote span attrs outcome=%q addr=%q", remote.Attr("outcome"), remote.Attr("addr"))
	}
	grafted := false
	for _, c := range remote.Children() {
		if c.Name == "query" {
			grafted = true
		}
	}
	if !grafted {
		t.Fatalf("server-side span tree not grafted under the remote span:\n%s", ans.Trace)
	}
}

// typedRows renders a result's rows with every cell's type tag, sorted
// unless the statement fixes an order, so two results compare equal only
// when they hold the same typed cells (Value.Key alone folds 3.0 into 3).
// FLOAT cells are rendered to 12 significant digits unless exact: a sum
// merged from per-shard partials adds in another order than the unsharded
// sum and may differ from it in the last bits, and only there.
func typedRows(res *sqldata.Result, ordered, exact bool) []string {
	out := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		var sb strings.Builder
		for _, v := range row {
			switch {
			case v.Null:
				sb.WriteString(v.Key())
			case v.T == sqldata.TypeFloat && !exact:
				fmt.Fprintf(&sb, "FLOAT %.12g|", v.Float())
			default:
				sb.WriteString(v.T.String() + v.Key() + "|")
			}
		}
		out[i] = sb.String()
	}
	if !ordered {
		sort.Strings(out)
	}
	return out
}

// sameAnswer reports how got differs from want in engine, question form,
// SQL text, header or typed rows ("" when it does not).
func sameAnswer(got, want *resilient.Answer, exact bool) string {
	if got.Engine != want.Engine || got.Simplified != want.Simplified || got.SQL.String() != want.SQL.String() {
		return fmt.Sprintf("answered [%s simplified=%v] %s, want [%s simplified=%v] %s",
			got.Engine, got.Simplified, got.SQL, want.Engine, want.Simplified, want.SQL)
	}
	ordered := len(want.SQL.OrderBy) > 0
	if !reflect.DeepEqual(got.Result.Columns, want.Result.Columns) ||
		!reflect.DeepEqual(typedRows(got.Result, ordered, exact), typedRows(want.Result, ordered, exact)) {
		return fmt.Sprintf("rows differ:\n%s\nwant:\n%s", got.Result, want.Result)
	}
	if got.Partial {
		return "answered partial with every node healthy"
	}
	return ""
}

// TestTopologiesAnswerAlike is the interpret-once contract: the same
// question answers with the same engine, the same SQL text and the same
// typed rows through a bare gateway, an in-process 3×2 cluster and a 3×2
// fleet of remote nodes that hold nothing but their partition — or is
// refused identically by both clusters. The questions carry values, among
// them customer names, each of which lives on exactly one shard: a node
// that interpreted over its own partition's vocabulary (as the fleet's
// children once did) could not see two thirds of them.
func TestTopologiesAnswerAlike(t *testing.T) {
	d := benchdata.Sales(1)
	chain, err := resilient.ChainByNames(d.DB, lexicon.New(), resilient.DefaultChainNames)
	if err != nil {
		t.Fatal(err)
	}
	gw := resilient.New(d.DB, chain, resilient.Config{})
	local, err := shard.New(d.DB, 3, shard.Config{Replicas: 2, Chain: chain, CacheSize: -1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	fleet, _ := remoteFleet(t, d.DB, 3, 2, 1)
	remote, err := shard.NewRemote(d.DB, shard.Config{Chain: chain, CacheSize: -1, Seed: 1}, fleet)
	if err != nil {
		t.Fatal(err)
	}

	questions := []string{
		// FK joins along the co-location edge, grouped and plain.
		"number of orders per city",
		// A paraphrase athena and parse both give up on: the walk reaches
		// the later engines, and the value still resolves.
		"what is overall the city of the cutsomer ivan",
		"could you list the clients located in the town of Berlin please",
		// Shapes the coordinator must refuse, and one nobody can read.
		"customers with more than 4 orders",
		"customers without orders",
		"colorless green ideas sleep furiously",
	}
	cust := d.DB.Table("customer")
	ownersOfName := map[int]bool{}
	cities := map[string]bool{}
	for _, row := range cust.Rows {
		name, city := row[1].Text(), row[2].Text()
		owner, ok := local.Partitioning().Owner("customer", row[0])
		if !ok {
			t.Fatal("customer is not in the partitioning map")
		}
		ownersOfName[owner] = true
		questions = append(questions, "show the credit of "+name, "orders of "+name)
		if !cities[city] {
			cities[city] = true
			questions = append(questions,
				"customers in "+city,
				"how many customers are in "+city,
				"orders of customers in "+city,
				"total revenue of customers in "+city)
		}
	}
	if len(ownersOfName) != 3 {
		t.Fatalf("customer names live on shards %v, want all 3 covered", ownersOfName)
	}

	ctx := context.Background()
	answered, refused, laterEngine := 0, 0, 0
	for _, q := range questions {
		want, werr := gw.Ask(ctx, q)
		loc, lerr := local.Ask(ctx, q)
		rem, rerr := remote.Ask(ctx, q)
		switch {
		case werr != nil:
			// Nobody reads it: the same exhausted chain everywhere.
			for _, err := range []error{werr, lerr, rerr} {
				if !errors.Is(err, resilient.ErrExhausted) {
					t.Errorf("%q: errors %v / %v / %v, want ErrExhausted from all three", q, werr, lerr, rerr)
					break
				}
			}
		case lerr != nil || rerr != nil:
			// The gateway answers what a fleet must refuse; what matters is
			// that the refusal is typed and the same in both fleets.
			if !errors.Is(lerr, shard.ErrNotDistributable) || rerr == nil || rerr.Error() != lerr.Error() {
				t.Errorf("%q: in-process refused with %v, remote with %v, want one ErrNotDistributable", q, lerr, rerr)
			}
			refused++
		default:
			if diff := sameAnswer(loc, want, false); diff != "" {
				t.Errorf("%q: in-process cluster vs gateway: %s", q, diff)
			}
			if diff := sameAnswer(rem, loc, true); diff != "" {
				t.Errorf("%q: remote fleet vs in-process cluster: %s", q, diff)
			}
			answered++
			if want.Engine != chain[0].Name() {
				laterEngine++
			}
		}
	}
	// The sample must exercise what it claims to: answers, refusals, and
	// at least one answer from an engine behind the first.
	if answered < 2*len(cust.Rows) || refused == 0 || laterEngine == 0 {
		t.Fatalf("sample too thin: %d answers, %d refusals, %d from a later engine", answered, refused, laterEngine)
	}
}
