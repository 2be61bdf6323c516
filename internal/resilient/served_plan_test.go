package resilient_test

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"nlidb/internal/lexicon"
	"nlidb/internal/plan"
	"nlidb/internal/resilient"
	"nlidb/internal/sqldata"
)

// opsDB has the schema of the benchmark's ops dataset — a 40-row host
// dimension under a metric fact table with a foreign key to it, with the
// same synonyms — at 2,000 metric rows.
func opsDB(t *testing.T) *sqldata.Database {
	t.Helper()
	r := rand.New(rand.NewSource(5))
	db := sqldata.NewDatabase("ops")
	host, err := db.CreateTable(&sqldata.Schema{Name: "host", Synonyms: []string{"server", "machine"}, Columns: []sqldata.Column{
		{Name: "id", Type: sqldata.TypeInt, PrimaryKey: true},
		{Name: "name", Type: sqldata.TypeText},
		{Name: "zone", Type: sqldata.TypeText, Synonyms: []string{"region"}},
		{Name: "cores", Type: sqldata.TypeInt},
	}})
	if err != nil {
		t.Fatal(err)
	}
	onsets, ends := []string{"bar", "cor", "dal", "fen", "gil", "hal", "jor", "kel"}, []string{"ina", "oro", "ulf", "esa", "ian"}
	zones := []string{"north", "south", "east", "west", "central"}
	for i := 0; i < 40; i++ {
		host.MustInsert(sqldata.NewInt(int64(i+1)), sqldata.NewText(onsets[i%8]+ends[i/8]),
			sqldata.NewText(zones[i%len(zones)]), sqldata.NewInt(int64(2<<r.Intn(5))))
	}
	metric, err := db.CreateTable(&sqldata.Schema{Name: "metric", Synonyms: []string{"sample", "measurement"}, Columns: []sqldata.Column{
		{Name: "id", Type: sqldata.TypeInt, PrimaryKey: true},
		{Name: "status", Type: sqldata.TypeText, Synonyms: []string{"state"}},
		{Name: "kind", Type: sqldata.TypeText},
		{Name: "host_id", Type: sqldata.TypeInt},
		{Name: "cpu", Type: sqldata.TypeFloat, Synonyms: []string{"load"}},
		{Name: "rss", Type: sqldata.TypeInt, Synonyms: []string{"memory"}},
	}, ForeignKeys: []sqldata.ForeignKey{{Column: "host_id", RefTable: "host", RefColumn: "id"}}})
	if err != nil {
		t.Fatal(err)
	}
	statuses, kinds := []string{"ok", "warn", "crit", "idle"}, []string{"probe", "gauge", "counter", "timer", "event", "alarm"}
	for i := 0; i < 2000; i++ {
		metric.MustInsert(sqldata.NewInt(int64(i+1)), sqldata.NewText(statuses[r.Intn(4)]), sqldata.NewText(kinds[r.Intn(6)]),
			sqldata.NewInt(int64(r.Intn(40)+1)), sqldata.NewFloat(r.Float64()*100), sqldata.NewInt(int64(r.Intn(1<<20))))
	}
	return db
}

// The per-host questions of the benchmark's scan_agg workload are answered
// with the dimension first, `host JOIN metric`, not in the gold statement's
// orientation; the executor's inner-loop benchmark (BenchmarkVecScanAgg)
// measures both. This pins what the default chain serves: that statement,
// on the vectorized executor, with the join aggregating as it probes.
func TestServedPerHostPlanRunsFused(t *testing.T) {
	db := opsDB(t)
	gw := resilient.New(db, defaultChain(t, db, lexicon.New()), resilient.Config{})
	ans, err := gw.Ask(context.Background(), "count of metrics per host with rss under 915516")
	if err != nil {
		t.Fatal(err)
	}
	sql := ans.SQL.String()
	if want := "FROM host JOIN metric ON host.id = metric.host_id"; !strings.Contains(sql, want) {
		t.Fatalf("served %s\nwant a statement %s", sql, want)
	}
	if want := "GROUP BY host.name"; !strings.Contains(sql, want) {
		t.Fatalf("served %s\nwant a statement grouped %s", sql, want)
	}
	p, err := plan.Prepare(db, ans.SQL)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Vectorized() {
		t.Errorf("%s: not vectorized:\n%s", sql, p.Explain())
	}
	join := ans.Trace.Find("join metric")
	if join == nil {
		t.Fatalf("no join span in the trace:\n%s", ans.Trace)
	}
	if got := join.Attr("agg"); got != "fused" {
		t.Errorf("join span agg=%q, want fused:\n%s", got, ans.Trace)
	}
	if got, want := fmt.Sprint(len(ans.Result.Rows)), "40"; got != want {
		t.Errorf("%s groups, want %s", got, want)
	}
}
