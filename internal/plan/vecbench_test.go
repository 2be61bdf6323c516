package plan

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"nlidb/internal/sqldata"
)

// opsDB is the shape of the end-to-end benchmark's ops200k dataset (a
// 40-row host dimension under an n-row metric fact table: two
// low-cardinality text columns, an integer foreign key, a float and an
// integer measure), small enough to build inside a test, plus what ops200k
// lacks: an n-row event table whose text column never repeats.
func opsDB(n int) *sqldata.Database {
	r := rand.New(rand.NewSource(7))
	db := sqldata.NewDatabase("ops")
	host, err := db.CreateTable(&sqldata.Schema{Name: "host", Columns: []sqldata.Column{
		{Name: "id", Type: sqldata.TypeInt, PrimaryKey: true},
		{Name: "name", Type: sqldata.TypeText},
		{Name: "zone", Type: sqldata.TypeText},
	}})
	if err != nil {
		panic(err)
	}
	const hosts = 40
	for i := 0; i < hosts; i++ {
		host.MustInsert(sqldata.NewInt(int64(i+1)), sqldata.NewText(fmt.Sprintf("host-%02d", i)),
			sqldata.NewText([]string{"eu", "us", "ap"}[i%3]))
	}
	metric, err := db.CreateTable(&sqldata.Schema{Name: "metric", Columns: []sqldata.Column{
		{Name: "id", Type: sqldata.TypeInt, PrimaryKey: true},
		{Name: "status", Type: sqldata.TypeText},
		{Name: "kind", Type: sqldata.TypeText},
		{Name: "host_id", Type: sqldata.TypeInt},
		{Name: "cpu", Type: sqldata.TypeFloat},
		{Name: "rss", Type: sqldata.TypeInt},
	}, ForeignKeys: []sqldata.ForeignKey{{Column: "host_id", RefTable: "host", RefColumn: "id"}}})
	if err != nil {
		panic(err)
	}
	status := []string{"ok", "warn", "crit", "unknown"}
	kind := []string{"cpu", "disk", "net", "mem", "io", "gc"}
	for i := 0; i < n; i++ {
		metric.MustInsert(sqldata.NewInt(int64(i+1)),
			sqldata.NewText(status[r.Intn(len(status))]), sqldata.NewText(kind[r.Intn(len(kind))]),
			sqldata.NewInt(int64(r.Intn(hosts)+1)), sqldata.NewFloat(r.Float64()*100), sqldata.NewInt(int64(r.Intn(1<<20))))
	}
	event, err := db.CreateTable(&sqldata.Schema{Name: "event", Columns: []sqldata.Column{
		{Name: "id", Type: sqldata.TypeInt, PrimaryKey: true},
		{Name: "ref", Type: sqldata.TypeText},
	}})
	if err != nil {
		panic(err)
	}
	for i := 0; i < n; i++ {
		event.MustInsert(sqldata.NewInt(int64(i+1)), sqldata.NewText(fmt.Sprintf("ref-%07d", i)))
	}
	return db
}

// scanShapes are the statement shapes of the benchmark's scan_agg workload
// (the first four; %s is a filter that keeps most of the fact table, a
// tenth of it for top_k), the ones its shard_scatter workload adds — a
// global aggregate, and a text equality on the dimension under the join —
// three that only differ in the scan filter: a text equality and a text
// IN on the fact table, and two conjuncts on one scan — and a text filter
// over a dictionary as long as the table, behind a conjunct that leaves it
// 64 rows.
var scanShapes = []struct{ name, sql, cond string }{
	{"grouped", "SELECT kind, AVG(rss) FROM metric WHERE %s GROUP BY kind", "cpu > 20.5"},
	{"per_host", "SELECT host.name, COUNT(*) FROM metric JOIN host ON metric.host_id = host.id WHERE metric.%s GROUP BY host.name", "cpu > 20.5"},
	{"per_host_agg", "SELECT host.name, SUM(metric.cpu) FROM metric JOIN host ON metric.host_id = host.id WHERE metric.%s GROUP BY host.name", "rss < 800000"},
	{"top_k", "SELECT status FROM metric WHERE %s ORDER BY rss DESC LIMIT 5", "cpu < 10.25"},
	{"aggregate", "SELECT MAX(rss), MIN(rss), SUM(cpu) FROM metric WHERE %s", "cpu > 20.5"},
	{"of_host", "SELECT COUNT(*) FROM metric JOIN host ON metric.host_id = host.id WHERE host.name = 'host-07' AND metric.%s", "cpu > 40.5"},
	{"in_zone", "SELECT COUNT(*) FROM metric JOIN host ON metric.host_id = host.id WHERE host.zone = 'eu' AND metric.%s", "rss < 800000"},
	{"text_eq", "SELECT kind, COUNT(*) FROM metric WHERE %s GROUP BY kind", "status = 'crit'"},
	{"text_in", "SELECT status, COUNT(*) FROM metric WHERE %s GROUP BY status", "kind IN ('cpu', 'disk', 'net')"},
	{"two_conjuncts", "SELECT kind, AVG(rss) FROM metric WHERE %s GROUP BY kind", "cpu > 20.5 AND rss < 800000"},
	{"wide_dict", "SELECT ref FROM event WHERE %s", "id <= 64 AND ref LIKE 'ref-00000_0'"},
}

var benchSink *sqldata.Result

// BenchmarkVecScanAgg runs one plan of each shape over a 200,000-row fact
// table: the executor's ten-second inner loop (`make bench-vec` runs each
// once, so that it keeps compiling and running).
//
//	go test -run '^$' -bench VecScanAgg -benchtime 20x -cpu 1 ./internal/plan
func BenchmarkVecScanAgg(b *testing.B) {
	db := opsDB(200_000)
	ctx := context.Background()
	for _, sh := range scanShapes {
		p := mustPrepare(b, db, fmt.Sprintf(sh.sql, sh.cond), Options{})
		if !p.Vectorized() {
			b.Fatalf("%s: expected a vectorized plan", sh.name)
		}
		if _, _, err := p.Run(ctx, DefaultBudget()); err != nil { // builds the column snapshot
			b.Fatal(err)
		}
		b.Run(sh.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				res, _, err := p.Run(ctx, DefaultBudget())
				if err != nil {
					b.Fatal(err)
				}
				benchSink = res
			}
		})
	}
}
