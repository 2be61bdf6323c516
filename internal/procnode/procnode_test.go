package procnode

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"nlidb/internal/sqldata"
)

func procDB(t *testing.T) *sqldata.Database {
	t.Helper()
	db := sqldata.NewDatabase("proc")
	tbl, err := db.CreateTable(&sqldata.Schema{Name: "customers", Columns: []sqldata.Column{
		{Name: "id", Type: sqldata.TypeInt, PrimaryKey: true},
		{Name: "name", Type: sqldata.TypeText},
		{Name: "credit", Type: sqldata.TypeFloat},
		{Name: "joined", Type: sqldata.TypeDate},
	}})
	if err != nil {
		t.Fatal(err)
	}
	day, err := sqldata.ParseDate("2024-03-01")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		credit := sqldata.NewFloat(float64((i+1)*1000) + 0.5)
		if i == 3 {
			credit = sqldata.NullValue()
		}
		tbl.MustInsert(sqldata.NewInt(int64(i+1)), sqldata.NewText(fmt.Sprintf("c%02d", i)), credit, day)
	}
	return db
}

// fakeChild builds a Command seam whose "children" print the serve
// banner for a stub /healthz endpoint and then run the given script.
func fakeChild(t *testing.T, tail string) (func(name string, args ...string) *exec.Cmd, *httptest.Server, func() [][]string) {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.WriteHeader(http.StatusOK)
			w.Write([]byte(`{"status":"ok"}`))
			return
		}
		http.NotFound(w, r)
	}))
	t.Cleanup(ts.Close)
	var mu sync.Mutex
	var seen [][]string
	cmd := func(name string, args ...string) *exec.Cmd {
		mu.Lock()
		seen = append(seen, append([]string{name}, args...))
		mu.Unlock()
		script := fmt.Sprintf("echo 'serving %s  (POST /query, POST /batch)'; %s", ts.URL, tail)
		return exec.Command("/bin/sh", "-c", script)
	}
	calls := func() [][]string {
		mu.Lock()
		defer mu.Unlock()
		out := make([][]string, len(seen))
		copy(out, seen)
		return out
	}
	return cmd, ts, calls
}

// TestSupervisorLifecycle: start a 2×2 fleet of (fake) processes, check
// the child command lines, the shard map, Kill/Restore, and Close.
func TestSupervisorLifecycle(t *testing.T) {
	cmd, ts, calls := fakeChild(t, "exec sleep 60")
	dir := t.TempDir()
	sup, err := Start(procDB(t), Config{
		Binary:   "nlidb-under-test",
		Dir:      dir,
		Shards:   2,
		Replicas: 2,
		Epoch:    7,
		Command:  cmd,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()

	m := sup.Map()
	if m.Epoch != 7 || len(m.Shards) != 2 || len(m.Shards[0]) != 2 {
		t.Fatalf("map = %+v, want epoch 7, 2x2", m)
	}
	for s := range m.Shards {
		for r, addr := range m.Shards[s] {
			if addr != ts.URL {
				t.Fatalf("shard %d replica %d addr = %q, want %q", s, r, addr, ts.URL)
			}
		}
	}
	fns := sup.AddrFuncs()
	if len(fns) != 2 || len(fns[0]) != 2 || fns[1][1]() != ts.URL {
		t.Fatalf("AddrFuncs shape wrong")
	}
	if sup.Partitioning() == nil || sup.Partitioning().N != 2 {
		t.Fatal("no partitioning map")
	}

	// Each child was told its partition files, shard assignment, and to
	// serve with its cache off (the coordinator caches fleet-wide).
	launches := calls()
	if len(launches) != 4 {
		t.Fatalf("%d children launched, want 4", len(launches))
	}
	line := strings.Join(launches[0], " ")
	for _, want := range []string{"nlidb-under-test", "-serve 127.0.0.1:0", "-csv " + filepath.Join(dir, "shard0"), "-join 0@7", "-cache 0"} {
		if !strings.Contains(line, want) {
			t.Errorf("child command %q missing %q", line, want)
		}
	}

	// Kill takes the replica's address away and suppresses restart.
	p := sup.Proc(0, 1)
	p.Kill()
	if !p.Down() || p.Addr() != "" {
		t.Fatalf("after Kill: down=%v addr=%q", p.Down(), p.Addr())
	}
	time.Sleep(150 * time.Millisecond) // would-be restart window
	if p.Addr() != "" {
		t.Fatal("killed replica restarted itself")
	}
	if n := len(calls()); n != 4 {
		t.Fatalf("killed replica relaunched: %d launches", n)
	}
	// Restore brings it back, ready.
	if err := p.Restore(); err != nil {
		t.Fatal(err)
	}
	if p.Down() || p.Addr() != ts.URL {
		t.Fatalf("after Restore: down=%v addr=%q", p.Down(), p.Addr())
	}
}

// TestSupervisorRestartsCrashedChild: a child that exits on its own is
// relaunched after backoff; one that was Kill'd is not (covered above).
func TestSupervisorRestartsCrashedChild(t *testing.T) {
	cmd, ts, calls := fakeChild(t, "sleep 0.05") // banner, then crash
	var mu sync.Mutex
	var events []string
	sup, err := Start(procDB(t), Config{
		Binary:         "x",
		Shards:         1,
		Replicas:       1,
		Command:        cmd,
		RestartBackoff: 10 * time.Millisecond,
		OnEvent: func(e string) {
			mu.Lock()
			events = append(events, e)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()

	deadline := time.Now().Add(10 * time.Second)
	for len(calls()) < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("child relaunched %d times, want >= 3 (events: %v)", len(calls()), events)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The replica is addressable between crashes.
	if addr := sup.Proc(0, 0).Addr(); addr != "" && addr != ts.URL {
		t.Fatalf("addr = %q", addr)
	}
	mu.Lock()
	defer mu.Unlock()
	restarts := 0
	for _, e := range events {
		if strings.Contains(e, "restarting in") {
			restarts++
		}
	}
	if restarts == 0 {
		t.Fatalf("no restart events emitted: %v", events)
	}
}

// TestExportPartitionsRoundTrip: the partition files re-load, the way a
// child loads them, with the parent's column types — dates survive the
// ISO form, NULLs stay NULL — and every row lands on exactly one shard.
func TestExportPartitionsRoundTrip(t *testing.T) {
	db := procDB(t)
	dir := t.TempDir()
	files, part, err := exportPartitions(db, dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	if part.N != 3 || len(files) != 3 {
		t.Fatalf("split shape wrong: %d files lists, N=%d", len(files), part.N)
	}
	parent := db.Table("customers")
	totalRows := 0
	for s, list := range files {
		for _, path := range list {
			tbl, err := sqldata.LoadCSVFile(path)
			if err != nil {
				t.Fatalf("shard %d %s: %v", s, path, err)
			}
			if !strings.EqualFold(tbl.Schema.Name, "customers") {
				continue
			}
			totalRows += tbl.Len()
			for i, col := range tbl.Schema.Columns {
				if want := parent.Schema.Columns[i].Type; col.Type != want {
					t.Errorf("shard %d column %s loaded as %v, want %v", s, col.Name, col.Type, want)
				}
			}
			for _, row := range tbl.Rows {
				id := row[0].Int()
				if owner, ok := part.Owner("customers", sqldata.NewInt(id)); !ok || owner != s {
					t.Errorf("row id=%d on shard %d, owner says %d", id, s, owner)
				}
				if id == 4 && !row[2].Null {
					t.Errorf("NULL credit of id=4 came back as %v", row[2])
				}
				if !row[3].Null && row[3].T != sqldata.TypeDate {
					t.Errorf("joined column cell type %v, want DATE", row[3].T)
				}
			}
		}
	}
	if totalRows != parent.Len() {
		t.Fatalf("partitions hold %d customer rows, want %d", totalRows, parent.Len())
	}
}

// TestExportKeepsDeclaredTypes: a partition travels with its declared
// schema, so the columns text alone would mistype — a FLOAT column whose
// cells are all integral, a TEXT column of digit strings — come back on
// the child exactly as declared, keys included.
func TestExportKeepsDeclaredTypes(t *testing.T) {
	db := sqldata.NewDatabase("declared")
	if _, err := db.CreateTable(&sqldata.Schema{Name: "region", Columns: []sqldata.Column{
		{Name: "id", Type: sqldata.TypeInt, PrimaryKey: true},
	}}); err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable(&sqldata.Schema{
		Name:     "t",
		Synonyms: []string{"thing"},
		Columns: []sqldata.Column{
			{Name: "id", Type: sqldata.TypeInt, PrimaryKey: true},
			{Name: "v", Type: sqldata.TypeFloat, Synonyms: []string{"value"}},
			{Name: "zip", Type: sqldata.TypeText},
			{Name: "region_id", Type: sqldata.TypeInt, NotNull: true},
		},
		ForeignKeys: []sqldata.ForeignKey{{Column: "region_id", RefTable: "region", RefColumn: "id"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	tbl.MustInsert(sqldata.NewInt(1), sqldata.NewFloat(12000), sqldata.NewText("10115"), sqldata.NewInt(1))
	tbl.MustInsert(sqldata.NewInt(2), sqldata.NewFloat(7), sqldata.NewText("80331"), sqldata.NewInt(1))
	files, _, err := exportPartitions(db, t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	var back *sqldata.Table
	for _, path := range files[0] {
		if strings.HasSuffix(path, "t.csv") {
			if back, err = sqldata.LoadCSVFile(path); err != nil {
				t.Fatal(err)
			}
		}
	}
	if back == nil {
		t.Fatalf("no t.csv among %v", files[0])
	}
	if !reflect.DeepEqual(back.Schema, tbl.Schema) {
		t.Fatalf("schema changed on the round trip:\n got %+v\nwant %+v", back.Schema, tbl.Schema)
	}
	for i, row := range tbl.Rows {
		for j, want := range row {
			if got := back.Rows[i][j]; got.T != want.T || !got.Equal(want) {
				t.Errorf("row %d column %s = %v (%v), want %v (%v)", i, tbl.Schema.Columns[j].Name, got, got.T, want, want.T)
			}
		}
	}
}
