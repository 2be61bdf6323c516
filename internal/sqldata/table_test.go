package sqldata

import (
	"runtime"
	"strings"
	"sync"
	"testing"
)

func empSchema() *Schema {
	return &Schema{
		Name: "employee",
		Columns: []Column{
			{Name: "id", Type: TypeInt, PrimaryKey: true},
			{Name: "name", Type: TypeText, NotNull: true},
			{Name: "salary", Type: TypeFloat},
			{Name: "dept_id", Type: TypeInt},
		},
		ForeignKeys: []ForeignKey{{Column: "dept_id", RefTable: "department", RefColumn: "id"}},
	}
}

func TestSchemaValidate(t *testing.T) {
	if err := empSchema().Validate(); err != nil {
		t.Fatalf("valid schema rejected: %v", err)
	}
	bad := &Schema{Name: "t", Columns: []Column{{Name: "a", Type: TypeInt}, {Name: "A", Type: TypeInt}}}
	if err := bad.Validate(); err == nil {
		t.Error("duplicate column (case-insensitive) accepted")
	}
	if err := (&Schema{Name: "t"}).Validate(); err == nil {
		t.Error("empty schema accepted")
	}
	fkBad := &Schema{Name: "t", Columns: []Column{{Name: "a", Type: TypeInt}},
		ForeignKeys: []ForeignKey{{Column: "zzz", RefTable: "x", RefColumn: "y"}}}
	if err := fkBad.Validate(); err == nil {
		t.Error("FK on missing column accepted")
	}
}

func TestSchemaLookups(t *testing.T) {
	s := empSchema()
	if s.ColumnIndex("SALARY") != 2 {
		t.Error("ColumnIndex is not case-insensitive")
	}
	if s.Column("nope") != nil {
		t.Error("Column returned non-nil for missing name")
	}
	pk := s.PrimaryKey()
	if len(pk) != 1 || pk[0] != "id" {
		t.Errorf("PrimaryKey = %v", pk)
	}
	ddl := s.DDL()
	for _, frag := range []string{"CREATE TABLE employee", "salary FLOAT", "PRIMARY KEY", "REFERENCES department(id)"} {
		if !strings.Contains(ddl, frag) {
			t.Errorf("DDL missing %q: %s", frag, ddl)
		}
	}
}

func TestTableInsert(t *testing.T) {
	tbl, err := NewTable(empSchema())
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(Row{NewInt(1), NewText("ann"), NewInt(90), NewInt(1)}); err != nil {
		t.Fatalf("insert with int→float widening failed: %v", err)
	}
	if got := tbl.Rows[0][2]; got.T != TypeFloat || got.Float() != 90 {
		t.Errorf("salary not widened: %v", got)
	}
	if err := tbl.Insert(Row{NewInt(2), NewText("bob")}); err == nil {
		t.Error("arity mismatch accepted")
	}
	if err := tbl.Insert(Row{NewInt(2), NullValue(), NewFloat(1), NewInt(1)}); err == nil {
		t.Error("NULL in NOT NULL accepted")
	}
	if err := tbl.Insert(Row{NewText("x"), NewText("c"), NewFloat(1), NewInt(1)}); err == nil {
		t.Error("type mismatch accepted")
	}
	if tbl.Len() != 1 {
		t.Errorf("Len = %d, want 1", tbl.Len())
	}
}

func TestColumnValuesAndDistinct(t *testing.T) {
	tbl, _ := NewTable(&Schema{Name: "t", Columns: []Column{{Name: "c", Type: TypeText}}})
	for _, s := range []string{"b", "a", "b"} {
		tbl.MustInsert(NewText(s))
	}
	tbl.MustInsert(NullValue())
	vals, err := tbl.ColumnValues("c")
	if err != nil || len(vals) != 4 {
		t.Fatalf("ColumnValues: %v %v", vals, err)
	}
	d, err := tbl.DistinctText("c")
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != 2 || d[0] != "a" || d[1] != "b" {
		t.Errorf("DistinctText = %v", d)
	}
	if _, err := tbl.ColumnValues("nope"); err == nil {
		t.Error("missing column accepted")
	}
}

// DistinctText walks the rows in place: on a 100k-row column it must not
// allocate anything proportional to the row count (it used to copy the
// whole column, one Value a row, before looking at it).
func TestDistinctTextDoesNotCopyTheColumn(t *testing.T) {
	tbl, _ := NewTable(&Schema{Name: "t", Columns: []Column{{Name: "id", Type: TypeInt}, {Name: "c", Type: TypeText}}})
	names := []string{"ok", "warn", "error", "fatal", "debug"}
	for i := 0; i < 100000; i++ {
		tbl.MustInsert(NewInt(int64(i)), NewText(names[i%len(names)]))
	}
	var d []string
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 4; i++ {
		d, _ = tbl.DistinctText("c")
	}
	runtime.ReadMemStats(&after)
	if len(d) != len(names) || d[0] != "debug" || d[4] != "warn" {
		t.Fatalf("DistinctText = %v", d)
	}
	if perCall := (after.TotalAlloc - before.TotalAlloc) / 4; perCall > 16<<10 {
		t.Errorf("DistinctText allocated %d bytes per call over 100,000 rows; want a few hundred (the distinct set)", perCall)
	}
}

// The distinct set is cached per table version: an Insert of a new value
// shows in the next call, and a caller that edits its copy changes
// nothing for the next one.
func TestDistinctTextSeesInsert(t *testing.T) {
	tbl, _ := NewTable(&Schema{Name: "t", Columns: []Column{{Name: "n", Type: TypeInt}, {Name: "c", Type: TypeText}}})
	tbl.MustInsert(NewInt(1), NewText("b"))
	tbl.MustInsert(NewInt(2), NewText("d"))
	d, _ := tbl.DistinctText("c")
	if strings.Join(d, ",") != "b,d" {
		t.Fatalf("DistinctText = %v", d)
	}
	d[0] = "edited"
	tbl.MustInsert(NewInt(3), NewText("a"))
	d, _ = tbl.DistinctText("c")
	if strings.Join(d, ",") != "a,b,d" {
		t.Errorf("DistinctText after Insert = %v, want [a b d]", d)
	}
	if n, err := tbl.DistinctText("n"); err != nil || n == nil || len(n) != 0 {
		t.Errorf("DistinctText on an INT column = %#v, %v; want an empty set", n, err)
	}
	if _, err := tbl.DistinctText("nope"); err == nil {
		t.Error("missing column accepted")
	}
}

// Goroutines asking for different columns of one table at once each get
// their own column's set (run under -race).
func TestDistinctTextConcurrent(t *testing.T) {
	const cols = 8
	s := &Schema{Name: "t"}
	for j := 0; j < cols; j++ {
		s.Columns = append(s.Columns, Column{Name: string(rune('a' + j)), Type: TypeText})
	}
	tbl, _ := NewTable(s)
	for i := 0; i < 1000; i++ {
		row := make(Row, cols)
		for j := range row {
			row[j] = NewText(string(rune('a'+j)) + string(rune('0'+i%(j+2))))
		}
		tbl.MustInsert(row...)
	}
	var wg sync.WaitGroup
	got := make([][]string, cols)
	for j := 0; j < cols; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			got[j], _ = tbl.DistinctText(s.Columns[j].Name)
		}(j)
	}
	wg.Wait()
	for j, d := range got {
		want := distinctText(tbl.Rows, j)
		if len(d) != j+2 || strings.Join(d, ",") != strings.Join(want, ",") {
			t.Errorf("column %d: DistinctText = %v, want %v", j, d, want)
		}
	}
}

// The row store is most of a served table's heap: a six-column row of
// 32-byte Values must stay near 6×32 bytes plus its slice header.
func TestRowStoreBytesPerRow(t *testing.T) {
	tbl, _ := NewTable(&Schema{Name: "metric", Columns: []Column{
		{Name: "id", Type: TypeInt}, {Name: "host", Type: TypeText}, {Name: "kind", Type: TypeText},
		{Name: "ts", Type: TypeInt}, {Name: "value", Type: TypeFloat}, {Name: "n", Type: TypeInt},
	}})
	hosts := []string{"web-1", "web-2", "db-1"}
	kinds := []string{"cpu", "mem", "disk", "net"}
	const rows = 100000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < rows; i++ {
		tbl.MustInsert(NewInt(int64(i)), NewText(hosts[i%3]), NewText(kinds[i%4]),
			NewInt(int64(i*60)), NewFloat(float64(i)/7), NewInt(int64(i%11)))
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(tbl)
	if perRow := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / rows; perRow > 240 {
		t.Errorf("row store holds %d live bytes per six-column row; want ≤ 240", perRow)
	}
}

func TestDatabase(t *testing.T) {
	db := NewDatabase("corp")
	dept, err := db.CreateTable(&Schema{Name: "department", Columns: []Column{
		{Name: "id", Type: TypeInt, PrimaryKey: true},
		{Name: "name", Type: TypeText},
	}})
	if err != nil {
		t.Fatal(err)
	}
	dept.MustInsert(NewInt(1), NewText("eng"))
	if _, err := db.CreateTable(empSchema()); err != nil {
		t.Fatal(err)
	}
	if db.Table("EMPLOYEE") == nil {
		t.Error("case-insensitive lookup failed")
	}
	if _, err := db.CreateTable(&Schema{Name: "Employee", Columns: []Column{{Name: "x", Type: TypeInt}}}); err == nil {
		t.Error("duplicate table accepted")
	}
	if got := len(db.Tables()); got != 2 {
		t.Errorf("Tables len = %d", got)
	}
	if err := db.ValidateForeignKeys(); err != nil {
		t.Errorf("ValidateForeignKeys: %v", err)
	}

	// Break the FK and re-validate.
	db2 := NewDatabase("broken")
	if _, err := db2.CreateTable(empSchema()); err != nil {
		t.Fatal(err)
	}
	if err := db2.ValidateForeignKeys(); err == nil {
		t.Error("dangling FK accepted")
	}
}

func TestResultEquality(t *testing.T) {
	a := &Result{Columns: []string{"x"}, Rows: []Row{{NewInt(1)}, {NewInt(2)}, {NewInt(2)}}}
	b := &Result{Columns: []string{"x"}, Rows: []Row{{NewInt(2)}, {NewInt(1)}, {NewInt(2)}}}
	if !a.EqualUnordered(b) {
		t.Error("multiset-equal results not EqualUnordered")
	}
	if a.EqualOrdered(b) {
		t.Error("differently ordered results EqualOrdered")
	}
	c := &Result{Columns: []string{"x"}, Rows: []Row{{NewInt(1)}, {NewInt(2)}, {NewInt(3)}}}
	if a.EqualUnordered(c) {
		t.Error("different multisets EqualUnordered")
	}
	// Multiset subtlety: {1,1,2} vs {1,2,2}.
	d := &Result{Columns: []string{"x"}, Rows: []Row{{NewInt(1)}, {NewInt(1)}, {NewInt(2)}}}
	if a.EqualUnordered(d) {
		t.Error("multiplicity ignored")
	}
}

func TestResultString(t *testing.T) {
	r := &Result{Columns: []string{"name", "n"}, Rows: []Row{{NewText("alice"), NewInt(3)}}}
	s := r.String()
	if !strings.Contains(s, "alice") || !strings.Contains(s, "name") {
		t.Errorf("Result.String missing content:\n%s", s)
	}
}

func TestTableVersionBumpsOnInsert(t *testing.T) {
	tbl, err := NewTable(&Schema{Name: "t", Columns: []Column{{Name: "x", Type: TypeInt}}})
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Version() != 0 {
		t.Fatalf("fresh table version = %d, want 0", tbl.Version())
	}
	tbl.MustInsert(NewInt(1))
	tbl.MustInsert(NewInt(2))
	if tbl.Version() != 2 {
		t.Fatalf("version after 2 inserts = %d, want 2", tbl.Version())
	}
	// Failed inserts must not bump the version.
	if err := tbl.Insert(Row{NewInt(1), NewInt(2)}); err == nil {
		t.Fatal("arity-mismatched insert should fail")
	}
	if tbl.Version() != 2 {
		t.Fatalf("version after failed insert = %d, want 2", tbl.Version())
	}
}

func TestDatabaseFingerprint(t *testing.T) {
	build := func() (*Database, *Table) {
		db := NewDatabase("fp")
		tbl, err := db.CreateTable(&Schema{Name: "t", Columns: []Column{{Name: "x", Type: TypeInt}}})
		if err != nil {
			t.Fatal(err)
		}
		tbl.MustInsert(NewInt(1))
		return db, tbl
	}
	db1, tbl1 := build()
	db2, _ := build()
	if db1.Fingerprint() != db2.Fingerprint() {
		t.Fatal("identically built databases must fingerprint equal")
	}
	before := db1.Fingerprint()
	if db1.Fingerprint() != before {
		t.Fatal("fingerprint must be stable without mutation")
	}
	tbl1.MustInsert(NewInt(2))
	if db1.Fingerprint() == before {
		t.Fatal("insert must change the fingerprint")
	}
	if _, err := db2.CreateTable(&Schema{Name: "u", Columns: []Column{{Name: "y", Type: TypeText}}}); err != nil {
		t.Fatal(err)
	}
	if db2.Fingerprint() == before {
		t.Fatal("adding a table must change the fingerprint")
	}
}

func TestFingerprintConcurrentReads(t *testing.T) {
	db := NewDatabase("conc")
	tbl, err := db.CreateTable(&Schema{Name: "t", Columns: []Column{{Name: "x", Type: TypeInt}}})
	if err != nil {
		t.Fatal(err)
	}
	tbl.MustInsert(NewInt(1))
	want := db.Fingerprint()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				if got := db.Fingerprint(); got != want {
					t.Errorf("concurrent fingerprint = %x, want %x", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
