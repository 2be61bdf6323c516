package sqldata

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync/atomic"
)

// Table is an in-memory relation: a schema plus its rows.
//
// Concurrency: a fully-constructed table is safe for concurrent reads.
// Mutation (Insert) is not synchronized against concurrent readers — the
// serving layer treats databases as read-mostly, and callers that mutate
// while queries are in flight must provide their own exclusion. Every
// Insert bumps an atomic version counter, which Database.Fingerprint
// folds into the cache key so answer caches invalidate on mutation
// without an explicit flush.
type Table struct {
	Schema *Schema
	Rows   []Row

	// version counts mutations; read via Version, bumped by Insert.
	version atomic.Uint64

	// columnar caches the typed column vectors and per-column stats for
	// the current version; see column.go. Rebuilt lazily on first read
	// after a mutation.
	columnar atomic.Pointer[colCache]

	// distinct caches DistinctText's sorted sets for the current version,
	// one slot per column, each filled on first request.
	distinct atomic.Pointer[distinctCache]
}

// distinctCache is DistinctText's state for one table version.
type distinctCache struct {
	version uint64
	sets    []atomic.Pointer[[]string]
}

// Version returns the table's mutation counter: 0 for a fresh table,
// incremented by every successful Insert. Safe for concurrent use.
func (t *Table) Version() uint64 { return t.version.Load() }

// NewTable creates an empty table after validating the schema.
func NewTable(s *Schema) (*Table, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &Table{Schema: s}, nil
}

// Insert appends one row after checking arity, types, and NOT NULL
// constraints. INT values are widened to FLOAT columns and ISO-formatted
// TEXT is coerced to DATE columns.
func (t *Table) Insert(r Row) error {
	if len(r) != len(t.Schema.Columns) {
		return fmt.Errorf("sqldata: insert into %s: got %d values, want %d",
			t.Schema.Name, len(r), len(t.Schema.Columns))
	}
	row := make(Row, len(r))
	for i, v := range r {
		c := t.Schema.Columns[i]
		if v.Null {
			if c.NotNull || c.PrimaryKey {
				return fmt.Errorf("sqldata: insert into %s: NULL in NOT NULL column %s",
					t.Schema.Name, c.Name)
			}
			row[i] = v
			continue
		}
		cv, err := Coerce(v, c.Type)
		if err != nil {
			return fmt.Errorf("sqldata: insert into %s column %s: %w", t.Schema.Name, c.Name, err)
		}
		row[i] = cv
	}
	t.Rows = append(t.Rows, row)
	t.version.Add(1)
	return nil
}

// MustInsert inserts and panics on error; for test fixtures and generators
// whose inputs are constructed to be valid.
func (t *Table) MustInsert(vals ...Value) {
	if err := t.Insert(Row(vals)); err != nil {
		panic(err)
	}
}

// Len returns the number of rows.
func (t *Table) Len() int { return len(t.Rows) }

// ColumnValues returns all values of the named column in row order.
func (t *Table) ColumnValues(name string) ([]Value, error) {
	i := t.Schema.ColumnIndex(name)
	if i < 0 {
		return nil, fmt.Errorf("sqldata: table %s has no column %q", t.Schema.Name, name)
	}
	out := make([]Value, len(t.Rows))
	for j, r := range t.Rows {
		out[j] = r[i]
	}
	return out, nil
}

// DistinctText returns the sorted distinct non-NULL TEXT values of a column;
// indexing and interpreters use it to build value vocabularies. The set
// is computed once per column and table version (the first call after an
// Insert walks the rows again); every call returns its own copy.
func (t *Table) DistinctText(name string) ([]string, error) {
	i := t.Schema.ColumnIndex(name)
	if i < 0 {
		return nil, fmt.Errorf("sqldata: table %s has no column %q", t.Schema.Name, name)
	}
	v := t.Version()
	c := t.distinct.Load()
	if c == nil || c.version != v {
		c = &distinctCache{version: v, sets: make([]atomic.Pointer[[]string], len(t.Schema.Columns))}
		t.distinct.Store(c)
	}
	set := c.sets[i].Load()
	if set == nil {
		s := distinctText(t.Rows, i)
		set = &s
		c.sets[i].Store(set)
	}
	out := make([]string, len(*set))
	copy(out, *set)
	return out, nil
}

// distinctText walks column i of rows in place into its sorted distinct
// non-NULL TEXT values.
func distinctText(rows []Row, i int) []string {
	seen := make(map[string]bool)
	for _, r := range rows {
		if v := r[i]; !v.Null && v.T == TypeText {
			seen[v.s] = true
		}
	}
	out := make([]string, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Database is a named collection of tables — the engine's catalog unit.
type Database struct {
	Name   string
	tables map[string]*Table
	order  []string
}

// NewDatabase creates an empty database.
func NewDatabase(name string) *Database {
	return &Database{Name: name, tables: make(map[string]*Table)}
}

// AddTable registers a table; the name must be unique (case-insensitive).
func (d *Database) AddTable(t *Table) error {
	key := strings.ToLower(t.Schema.Name)
	if _, dup := d.tables[key]; dup {
		return fmt.Errorf("sqldata: database %s already has table %q", d.Name, t.Schema.Name)
	}
	d.tables[key] = t
	d.order = append(d.order, key)
	return nil
}

// CreateTable builds an empty table from the schema and registers it.
func (d *Database) CreateTable(s *Schema) (*Table, error) {
	t, err := NewTable(s)
	if err != nil {
		return nil, err
	}
	if err := d.AddTable(t); err != nil {
		return nil, err
	}
	return t, nil
}

// Table looks up a table by name (case-insensitive), or nil.
func (d *Database) Table(name string) *Table {
	return d.tables[strings.ToLower(name)]
}

// Tables returns all tables in registration order.
func (d *Database) Tables() []*Table {
	out := make([]*Table, 0, len(d.order))
	for _, k := range d.order {
		out = append(out, d.tables[k])
	}
	return out
}

// Fingerprint summarizes the database's schema and data state as a hash
// of the catalog (name, table count, table names and column counts) and
// every table's mutation version. Any AddTable or Insert changes the
// fingerprint, so cache keys built over it invalidate implicitly. Safe
// for concurrent use alongside reads; see Table's concurrency note for
// mutation.
func (d *Database) Fingerprint() uint64 {
	h := fnv.New64a()
	h.Write([]byte(d.Name))
	var buf [8]byte
	put := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	put(uint64(len(d.order)))
	for _, k := range d.order {
		t := d.tables[k]
		h.Write([]byte(k))
		put(uint64(len(t.Schema.Columns)))
		put(uint64(len(t.Rows)))
		put(t.Version())
	}
	return h.Sum64()
}

// ValidateForeignKeys checks that every declared foreign key references an
// existing table and column of a compatible type.
func (d *Database) ValidateForeignKeys() error {
	for _, t := range d.Tables() {
		for _, fk := range t.Schema.ForeignKeys {
			ref := d.Table(fk.RefTable)
			if ref == nil {
				return fmt.Errorf("sqldata: %s.%s references missing table %q",
					t.Schema.Name, fk.Column, fk.RefTable)
			}
			rc := ref.Schema.Column(fk.RefColumn)
			if rc == nil {
				return fmt.Errorf("sqldata: %s.%s references missing column %s.%s",
					t.Schema.Name, fk.Column, fk.RefTable, fk.RefColumn)
			}
			lc := t.Schema.Column(fk.Column)
			if lc.Type != rc.Type {
				return fmt.Errorf("sqldata: foreign key %s.%s (%s) type-mismatches %s.%s (%s)",
					t.Schema.Name, fk.Column, lc.Type, fk.RefTable, fk.RefColumn, rc.Type)
			}
		}
	}
	return nil
}

// Result is a materialized query result: column headers plus rows.
type Result struct {
	Columns []string
	Rows    []Row
}

// String renders the result as an aligned text table for CLI output.
func (r *Result) String() string {
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	cells := make([][]string, len(r.Rows))
	for j, row := range r.Rows {
		cells[j] = make([]string, len(row))
		for i, v := range row {
			s := v.String()
			cells[j][i] = s
			if i < len(widths) && len(s) > widths[i] {
				widths[i] = len(s)
			}
		}
	}
	var sb strings.Builder
	for i, c := range r.Columns {
		if i > 0 {
			sb.WriteString(" | ")
		}
		fmt.Fprintf(&sb, "%-*s", widths[i], c)
	}
	sb.WriteByte('\n')
	for i := range r.Columns {
		if i > 0 {
			sb.WriteString("-+-")
		}
		sb.WriteString(strings.Repeat("-", widths[i]))
	}
	for _, row := range cells {
		sb.WriteByte('\n')
		for i, c := range row {
			if i > 0 {
				sb.WriteString(" | ")
			}
			if i < len(widths) {
				fmt.Fprintf(&sb, "%-*s", widths[i], c)
			} else {
				sb.WriteString(c)
			}
		}
	}
	return sb.String()
}

// EqualUnordered reports whether two results contain the same multiset of
// rows (column order must match; row order is ignored). This is the
// "execution accuracy" comparator used throughout the evaluation harness.
func (r *Result) EqualUnordered(o *Result) bool {
	if len(r.Rows) != len(o.Rows) || len(r.Columns) != len(o.Columns) {
		return false
	}
	counts := make(map[string]int, len(r.Rows))
	for _, row := range r.Rows {
		counts[row.Key()]++
	}
	for _, row := range o.Rows {
		counts[row.Key()]--
		if counts[row.Key()] < 0 {
			return false
		}
	}
	return true
}

// EqualOrdered reports whether two results are identical including row order
// (used when the gold query has ORDER BY).
func (r *Result) EqualOrdered(o *Result) bool {
	if len(r.Rows) != len(o.Rows) || len(r.Columns) != len(o.Columns) {
		return false
	}
	for i := range r.Rows {
		if r.Rows[i].Key() != o.Rows[i].Key() {
			return false
		}
	}
	return true
}
