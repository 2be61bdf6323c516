package sqldata

import "math/bits"

// Columnar access to a Table: typed column vectors (one Go slice per
// column, plus a null bitmap) rebuilt lazily from the row store. The
// row store stays authoritative — Insert and every existing caller keep
// working on []Row — while batch-at-a-time consumers (the vectorized
// executor in internal/plan, the stats builder below) read the cached
// vectors. The cache is keyed by the table's mutation version: any
// Insert invalidates it implicitly, and concurrent readers may race to
// rebuild but always observe a consistent snapshot via the atomic
// pointer.

// Bitmap is a packed bitset; column vectors use it to mark NULL slots.
type Bitmap struct {
	bits []uint64
	n    int
}

// NewBitmap returns an all-zero bitmap of n bits.
func NewBitmap(n int) *Bitmap {
	return &Bitmap{bits: make([]uint64, (n+63)/64), n: n}
}

// Set sets bit i.
func (b *Bitmap) Set(i int) { b.bits[i>>6] |= 1 << uint(i&63) }

// Get reports bit i.
func (b *Bitmap) Get(i int) bool { return b.bits[i>>6]&(1<<uint(i&63)) != 0 }

// Len returns the number of bits.
func (b *Bitmap) Len() int { return b.n }

// Count returns the number of set bits.
func (b *Bitmap) Count() int {
	total := 0
	for _, w := range b.bits {
		total += bits.OnesCount64(w)
	}
	return total
}

// ColumnVector is one column of a table decomposed into a typed slice.
// Exactly one payload is populated, chosen by Type (TypeInt and TypeDate
// both use Ints — dates are days since the epoch; TypeText uses
// Codes+Dict). Nulls is
// nil when the column has no NULLs, which lets tight loops skip the
// bitmap test entirely; NullMask is the same set expanded to one bool
// per slot, for consumers that index lanes rather than test bits.
//
// A TEXT column's payload is dictionary-coded, and that is its only copy:
// Dict lists its distinct non-NULL values in first-appearance order and
// Codes[i] indexes it (-1 in a NULL slot), so equality on the column is
// equality of small integers and a predicate on it need only be decided
// once per Dict entry. The dictionary belongs to the snapshot: an Insert
// invalidates it with everything else here.
type ColumnVector struct {
	Type     Type
	Len      int
	Nulls    *Bitmap // nil ⇒ no NULLs
	NullMask []bool  // nil ⇒ no NULLs

	Ints   []int64   // TypeInt, TypeDate
	Floats []float64 // TypeFloat
	Bools  []bool    // TypeBool

	Codes []int32  // TypeText: index into Dict, -1 when NULL
	Dict  []string // TypeText: distinct values, first-appearance order
}

// Null reports whether slot i is NULL.
func (cv *ColumnVector) Null(i int) bool {
	return cv.Nulls != nil && cv.Nulls.Get(i)
}

// Value boxes slot i back into a Value.
func (cv *ColumnVector) Value(i int) Value {
	if cv.Null(i) {
		return NullValue()
	}
	switch cv.Type {
	case TypeInt:
		return NewInt(cv.Ints[i])
	case TypeFloat:
		return NewFloat(cv.Floats[i])
	case TypeText:
		return NewText(cv.Dict[cv.Codes[i]])
	case TypeBool:
		return NewBool(cv.Bools[i])
	case TypeDate:
		return NewDateDays(cv.Ints[i])
	default:
		return NullValue()
	}
}

// colCache is one immutable columnar+stats snapshot of a table.
type colCache struct {
	version uint64
	cols    []*ColumnVector
	stats   []*ColStats
}

// Columnar returns the table's columns as typed vectors, built on first
// use and cached until the next Insert (the cache is keyed by Version).
// The returned slices are shared snapshots: callers must not modify
// them.
func (t *Table) Columnar() []*ColumnVector { return t.colState().cols }

// Stats returns per-column statistics (row/null counts, NDV estimate,
// min/max, equi-width histogram), maintained alongside the columnar
// cache: computed when a freshly loaded or mutated table is first read.
func (t *Table) Stats() []*ColStats { return t.colState().stats }

func (t *Table) colState() *colCache {
	v := t.Version()
	if c := t.columnar.Load(); c != nil && c.version == v {
		return c
	}
	c := &colCache{version: v, cols: buildColumns(t)}
	c.stats = make([]*ColStats, len(c.cols))
	for i, cv := range c.cols {
		c.stats[i] = buildColStats(cv)
	}
	t.columnar.Store(c)
	return c
}

func buildColumns(t *Table) []*ColumnVector {
	n := len(t.Rows)
	cols := make([]*ColumnVector, len(t.Schema.Columns))
	for j, c := range t.Schema.Columns {
		cv := &ColumnVector{Type: c.Type, Len: n}
		switch c.Type {
		case TypeInt, TypeDate:
			cv.Ints = make([]int64, n)
		case TypeFloat:
			cv.Floats = make([]float64, n)
		case TypeText:
			cv.Codes = make([]int32, n)
		case TypeBool:
			cv.Bools = make([]bool, n)
		}
		cols[j] = cv
	}
	dicts := make([]map[string]int32, len(cols)) // text columns only
	for i, r := range t.Rows {
		for j, v := range r {
			cv := cols[j]
			if v.Null {
				if cv.Nulls == nil {
					cv.Nulls = NewBitmap(n)
					cv.NullMask = make([]bool, n)
				}
				cv.Nulls.Set(i)
				cv.NullMask[i] = true
				if cv.Codes != nil {
					cv.Codes[i] = -1
				}
				continue
			}
			switch cv.Type {
			case TypeInt:
				cv.Ints[i] = v.i()
			case TypeFloat:
				cv.Floats[i] = v.f()
			case TypeText:
				code, ok := dicts[j][v.s]
				if !ok {
					if dicts[j] == nil {
						dicts[j] = map[string]int32{}
					}
					code = int32(len(cv.Dict))
					dicts[j][v.s] = code
					cv.Dict = append(cv.Dict, v.s)
				}
				cv.Codes[i] = code
			case TypeBool:
				cv.Bools[i] = v.b()
			case TypeDate:
				cv.Ints[i] = v.i()
			}
		}
	}
	return cols
}
