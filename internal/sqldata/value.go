// Package sqldata defines the typed value model, schemas, tables, and
// catalogs used by the in-memory relational engine. It is the storage
// substrate that every natural-language interpreter in this repository
// ultimately targets: interpreters produce SQL, sqlexec runs that SQL
// against sqldata tables.
package sqldata

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Type enumerates the column types supported by the engine.
type Type int

const (
	// TypeInt is a 64-bit signed integer.
	TypeInt Type = iota
	// TypeFloat is a 64-bit IEEE float.
	TypeFloat
	// TypeText is a UTF-8 string.
	TypeText
	// TypeBool is a boolean.
	TypeBool
	// TypeDate is a calendar date, stored as days since the Unix epoch.
	TypeDate
)

// String returns the SQL spelling of the type.
func (t Type) String() string {
	switch t {
	case TypeInt:
		return "INT"
	case TypeFloat:
		return "FLOAT"
	case TypeText:
		return "TEXT"
	case TypeBool:
		return "BOOL"
	case TypeDate:
		return "DATE"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// MarshalText spells the type the way String does, so a serialized
// schema reads "FLOAT" and survives a reordering of the constants.
func (t Type) MarshalText() ([]byte, error) { return []byte(t.String()), nil }

// UnmarshalText is MarshalText's inverse; unknown spellings are an error.
func (t *Type) UnmarshalText(text []byte) error {
	for c := TypeInt; c <= TypeDate; c++ {
		if c.String() == string(text) {
			*t = c
			return nil
		}
	}
	return fmt.Errorf("sqldata: unknown column type %q", text)
}

// Numeric reports whether values of the type can participate in arithmetic.
func (t Type) Numeric() bool { return t == TypeInt || t == TypeFloat }

// Value is a single SQL value: one of the supported types, or NULL.
// Note the zero Value is the integer 0, not NULL; use NullValue for NULL.
type Value struct {
	// Null reports SQL NULL. When true the remaining fields are meaningless.
	Null bool
	// T is the type tag; valid only when Null is false.
	T Type

	i int64   // TypeInt, TypeDate (days since epoch)
	f float64 // TypeFloat
	s string  // TypeText
	b bool    // TypeBool
}

// Null value constructor.
func NullValue() Value { return Value{Null: true} }

// NewInt returns an integer value.
func NewInt(v int64) Value { return Value{T: TypeInt, i: v} }

// NewFloat returns a float value.
func NewFloat(v float64) Value { return Value{T: TypeFloat, f: v} }

// NewText returns a text value.
func NewText(v string) Value { return Value{T: TypeText, s: v} }

// NewBool returns a boolean value.
func NewBool(v bool) Value { return Value{T: TypeBool, b: v} }

// NewDate returns a date value for the given civil date.
func NewDate(year int, month time.Month, day int) Value {
	t := time.Date(year, month, day, 0, 0, 0, 0, time.UTC)
	return Value{T: TypeDate, i: t.Unix() / 86400}
}

// NewDateDays returns a date value from days since the Unix epoch.
func NewDateDays(days int64) Value { return Value{T: TypeDate, i: days} }

// ParseDate parses "YYYY-MM-DD" into a date value.
func ParseDate(s string) (Value, error) {
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		return Value{}, fmt.Errorf("sqldata: parse date %q: %w", s, err)
	}
	return Value{T: TypeDate, i: t.Unix() / 86400}, nil
}

// Int returns the integer payload. It panics if the value is not an INT.
func (v Value) Int() int64 {
	v.mustBe(TypeInt)
	return v.i
}

// Float returns the float payload, widening INT to FLOAT. It panics for
// non-numeric values.
func (v Value) Float() float64 {
	if v.Null {
		panic("sqldata: Float() on NULL")
	}
	switch v.T {
	case TypeFloat:
		return v.f
	case TypeInt:
		return float64(v.i)
	default:
		panic("sqldata: Float() on " + v.T.String())
	}
}

// Text returns the string payload. It panics if the value is not TEXT.
func (v Value) Text() string {
	v.mustBe(TypeText)
	return v.s
}

// Bool returns the boolean payload. It panics if the value is not BOOL.
func (v Value) Bool() bool {
	v.mustBe(TypeBool)
	return v.b
}

// DateDays returns days since the Unix epoch. It panics if not a DATE.
func (v Value) DateDays() int64 {
	v.mustBe(TypeDate)
	return v.i
}

// Time returns the date as a time.Time at UTC midnight.
func (v Value) Time() time.Time {
	v.mustBe(TypeDate)
	return time.Unix(v.i*86400, 0).UTC()
}

// IntOK returns the integer payload, reporting ok=false (instead of
// panicking) when the value is NULL or not an INT.
func (v Value) IntOK() (int64, bool) {
	if v.Null || v.T != TypeInt {
		return 0, false
	}
	return v.i, true
}

// FloatOK returns the float payload, widening INT to FLOAT. It reports
// ok=false for NULL or non-numeric values.
func (v Value) FloatOK() (float64, bool) {
	if v.Null {
		return 0, false
	}
	switch v.T {
	case TypeFloat:
		return v.f, true
	case TypeInt:
		return float64(v.i), true
	default:
		return 0, false
	}
}

// TextOK returns the string payload, reporting ok=false for NULL or
// non-TEXT values.
func (v Value) TextOK() (string, bool) {
	if v.Null || v.T != TypeText {
		return "", false
	}
	return v.s, true
}

// BoolOK returns the boolean payload, reporting ok=false for NULL or
// non-BOOL values.
func (v Value) BoolOK() (bool, bool) {
	if v.Null || v.T != TypeBool {
		return false, false
	}
	return v.b, true
}

// DateDaysOK returns days since the Unix epoch, reporting ok=false for
// NULL or non-DATE values.
func (v Value) DateDaysOK() (int64, bool) {
	if v.Null || v.T != TypeDate {
		return 0, false
	}
	return v.i, true
}

// TimeOK returns the date as a time.Time at UTC midnight, reporting
// ok=false for NULL or non-DATE values.
func (v Value) TimeOK() (time.Time, bool) {
	days, ok := v.DateDaysOK()
	if !ok {
		return time.Time{}, false
	}
	return time.Unix(days*86400, 0).UTC(), true
}

func (v Value) mustBe(t Type) {
	if v.Null {
		panic("sqldata: typed accessor on NULL")
	}
	if v.T != t {
		panic(fmt.Sprintf("sqldata: accessor for %s on %s", t, v.T))
	}
}

// String renders the value the way the engine prints result rows.
func (v Value) String() string {
	if v.Null {
		return "NULL"
	}
	switch v.T {
	case TypeInt:
		return strconv.FormatInt(v.i, 10)
	case TypeFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case TypeText:
		return v.s
	case TypeBool:
		if v.b {
			return "true"
		}
		return "false"
	case TypeDate:
		return v.Time().Format("2006-01-02")
	default:
		return "?"
	}
}

// SQLLiteral renders the value as a SQL literal (quoting text and dates).
func (v Value) SQLLiteral() string {
	if v.Null {
		return "NULL"
	}
	switch v.T {
	case TypeText:
		return "'" + strings.ReplaceAll(v.s, "'", "''") + "'"
	case TypeDate:
		return "'" + v.Time().Format("2006-01-02") + "'"
	default:
		return v.String()
	}
}

// Equal reports deep equality, treating NULL as equal to NULL (useful for
// result comparison, not SQL three-valued logic).
func (v Value) Equal(o Value) bool {
	if v.Null || o.Null {
		return v.Null && o.Null
	}
	c, err := Compare(v, o)
	return err == nil && c == 0
}

// ErrIncomparable is returned by Compare for type-incompatible operands.
var ErrIncomparable = fmt.Errorf("sqldata: incomparable values")

// Compare orders two non-NULL values. Numeric types compare numerically
// — int-vs-float exactly, without the lossy widening of the int operand
// to float64 (so 2^53+1 > 2.0^53 even though float64(2^53+1) == 2.0^53);
// TEXT compares lexicographically; BOOL orders false < true; DATE
// chronologically. It returns ErrIncomparable for mixed non-numeric
// types or NULL operands.
func Compare(a, b Value) (int, error) {
	if a.Null || b.Null {
		return 0, ErrIncomparable
	}
	switch {
	case a.T == TypeInt && b.T == TypeInt:
		return cmpInt(a.i, b.i), nil
	case a.T == TypeInt && b.T == TypeFloat:
		return CompareIntFloat(a.i, b.f), nil
	case a.T == TypeFloat && b.T == TypeInt:
		return -CompareIntFloat(b.i, a.f), nil
	case a.T.Numeric() && b.T.Numeric():
		return cmpFloat(a.Float(), b.Float()), nil
	case a.T == TypeText && b.T == TypeText:
		return strings.Compare(a.s, b.s), nil
	case a.T == TypeBool && b.T == TypeBool:
		return cmpBool(a.b, b.b), nil
	case a.T == TypeDate && b.T == TypeDate:
		return cmpInt(a.i, b.i), nil
	default:
		return 0, fmt.Errorf("%w: %s vs %s", ErrIncomparable, a.T, b.T)
	}
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b || (math.IsNaN(a) && !math.IsNaN(b)):
		return -1
	case a > b || (!math.IsNaN(a) && math.IsNaN(b)):
		return 1
	default:
		return 0
	}
}

// CompareIntFloat orders an int64 against a float64 exactly. Converting
// the int to float64 first loses precision beyond 2^53 and can declare
// unequal values equal, which breaks hashing (equality must be
// transitive to bucket). NaN sorts below every number, matching
// cmpFloat.
func CompareIntFloat(i int64, f float64) int {
	switch {
	case math.IsNaN(f):
		return 1
	case f >= maxInt64Float: // every int64 < 2^63 ≤ f (also +Inf)
		return -1
	case f < -maxInt64Float: // f < -2^63 ≤ every int64 (also -Inf)
		return 1
	}
	t := math.Trunc(f) // in [-2^63, 2^63): int64-convertible
	ti := int64(t)
	switch {
	case i < ti:
		return -1
	case i > ti:
		return 1
	case f > t: // equal integer parts; f has a positive fraction
		return -1
	case f < t:
		return 1
	default:
		return 0
	}
}

// maxInt64Float is 2^63 as a float64 (the smallest float strictly above
// every int64).
const maxInt64Float = 9223372036854775808.0

func cmpBool(a, b bool) int {
	switch {
	case !a && b:
		return -1
	case a && !b:
		return 1
	default:
		return 0
	}
}

// Coerce attempts to convert v to type t, following SQL-ish widening rules:
// INT→FLOAT, TEXT→DATE (ISO format), INT→TEXT and FLOAT→TEXT are refused
// (silent stringification hides bugs). NULL coerces to any type.
func Coerce(v Value, t Type) (Value, error) {
	if v.Null {
		return NullValue(), nil
	}
	if v.T == t {
		return v, nil
	}
	switch {
	case v.T == TypeInt && t == TypeFloat:
		return NewFloat(float64(v.i)), nil
	case v.T == TypeText && t == TypeDate:
		return ParseDate(v.s)
	default:
		return Value{}, fmt.Errorf("sqldata: cannot coerce %s to %s", v.T, t)
	}
}

// Key returns a map-key-safe representation for grouping and hashing.
// NULLs group together, matching SQL GROUP BY semantics. Numeric keys
// are canonical over the mathematical value, not the representation:
// a FLOAT that holds an integer in int64 range (including -0) keys the
// same as the equal INT, so hash buckets agree with Compare/Equal for
// mixed int/float operands. All NaNs share one key (Compare treats NaN
// as equal to NaN).
func (v Value) Key() string {
	if v.Null {
		return "\x00N"
	}
	switch v.T {
	case TypeInt:
		return "\x00i" + strconv.FormatInt(v.i, 10)
	case TypeFloat:
		return FloatKey(v.f)
	case TypeText:
		return "\x00s" + v.s
	case TypeBool:
		if v.b {
			return "\x00b1"
		}
		return "\x00b0"
	case TypeDate:
		return "\x00d" + strconv.FormatInt(v.i, 10)
	default:
		return "\x00?"
	}
}

// FloatKey returns the canonical numeric Key form of a float64: the INT
// encoding when the value is an integer representable as int64 (folding
// -0 into 0), a shared key for all NaNs, and an exact bit-level encoding
// otherwise. The vectorized hash paths use it directly so their buckets
// inherit Value.Key's cross-type semantics.
func FloatKey(f float64) string {
	if math.IsNaN(f) {
		return "\x00fNaN"
	}
	if i, ok := FloatAsInt(f); ok {
		return "\x00i" + strconv.FormatInt(i, 10)
	}
	return "\x00f" + strconv.FormatFloat(f, 'b', -1, 64)
}

// FloatAsInt returns the int64 equal to f, if there is one: f is integral
// (either zero counts) and inside the int64 range.
func FloatAsInt(f float64) (int64, bool) {
	if f == math.Trunc(f) && f >= -maxInt64Float && f < maxInt64Float {
		return int64(f), true
	}
	return 0, false
}

// Row is a tuple of values.
type Row []Value

// Key concatenates the per-value keys; rows with equal keys are equal rows.
func (r Row) Key() string {
	var sb strings.Builder
	for _, v := range r {
		sb.WriteString(v.Key())
		sb.WriteByte(0x1f)
	}
	return sb.String()
}

// Clone returns a copy of the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}
