package sqldata

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

// Every stored cell is one Value, so its size is most of the row store's
// heap: the flag and tag share a word, the non-TEXT payloads share one.
func TestValueIs32Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 32 {
		t.Errorf("unsafe.Sizeof(Value{}) = %d, want 32", got)
	}
}

// The shared payload word round-trips every type's extremes, and Equal
// keeps SQL semantics where payload bits differ: -0 equals 0, NaN equals
// NaN, and an INT equals the FLOAT of the same number.
func TestValuePayloadWord(t *testing.T) {
	for _, i := range []int64{0, -1, math.MinInt64, math.MaxInt64} {
		if NewInt(i).Int() != i || NewDateDays(i).DateDays() != i {
			t.Errorf("int64 %d does not round-trip", i)
		}
	}
	for _, f := range []float64{0, math.Copysign(0, -1), -1.5, math.MaxFloat64, math.Inf(-1), math.SmallestNonzeroFloat64} {
		if got := NewFloat(f).Float(); math.Float64bits(got) != math.Float64bits(f) {
			t.Errorf("float %v round-trips as %v", f, got)
		}
	}
	if !math.IsNaN(NewFloat(math.NaN()).Float()) {
		t.Error("NaN does not round-trip")
	}
	if !NewBool(true).Bool() || NewBool(false).Bool() {
		t.Error("bool does not round-trip")
	}
	if !NewFloat(math.Copysign(0, -1)).Equal(NewFloat(0)) {
		t.Error("-0 not Equal to 0")
	}
	if !NewFloat(math.NaN()).Equal(NewFloat(math.NaN())) {
		t.Error("NaN not Equal to NaN")
	}
	if !NewInt(3).Equal(NewFloat(3)) || NewInt(1).Equal(NewBool(true)) {
		t.Error("Equal must compare values, not payload bits")
	}
}

func TestValueConstructorsAndAccessors(t *testing.T) {
	if got := NewInt(42).Int(); got != 42 {
		t.Errorf("Int() = %d, want 42", got)
	}
	if got := NewFloat(2.5).Float(); got != 2.5 {
		t.Errorf("Float() = %v, want 2.5", got)
	}
	if got := NewInt(3).Float(); got != 3.0 {
		t.Errorf("widened Float() = %v, want 3", got)
	}
	if got := NewText("hi").Text(); got != "hi" {
		t.Errorf("Text() = %q, want hi", got)
	}
	if !NewBool(true).Bool() {
		t.Error("Bool() = false, want true")
	}
	d := NewDate(2020, time.June, 14)
	if got := d.Time().Format("2006-01-02"); got != "2020-06-14" {
		t.Errorf("date = %s, want 2020-06-14", got)
	}
	if !NullValue().Null {
		t.Error("NullValue is not null")
	}
}

// The OK accessors are the non-panicking mirrors of Int/Float/Text/...:
// wrong type or NULL reports ok=false instead of panicking, which is what
// the executor's hot paths rely on.
func TestOKAccessors(t *testing.T) {
	i := NewInt(7)
	f := NewFloat(1.5)
	s := NewText("hi")
	b := NewBool(true)
	d := NewDate(2020, time.June, 14)
	null := NullValue()

	if v, ok := i.IntOK(); !ok || v != 7 {
		t.Errorf("IntOK(7) = %d, %v", v, ok)
	}
	if v, ok := f.FloatOK(); !ok || v != 1.5 {
		t.Errorf("FloatOK(1.5) = %v, %v", v, ok)
	}
	if v, ok := i.FloatOK(); !ok || v != 7.0 {
		t.Errorf("FloatOK must widen INT: got %v, %v", v, ok)
	}
	if v, ok := s.TextOK(); !ok || v != "hi" {
		t.Errorf("TextOK = %q, %v", v, ok)
	}
	if v, ok := b.BoolOK(); !ok || !v {
		t.Errorf("BoolOK = %v, %v", v, ok)
	}
	if v, ok := d.TimeOK(); !ok || v.Format("2006-01-02") != "2020-06-14" {
		t.Errorf("TimeOK = %v, %v", v, ok)
	}
	if _, ok := d.DateDaysOK(); !ok {
		t.Error("DateDaysOK rejected a date")
	}

	// Wrong type and NULL must report ok=false on every accessor — the
	// whole point is that none of these calls can panic.
	for _, tc := range []struct {
		name string
		v    Value
	}{{"null", null}, {"text", s}} {
		if _, ok := tc.v.IntOK(); ok && (tc.v.Null || tc.v.T != TypeInt) {
			t.Errorf("IntOK(%s) claimed ok", tc.name)
		}
		if _, ok := tc.v.FloatOK(); ok && (tc.v.Null || (tc.v.T != TypeFloat && tc.v.T != TypeInt)) {
			t.Errorf("FloatOK(%s) claimed ok", tc.name)
		}
		if _, ok := tc.v.BoolOK(); ok {
			t.Errorf("BoolOK(%s) claimed ok", tc.name)
		}
		if _, ok := tc.v.TimeOK(); ok {
			t.Errorf("TimeOK(%s) claimed ok", tc.name)
		}
		if _, ok := tc.v.DateDaysOK(); ok {
			t.Errorf("DateDaysOK(%s) claimed ok", tc.name)
		}
	}
	if _, ok := null.TextOK(); ok {
		t.Error("TextOK(null) claimed ok")
	}
	if _, ok := i.TextOK(); ok {
		t.Error("TextOK(int) claimed ok")
	}
	if _, ok := i.BoolOK(); ok {
		t.Error("BoolOK(int) claimed ok")
	}
}

func TestParseDate(t *testing.T) {
	v, err := ParseDate("1999-12-31")
	if err != nil {
		t.Fatalf("ParseDate: %v", err)
	}
	if v.String() != "1999-12-31" {
		t.Errorf("round trip = %s", v.String())
	}
	if _, err := ParseDate("not-a-date"); err == nil {
		t.Error("ParseDate accepted garbage")
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{NullValue(), "NULL"},
		{NewInt(-7), "-7"},
		{NewFloat(1.5), "1.5"},
		{NewText("x y"), "x y"},
		{NewBool(false), "false"},
		{NewDate(1970, time.January, 2), "1970-01-02"},
		{NewInt(math.MinInt64), "-9223372036854775808"},
		{NewFloat(math.Copysign(0, -1)), "-0"},
		{NewFloat(1e21), "1e+21"},
		{NewFloat(1e-7), "1e-07"},
		{NewFloat(5e-324), "5e-324"},
		{NewFloat(math.MaxFloat64), "1.7976931348623157e+308"},
		{NewFloat(math.NaN()), "NaN"},
		{NewFloat(math.Inf(-1)), "-Inf"},
		{NewBool(true), "true"},
		{NewDate(2024, time.February, 29), "2024-02-29"},
		{NewDateDays(-800_000), "-0221-09-04"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%#v) = %q, want %q", c.v, got, c.want)
		}
		if got := string(c.v.AppendTo([]byte("> "))); got != "> "+c.want {
			t.Errorf("AppendTo(%#v) = %q, want %q", c.v, got, "> "+c.want)
		}
	}
}

func TestSQLLiteralQuoting(t *testing.T) {
	if got := NewText("O'Brien").SQLLiteral(); got != "'O''Brien'" {
		t.Errorf("SQLLiteral = %s", got)
	}
	if got := NullValue().SQLLiteral(); got != "NULL" {
		t.Errorf("SQLLiteral(NULL) = %s", got)
	}
	if got := NewDate(2020, time.March, 1).SQLLiteral(); got != "'2020-03-01'" {
		t.Errorf("SQLLiteral(date) = %s", got)
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewInt(2), 1},
		{NewInt(1), NewFloat(1.5), -1},
		{NewFloat(2.5), NewInt(2), 1},
		{NewText("a"), NewText("b"), -1},
		{NewBool(false), NewBool(true), -1},
		{NewDate(2020, 1, 1), NewDate(2021, 1, 1), -1},
	}
	for _, c := range cases {
		got, err := Compare(c.a, c.b)
		if err != nil {
			t.Fatalf("Compare(%v,%v): %v", c.a, c.b, err)
		}
		if got != c.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareErrors(t *testing.T) {
	if _, err := Compare(NewInt(1), NewText("x")); err == nil {
		t.Error("Compare int/text did not error")
	}
	if _, err := Compare(NullValue(), NewInt(1)); err == nil {
		t.Error("Compare with NULL did not error")
	}
}

func TestCoerce(t *testing.T) {
	v, err := Coerce(NewInt(3), TypeFloat)
	if err != nil || v.Float() != 3.0 {
		t.Errorf("Coerce int→float = %v, %v", v, err)
	}
	v, err = Coerce(NewText("2020-06-14"), TypeDate)
	if err != nil || v.String() != "2020-06-14" {
		t.Errorf("Coerce text→date = %v, %v", v, err)
	}
	if _, err = Coerce(NewText("x"), TypeInt); err == nil {
		t.Error("Coerce text→int did not error")
	}
	v, err = Coerce(NullValue(), TypeInt)
	if err != nil || !v.Null {
		t.Errorf("Coerce NULL = %v, %v", v, err)
	}
}

// randomValue generates an arbitrary value for property tests.
func randomValue(r *rand.Rand) Value {
	switch r.Intn(6) {
	case 0:
		return NullValue()
	case 1:
		return NewInt(r.Int63n(2000) - 1000)
	case 2:
		return NewFloat(r.NormFloat64() * 100)
	case 3:
		letters := []rune("abcxyz '")
		n := r.Intn(8)
		s := make([]rune, n)
		for i := range s {
			s[i] = letters[r.Intn(len(letters))]
		}
		return NewText(string(s))
	case 4:
		return NewBool(r.Intn(2) == 0)
	default:
		return NewDateDays(int64(r.Intn(20000)))
	}
}

// Property: Key equality coincides with Equal.
func TestKeyAgreesWithEqual(t *testing.T) {
	f := func(seedA, seedB int64) bool {
		a := randomValue(rand.New(rand.NewSource(seedA)))
		b := randomValue(rand.New(rand.NewSource(seedB)))
		return (a.Key() == b.Key()) == a.Equal(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: Compare is antisymmetric on comparable pairs.
func TestCompareAntisymmetric(t *testing.T) {
	f := func(seedA, seedB int64) bool {
		a := randomValue(rand.New(rand.NewSource(seedA)))
		b := randomValue(rand.New(rand.NewSource(seedB)))
		c1, err1 := Compare(a, b)
		c2, err2 := Compare(b, a)
		if (err1 == nil) != (err2 == nil) {
			return false
		}
		if err1 != nil {
			return true
		}
		return c1 == -c2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: Compare is transitive over same-type values.
func TestCompareTransitiveInts(t *testing.T) {
	f := func(a, b, c int64) bool {
		va, vb, vc := NewInt(a), NewInt(b), NewInt(c)
		ab, _ := Compare(va, vb)
		bc, _ := Compare(vb, vc)
		ac, _ := Compare(va, vc)
		if ab <= 0 && bc <= 0 && ac > 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRowKeyAndClone(t *testing.T) {
	r := Row{NewInt(1), NewText("a")}
	s := Row{NewInt(1), NewText("a")}
	if r.Key() != s.Key() {
		t.Error("equal rows have different keys")
	}
	// Concatenation ambiguity: ("ab","c") must differ from ("a","bc").
	r1 := Row{NewText("ab"), NewText("c")}
	r2 := Row{NewText("a"), NewText("bc")}
	if r1.Key() == r2.Key() {
		t.Error("row key is ambiguous under concatenation")
	}
	cl := r.Clone()
	cl[0] = NewInt(99)
	if r[0].Int() != 1 {
		t.Error("Clone aliases the original")
	}
}

func TestAccessorPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("Int on text", func() { NewText("x").Int() })
	mustPanic("Text on null", func() { NullValue().Text() })
	mustPanic("Float on bool", func() { NewBool(true).Float() })
}

func TestTypeString(t *testing.T) {
	want := map[Type]string{TypeInt: "INT", TypeFloat: "FLOAT", TypeText: "TEXT", TypeBool: "BOOL", TypeDate: "DATE"}
	for ty, w := range want {
		if ty.String() != w {
			t.Errorf("%v.String() = %s, want %s", int(ty), ty.String(), w)
		}
	}
	if !TypeInt.Numeric() || !TypeFloat.Numeric() || TypeText.Numeric() {
		t.Error("Numeric() misclassifies")
	}
}

// Regression: int-vs-float equality, ordering, and hash keys must agree.
// Before the fix, Compare widened the int operand to float64, so
// 2^53+1 compared equal to 2.0^53 (both round to the same float), while
// Key() encoded 1 and 1.0 differently even though Equal said they were
// equal — group-by and hash joins disagreed with the comparator.
func TestCrossTypeNumericSemantics(t *testing.T) {
	big := int64(1) << 53 // 2^53: the first float64 precision cliff

	// Exact comparison beyond float53 precision.
	if c, err := Compare(NewInt(big+1), NewFloat(float64(big))); err != nil || c != 1 {
		t.Errorf("Compare(2^53+1, 2.0^53) = %d, %v; want 1 (exact, not widened)", c, err)
	}
	if c, err := Compare(NewFloat(float64(big)), NewInt(big+1)); err != nil || c != -1 {
		t.Errorf("Compare(2.0^53, 2^53+1) = %d, %v; want -1", c, err)
	}
	if NewInt(big + 1).Equal(NewFloat(float64(big))) {
		t.Error("2^53+1 must not Equal 2.0^53")
	}

	// Equal numerics must share one hash key across types.
	if NewInt(3).Key() != NewFloat(3).Key() {
		t.Errorf("Key(3) = %q vs Key(3.0) = %q; equal values need equal keys",
			NewInt(3).Key(), NewFloat(3).Key())
	}
	if NewFloat(math.Copysign(0, -1)).Key() != NewInt(0).Key() {
		t.Error("Key(-0.0) must equal Key(0)")
	}
	if NewFloat(0.5).Key() == NewInt(0).Key() {
		t.Error("Key(0.5) must differ from Key(0)")
	}
	if NewInt(big+1).Key() == NewFloat(float64(big)).Key() {
		t.Error("Key(2^53+1) must differ from Key(2.0^53)")
	}

	// NaN keeps its total-order position (smallest) and a single key.
	if c, _ := Compare(NewInt(0), NewFloat(math.NaN())); c != 1 {
		t.Errorf("Compare(0, NaN) = %d, want 1 (NaN sorts first)", c)
	}
	if c, _ := Compare(NewFloat(math.NaN()), NewInt(0)); c != -1 {
		t.Errorf("Compare(NaN, 0) = %d, want -1", c)
	}
	if NewFloat(math.NaN()).Key() != NewFloat(-math.NaN()).Key() {
		t.Error("all NaNs must share one key")
	}

	// Infinities order around every int64 and keep distinct keys.
	if c, _ := Compare(NewInt(math.MaxInt64), NewFloat(math.Inf(1))); c != -1 {
		t.Error("MaxInt64 must compare below +Inf")
	}
	if c, _ := Compare(NewInt(math.MinInt64), NewFloat(math.Inf(-1))); c != 1 {
		t.Error("MinInt64 must compare above -Inf")
	}
	if NewFloat(math.Inf(1)).Key() == NewFloat(math.Inf(-1)).Key() {
		t.Error("+Inf and -Inf must have distinct keys")
	}

	// Boundary: 2^63 as a float is strictly above MaxInt64.
	if c, _ := Compare(NewInt(math.MaxInt64), NewFloat(9223372036854775808.0)); c != -1 {
		t.Error("MaxInt64 must compare below 2.0^63")
	}
	if c, _ := Compare(NewInt(math.MinInt64), NewFloat(-9223372036854775808.0)); c != 0 {
		t.Error("MinInt64 must compare equal to -2.0^63")
	}
}

// Property: cross-type Key equality coincides with Equal on pairs built
// to hit the int/float boundary (the generic property test above almost
// never generates integral floats).
func TestCrossTypeKeyAgreesWithEqual(t *testing.T) {
	f := func(n int64, frac bool) bool {
		i := n % (1 << 60)
		var fv Value
		if frac {
			fv = NewFloat(float64(i) + 0.5)
		} else {
			fv = NewFloat(float64(i))
		}
		iv := NewInt(i)
		return (iv.Key() == fv.Key()) == iv.Equal(fv)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
