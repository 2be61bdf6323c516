package sqldata

import "math"

// ColStats summarizes one column for the cost-based planner: row and
// null counts, an NDV (number-of-distinct-values) estimate, min/max,
// and a small equi-width histogram over numeric and date columns.
// Stats are built together with the columnar cache (see column.go), so
// they are maintained on CSV load and refreshed after Insert on the
// next read.
type ColStats struct {
	Rows  int
	Nulls int
	// NDV estimates the number of distinct non-NULL values: exact up to
	// ndvExactLimit, a linear-counting sketch beyond it.
	NDV      int
	NDVExact bool
	// Min and Max are valid only when HasMinMax (at least one non-NULL
	// value in an ordered type).
	Min, Max  Value
	HasMinMax bool

	// hist counts non-NULL values in histBuckets equi-width buckets over
	// [lo, lo + width*histBuckets); numeric and date columns only.
	hist  []int
	lo    float64
	width float64
}

const (
	ndvExactLimit = 4096
	ndvSketchBits = 1 << 16
	histBuckets   = 16
)

// NullFrac returns the fraction of rows that are NULL.
func (s *ColStats) NullFrac() float64 {
	if s.Rows == 0 {
		return 0
	}
	return float64(s.Nulls) / float64(s.Rows)
}

// EqSelectivity estimates the fraction of rows matching column = const:
// the non-NULL fraction spread uniformly over the distinct values.
func (s *ColStats) EqSelectivity() float64 {
	if s.Rows == 0 || s.NDV == 0 {
		return 0
	}
	return (1 - s.NullFrac()) / float64(s.NDV)
}

// FracBelow estimates the fraction of ALL rows with value < x (or ≤ x
// when orEqual), using the histogram when present and linear
// interpolation over [min, max] otherwise. Only meaningful for numeric
// and date columns; callers fall back to a default selectivity when
// HasMinMax is false.
func (s *ColStats) FracBelow(x float64, orEqual bool) float64 {
	if s.Rows == 0 || !s.HasMinMax {
		return 0.5
	}
	nonNull := float64(s.Rows - s.Nulls)
	if nonNull == 0 {
		return 0
	}
	lo, hi, ok := s.numericRange()
	if !ok {
		return 0.5
	}
	if x < lo || (x == lo && !orEqual) {
		return 0
	}
	if x > hi || (x == hi && orEqual) {
		return nonNull / float64(s.Rows)
	}
	var frac float64
	if len(s.hist) > 0 && s.width > 0 {
		b := int((x - s.lo) / s.width)
		if b >= len(s.hist) {
			b = len(s.hist) - 1
		}
		below := 0
		for i := 0; i < b; i++ {
			below += s.hist[i]
		}
		within := float64(s.hist[b]) * (x - (s.lo + float64(b)*s.width)) / s.width
		frac = (float64(below) + within) / nonNull
	} else if hi > lo {
		frac = (x - lo) / (hi - lo)
	} else {
		frac = 0.5
	}
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	return frac * nonNull / float64(s.Rows)
}

func (s *ColStats) numericRange() (lo, hi float64, ok bool) {
	l, lok := s.Min.FloatOK()
	h, hok := s.Max.FloatOK()
	if lok && hok {
		return l, h, true
	}
	ld, lok := s.Min.DateDaysOK()
	hd, hok := s.Max.DateDaysOK()
	if lok && hok {
		return float64(ld), float64(hd), true
	}
	return 0, 0, false
}

func buildColStats(cv *ColumnVector) *ColStats {
	s := &ColStats{Rows: cv.Len}
	if cv.Nulls != nil {
		s.Nulls = cv.Nulls.Count()
	}
	if cv.Len == s.Nulls {
		return s
	}

	// One pass for min/max and the NDV sketch.
	nd := newNDVCounter()
	first := true
	var minV, maxV Value
	for i := 0; i < cv.Len; i++ {
		if cv.Null(i) {
			continue
		}
		nd.add(ndvHash(cv, i))
		v := cv.Value(i)
		if first {
			minV, maxV = v, v
			first = false
			continue
		}
		if c, err := Compare(v, minV); err == nil && c < 0 {
			minV = v
		}
		if c, err := Compare(v, maxV); err == nil && c > 0 {
			maxV = v
		}
	}
	s.Min, s.Max, s.HasMinMax = minV, maxV, !first
	s.NDV, s.NDVExact = nd.estimate()
	if s.NDV > cv.Len-s.Nulls {
		s.NDV = cv.Len - s.Nulls
	}
	if s.NDV < 1 {
		s.NDV = 1
	}

	// Second pass: equi-width histogram over numeric/date columns.
	if lo, hi, ok := s.numericRange(); ok && !math.IsNaN(lo) && !math.IsNaN(hi) && hi > lo {
		s.lo = lo
		s.width = (hi - lo) / histBuckets
		s.hist = make([]int, histBuckets)
		for i := 0; i < cv.Len; i++ {
			if cv.Null(i) {
				continue
			}
			var x float64
			switch cv.Type {
			case TypeInt, TypeDate:
				x = float64(cv.Ints[i])
			case TypeFloat:
				x = cv.Floats[i]
			default:
				continue
			}
			if math.IsNaN(x) {
				continue
			}
			b := int((x - lo) / s.width)
			if b < 0 {
				b = 0
			}
			if b >= histBuckets {
				b = histBuckets - 1
			}
			s.hist[b]++
		}
	}
	return s
}

// ndvCounter estimates distinct values: exact (a hash set) up to
// ndvExactLimit entries, then a linear-counting bitmap — cheap, bounded
// memory, and accurate within a few percent for NDVs up to ~2× the
// sketch size, which is plenty for selectivity math.
type ndvCounter struct {
	exact    map[uint64]struct{}
	overflow bool
	bits     []uint64
	zeros    int
}

func newNDVCounter() *ndvCounter {
	return &ndvCounter{
		exact: make(map[uint64]struct{}),
		bits:  make([]uint64, ndvSketchBits/64),
		zeros: ndvSketchBits,
	}
}

func (n *ndvCounter) add(h uint64) {
	b := h & (ndvSketchBits - 1)
	if n.bits[b>>6]&(1<<(b&63)) == 0 {
		n.bits[b>>6] |= 1 << (b & 63)
		n.zeros--
	}
	if !n.overflow {
		n.exact[h] = struct{}{}
		if len(n.exact) > ndvExactLimit {
			n.overflow = true
			n.exact = nil
		}
	}
}

func (n *ndvCounter) estimate() (ndv int, exact bool) {
	if !n.overflow {
		return len(n.exact), true
	}
	if n.zeros <= 0 {
		// Sketch saturated; report its ceiling and let the caller clamp
		// to the row count.
		return ndvSketchBits * 8, false
	}
	m := float64(ndvSketchBits)
	return int(m * math.Log(m/float64(n.zeros))), false
}

// ndvHash hashes slot i of a column for distinct counting. Floats are
// canonicalized the same way as Value.Key (integral values hash as
// ints, -0 as 0, all NaNs together) so the estimate counts distinct
// mathematical values.
func ndvHash(cv *ColumnVector, i int) uint64 {
	switch cv.Type {
	case TypeInt, TypeDate:
		return mix64(uint64(cv.Ints[i]))
	case TypeFloat:
		f := cv.Floats[i]
		if math.IsNaN(f) {
			return mix64(0x7ff8_dead_beef_0001)
		}
		if f == math.Trunc(f) && f >= -maxInt64Float && f < maxInt64Float {
			return mix64(uint64(int64(f)))
		}
		return mix64(math.Float64bits(f))
	case TypeText:
		const offset64, prime64 = 14695981039346656037, 1099511628211
		h := uint64(offset64)
		s := cv.Dict[cv.Codes[i]]
		for j := 0; j < len(s); j++ {
			h ^= uint64(s[j])
			h *= prime64
		}
		return h
	case TypeBool:
		if cv.Bools[i] {
			return mix64(1)
		}
		return mix64(2)
	default:
		return 0
	}
}

// mix64 is the SplitMix64 finalizer: a fast, well-distributed 64-bit
// mixer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
