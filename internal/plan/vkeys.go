package plan

import (
	"math"
	"slices"
	"sync"

	"nlidb/internal/sqldata"
)

// Scratch memory and typed keys for the vectorized executor. Everything a
// run shuffles between operators — selection vectors, masks, gathered
// lanes, key words, group ids, join candidates, accumulators — is carved
// out of one arena that goes back to a package-level pool when the run
// returns, and every value that is hashed (group keys, join keys,
// DISTINCT aggregate arguments) is first reduced to one int64 per tuple,
// so no per-row string is ever built.

// slab is a bump allocator over one reusable buffer of a pointer-free
// element type. A request that does not fit is served from the heap and
// remembered, so the next run's buffer is large enough.
type slab[T any] struct {
	buf   []T
	off   int
	spill int
	last  *T // first element of the latest raw result: what shrink may cut back
}

// maxSlabElems bounds what one slab keeps between runs; a run that
// needed more pays the heap for the excess every time.
const maxSlabElems = 8 << 20

// raw returns n elements with arbitrary contents: for outputs whose every
// element is written before it is read.
func (s *slab[T]) raw(n int) []T {
	var out []T
	if s.off+n > len(s.buf) {
		s.spill += n
		out = make([]T, n)
	} else {
		out = s.buf[s.off : s.off+n : s.off+n]
		s.off += n
	}
	s.last = nil
	if n > 0 {
		s.last = &out[0]
	}
	return out
}

// zeros returns n zeroed elements.
func (s *slab[T]) zeros(n int) []T {
	out := s.raw(n)
	clear(out)
	return out
}

// fill returns n elements set to v.
func (s *slab[T]) fill(n int, v T) []T {
	out := s.raw(n)
	for i := range out {
		out[i] = v
	}
	return out
}

// shrink keeps the first keep elements of buf and, when buf is the latest
// raw result, gives the rest back: an output written at its upper bound
// costs the run, and the next run's buffer, only what it came to hold. A
// buffer that something was allocated after is cut but not given back.
func (s *slab[T]) shrink(buf []T, keep int) []T {
	if n := len(buf); n > 0 && &buf[0] == s.last {
		if s.off >= n && &s.buf[s.off-n] == s.last {
			s.off -= n - keep
		} else {
			s.spill -= n - keep // it was served from the heap
		}
	}
	return buf[:keep:keep]
}

func (s *slab[T]) reset() {
	if s.spill > 0 {
		need := s.off + s.spill
		s.buf = make([]T, min(need+need/4, maxSlabElems))
	}
	s.off, s.spill, s.last = 0, 0, nil
}

// arena is one run's scratch memory. Nothing reachable from a returned
// Result may point into it.
type arena struct {
	i32 slab[int32]
	i64 slab[int64]
	f64 slab[float64]
	b   slab[bool]
}

var arenaPool = sync.Pool{New: func() any { return new(arena) }}

func getArena() *arena { return arenaPool.Get().(*arena) }

func (a *arena) release() {
	a.i32.reset()
	a.i64.reset()
	a.f64.reset()
	a.b.reset()
	arenaPool.Put(a)
}

// interner numbers distinct strings densely in first-appearance order. The
// two sides of a text join key share one, which is what makes a code from
// one table's dictionary comparable with a code from another's.
type interner struct{ ids map[string]int32 }

func (in *interner) id(s string) int32 {
	id, ok := in.ids[s]
	if !ok {
		if in.ids == nil {
			in.ids = map[string]int32{}
		}
		id = int32(len(in.ids))
		in.ids[s] = id
	}
	return id
}

// nanWord is the one key word of every NaN: the bits of the canonical
// quiet NaN, which no other float reduces to.
var nanWord = int64(math.Float64bits(math.NaN()))

// keyWords reduces lane l to one int64 per tuple plus a mask of the
// tuples that have no key (NULL; nil when there are none). Two keyed
// tuples — of this lane, or of the other side of a join pair reduced with
// the same interner — get equal words exactly when Value.Key, and for a
// join hashKey, call their values equal: a text lane reduces to its
// dictionary code (through the interner when in is non-nil or the lane
// has no dictionary), INT and DATE to the value, BOOL to 0/1, and FLOAT
// to its bits with every NaN folded into one word and -0 into 0. When
// the other side of a join pair is INT (intOnly), a FLOAT lane instead
// reduces to the equal integer, and a lane that equals no int64 — a
// fraction, NaN, out of range — loses its key: no INT can match it, so
// an integral float and the bits of a fractional one never share a word.
func (r *vrun) keyWords(l *lane, n int, intOnly bool, in *interner) ([]int64, []bool) {
	a, c, sel := r.a, &l.c, l.sel
	if c.cnst {
		words := a.i64.zeros(n)
		if c.nullAt(0) {
			return words, a.b.fill(n, true)
		}
		one := lane{c: *c}
		one.c.cnst = false
		w, null := r.keyWords(&one, 1, intOnly, in)
		if null != nil && null[0] {
			return words, a.b.fill(n, true)
		}
		for i := range words {
			words[i] = w[0]
		}
		return words, nil
	}
	at := func(i int) int { // l.at for a lane known not to be constant
		if sel != nil {
			return int(sel[i])
		}
		return i
	}
	null := c.null
	if sel != nil && null != nil { // the column's mask, by row: bring it to tuple order
		null = a.b.raw(n)
		for i, row := range sel[:n] {
			null[i] = c.null[row]
		}
	}
	switch c.t {
	case sqldata.TypeInt, sqldata.TypeDate:
		if sel == nil {
			return c.ints[:n], null
		}
		words := a.i64.raw(n)
		for i, row := range sel[:n] {
			words[i] = c.ints[row]
		}
		return words, null

	case sqldata.TypeBool:
		words := a.i64.raw(n)
		for i := range words {
			words[i] = int64(b2i(c.bools[at(i)]))
		}
		return words, null

	case sqldata.TypeFloat:
		words := a.i64.raw(n)
		owned := sel != nil && null != nil // else null is shared with the lane until a key is dropped
		for i := range words {
			f := c.floats[at(i)]
			switch {
			case intOnly:
				var ok bool
				if words[i], ok = sqldata.FloatAsInt(f); ok {
					continue
				}
				if !owned {
					own := a.b.zeros(n)
					copy(own, null)
					null, owned = own, true
				}
				null[i] = true
			case f != f:
				words[i] = nanWord
			case f == 0:
				words[i] = 0
			default:
				words[i] = int64(math.Float64bits(f))
			}
		}
		return words, null

	case sqldata.TypeText:
		words := a.i64.raw(n)
		switch {
		case c.codes != nil && in == nil:
			for i := range words {
				words[i] = int64(c.codes[at(i)])
			}
		case c.codes != nil:
			// Once per dictionary entry, never per row.
			xlat := a.i32.raw(len(c.dict))
			for d, s := range c.dict {
				xlat[d] = in.id(s)
			}
			for i := range words {
				if code := c.codes[at(i)]; code >= 0 {
					words[i] = int64(xlat[code])
				} else {
					words[i] = 0
				}
			}
		default:
			if in == nil {
				in = &interner{}
			}
			for i := range words {
				if null != nil && null[i] {
					words[i] = 0
				} else {
					words[i] = int64(in.id(c.texts[i]))
				}
			}
		}
		return words, null
	}
	return a.i64.zeros(n), null
}

// keyTable numbers distinct key words densely, in first-appearance
// order: a direct array when the words span a range comparable to the
// number of tuples (dictionary codes, foreign keys, booleans, folded
// pairs), a map[int64] otherwise.
type keyTable struct {
	lo    int64
	dense []int32 // id+1 per word-lo; 0 = unseen. nil ⇒ m
	m     map[int64]int32
	n     int32 // ids handed out
	nulls int32 // the id shared by tuples without a key, or -1
}

// newKeyTable prepares a table for the given words (those masked by null
// excepted).
func (r *vrun) newKeyTable(words []int64, null []bool) *keyTable {
	lo, hi, any := int64(0), int64(0), false
	for i, w := range words {
		if null != nil && null[i] {
			continue
		}
		if !any {
			lo, hi, any = w, w, true
		} else if w < lo {
			lo = w
		} else if w > hi {
			hi = w
		}
	}
	return r.newKeyTableRange(lo, hi, len(words))
}

// newKeyTableRange prepares a table for n words known to lie in [lo, hi].
func (r *vrun) newKeyTableRange(lo, hi int64, n int) *keyTable {
	t := &keyTable{lo: lo, nulls: -1}
	if span := uint64(hi) - uint64(lo); span < uint64(2*n+1024) {
		t.dense = r.a.i32.zeros(int(span) + 1)
	} else {
		t.m = make(map[int64]int32)
	}
	return t
}

// assign writes every tuple's key id to ids, numbering unseen words as it
// goes. Tuples without a key share one id of their own when groupNulls
// (GROUP BY puts NULLs in one group), else get -1 (a join never matches
// them).
func (t *keyTable) assign(words []int64, null []bool, ids []int32, groupNulls bool) {
	for i, w := range words {
		if null != nil && null[i] {
			if !groupNulls {
				ids[i] = -1
				continue
			}
			if t.nulls < 0 {
				t.nulls = t.n
				t.n++
			}
			ids[i] = t.nulls
			continue
		}
		if t.dense != nil {
			id := t.dense[w-t.lo]
			if id == 0 {
				t.n++
				id = t.n
				t.dense[w-t.lo] = id
			}
			ids[i] = id - 1
			continue
		}
		id, ok := t.m[w]
		if !ok {
			id = t.n
			t.n++
			t.m[w] = id
		}
		ids[i] = id
	}
}

// lookupInts is lookup over an INT or DATE lane without NULLs, read in
// place — its values are its words — through a direct table: the
// foreign-key probe, without copying the key column.
func (t *keyTable) lookupInts(l *lane, ids []int32) {
	vals, sel, dense, lo := l.c.ints, l.sel, t.dense, uint64(t.lo)
	for i := range ids {
		p := i
		if sel != nil {
			p = int(sel[i])
		}
		id := int32(-1)
		if off := uint64(vals[p]) - lo; off < uint64(len(dense)) {
			id = dense[off] - 1
		}
		ids[i] = id
	}
}

// lookup writes the id assign gave each tuple's word, or -1.
func (t *keyTable) lookup(words []int64, null []bool, ids []int32) {
	for i, w := range words {
		switch {
		case null != nil && null[i]:
			ids[i] = -1
		case t.dense != nil:
			if off := uint64(w) - uint64(t.lo); off < uint64(len(t.dense)) {
				ids[i] = t.dense[off] - 1
			} else {
				ids[i] = -1
			}
		default:
			if id, ok := t.m[w]; ok {
				ids[i] = id
			} else {
				ids[i] = -1
			}
		}
	}
}

// pairWords folds two id lanes into one word lane, id a·card + b, so a
// composite key is numbered by the same tables as a single one. A tuple
// with a negative id on either side has no key.
func (r *vrun) pairWords(a, b []int32, card int32) ([]int64, []bool) {
	words := r.a.i64.raw(len(a))
	var null []bool
	for i := range a {
		if a[i] < 0 || b[i] < 0 {
			if null == nil {
				null = r.a.b.zeros(len(a))
			}
			null[i] = true
			words[i] = 0
			continue
		}
		words[i] = int64(a[i])*int64(card) + int64(b[i])
	}
	return words, null
}

// keyGroupIDs numbers n tuples by their key lanes: equal ids exactly when
// every lane's Value.Key is equal, ids in first-appearance order, NULL a
// key value like any other. rep[g] is the first tuple of group g.
func (r *vrun) keyGroupIDs(kcols []lane, n int) (gids, rep []int32) {
	if len(kcols) == 1 {
		if gids, rep, ok := r.denseGroupIDs(&kcols[0], n); ok {
			return gids, rep
		}
	}
	gids = r.a.i32.raw(n)
	var card int32
	for k := range kcols {
		words, null := r.keyWords(&kcols[k], n, false, nil)
		t := r.newKeyTable(words, null)
		if k == 0 {
			t.assign(words, null, gids, true)
			card = t.n
			continue
		}
		lane := r.a.i32.raw(n)
		t.assign(words, null, lane, true)
		pw, _ := r.pairWords(gids, lane, t.n)
		pt := r.newKeyTableRange(0, int64(card)*int64(t.n)-1, n)
		pt.assign(pw, nil, gids, true)
		card = pt.n
	}
	return gids, firstOf(r.a, gids, card)
}

// denseGroupIDs is keyGroupIDs for one key whose values index a small table
// directly — a dictionary code, or an INT/DATE whose range is comparable to
// the tuple count — numbering groups and recording first tuples in the same
// pass. Slot 0 is NULL's (a code is -1 exactly when NULL). ok is false for
// any other key.
func (r *vrun) denseGroupIDs(l *lane, n int) (gids, rep []int32, ok bool) {
	c, sel := &l.c, l.sel
	if c.cnst {
		return nil, nil, false
	}
	codes, ints, null := c.codes, c.ints, c.null
	var lo int64 // slot of an INT value v: v - lo; of a code: code + 1
	size := 0
	switch {
	case c.t == sqldata.TypeText && c.texts == nil:
		size = len(c.dict) + 1
	case c.t == sqldata.TypeInt || c.t == sqldata.TypeDate:
		mn, mx, any := int64(0), int64(0), false
		for i := 0; i < n; i++ {
			p := i
			if sel != nil {
				p = int(sel[i])
			}
			if null != nil && null[p] {
				continue
			}
			if v := ints[p]; !any {
				mn, mx, any = v, v, true
			} else {
				mn, mx = min(mn, v), max(mx, v)
			}
		}
		span := uint64(mx) - uint64(mn)
		if span >= uint64(2*n+1024) {
			return nil, nil, false
		}
		lo, size = mn-1, int(span)+2
	default:
		return nil, nil, false
	}
	slot := r.a.i32.zeros(size) // group id + 1; 0 = unseen
	gids, rep = r.a.i32.raw(n), r.a.i32.raw(min(n, size))
	ng := int32(0)
	for i := range gids {
		p := i
		if sel != nil {
			p = int(sel[i])
		}
		var s int32
		switch {
		case codes != nil:
			s = codes[p] + 1
		case null == nil || !null[p]:
			s = int32(uint64(ints[p]) - uint64(lo))
		}
		id := slot[s]
		if id == 0 {
			rep[ng] = int32(i)
			ng++
			id, slot[s] = ng, ng
		}
		gids[i] = id - 1
	}
	return gids, r.a.i32.shrink(rep, int(ng)), true
}

// firstOf returns, for ids numbered in first-appearance order, the first
// position of each.
func firstOf(a *arena, ids []int32, card int32) []int32 {
	rep := a.i32.raw(int(card))
	next := int32(0)
	for i, id := range ids {
		if id == next {
			rep[next] = int32(i)
			next++
		}
	}
	return rep
}

// joinKeyIDs numbers the equi-key tuples of both join inputs in one id
// space: lkid[i] == rkid[pos] >= 0 exactly when left tuple i and right
// position pos agree on every key pair under hashKey; -1 marks a tuple
// that can match nothing (a NULL component, or a key the build side never
// produced). Ids come from the build side; nk is how many there are.
func (r *vrun) joinKeyIDs(lk, rk []lane, leftN, rn int, buildLeft bool) (lkid, rkid []int32, nk int32) {
	lkid, rkid = r.a.i32.raw(leftN), r.a.i32.raw(rn)
	bid, pid := rkid, lkid
	bk, pk, bn, pn := rk, lk, rn, leftN
	if buildLeft {
		bid, pid = lkid, rkid
		bk, pk, bn, pn = lk, rk, leftN, rn
	}
	for k := range lk {
		var in *interner
		if lk[k].c.t == sqldata.TypeText {
			in = &interner{}
		}
		bw, bnull := r.keyWords(&bk[k], bn, bk[k].c.t == sqldata.TypeFloat && pk[k].c.t == sqldata.TypeInt, in)
		t := r.newKeyTable(bw, bnull)
		if k == 0 {
			t.assign(bw, bnull, bid, false)
			nk = t.n
			if p := &pk[k]; len(lk) == 1 && t.dense != nil && !p.c.cnst && p.c.null == nil && (p.c.t == sqldata.TypeInt || p.c.t == sqldata.TypeDate) {
				t.lookupInts(p, pid)
				continue
			}
			pw, pnull := r.keyWords(&pk[k], pn, pk[k].c.t == sqldata.TypeFloat && bk[k].c.t == sqldata.TypeInt, in)
			t.lookup(pw, pnull, pid)
			continue
		}
		pw, pnull := r.keyWords(&pk[k], pn, pk[k].c.t == sqldata.TypeFloat && bk[k].c.t == sqldata.TypeInt, in)
		blane, plane := r.a.i32.raw(len(bw)), r.a.i32.raw(len(pw))
		t.assign(bw, bnull, blane, false)
		t.lookup(pw, pnull, plane)
		bpw, bpnull := r.pairWords(bid, blane, t.n)
		ppw, ppnull := r.pairWords(pid, plane, t.n)
		pt := r.newKeyTableRange(0, int64(nk)*int64(t.n)-1, len(bw))
		pt.assign(bpw, bpnull, bid, false)
		pt.lookup(ppw, ppnull, pid)
		nk = pt.n
	}
	return lkid, rkid, nk
}

// freshMask marks, in tuple order, the first tuple of every distinct
// (group, argument value) pair: what an aggregate's DISTINCT keeps. NULL
// arguments are never fresh.
func (r *vrun) freshMask(arg *lane, gids []int32, ngroups int) []bool {
	n := len(gids)
	words, null := r.keyWords(arg, n, false, nil)
	t := r.newKeyTable(words, null)
	ids := r.a.i32.raw(n)
	t.assign(words, null, ids, false)
	pw, pnull := r.pairWords(ids, gids, int32(ngroups))
	pt := r.newKeyTable(pw, pnull)
	pt.assign(pw, pnull, ids, false)
	fresh := r.a.b.zeros(n)
	for _, i := range firstOf(r.a, ids, pt.n) {
		fresh[i] = true
	}
	return fresh
}

// topK returns, in output order, the positions of the k elements of
// 0..n-1 that a stable sort under cmp puts first: a size-k max-heap on
// (cmp, position), then a sort of the survivors. cmp must be a total
// preorder that cannot fail.
func topK(n, k int, cmp func(i, j int32) int) []int32 {
	order := func(i, j int32) int {
		if c := cmp(i, j); c != 0 {
			return c
		}
		return int(i - j)
	}
	after := func(i, j int32) bool { return order(i, j) > 0 }
	h := make([]int32, 0, k)
	if k == 0 {
		return h
	}
	for i := int32(0); int(i) < n; i++ {
		if len(h) < k {
			h = append(h, i)
			for c := len(h) - 1; c > 0; {
				parent := (c - 1) / 2
				if !after(h[c], h[parent]) {
					break
				}
				h[c], h[parent] = h[parent], h[c]
				c = parent
			}
			continue
		}
		if !after(h[0], i) {
			continue
		}
		h[0] = i
		for p := 0; ; {
			big := p
			if l := 2*p + 1; l < k && after(h[l], h[big]) {
				big = l
			}
			if rr := 2*p + 2; rr < k && after(h[rr], h[big]) {
				big = rr
			}
			if big == p {
				break
			}
			h[p], h[big] = h[big], h[p]
			p = big
		}
	}
	slices.SortFunc(h, order)
	return h
}
