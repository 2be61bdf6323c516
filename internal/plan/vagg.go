package plan

import (
	"cmp"
	"math/bits"

	"nlidb/internal/obs"
	"nlidb/internal/sqldata"
)

// Grouping and aggregation for the vectorized executor. Every aggregate runs
// as one typed loop per (aggregate, argument type) over slot ids — groups, or
// join keys that are combined into groups afterwards — and a grouped plan
// whose last join is a foreign-key join aggregates through it: one pass over
// the fact side that probes the key and accumulates, with no joined working
// set in between. A tuple that belongs to no slot (unmatched, or skipped for
// a NULL argument) is compacted away before the loops, which therefore have
// no branch on it: running it through them, even into a spare slot, would
// chain every such tuple's update to the last one's through one memory word.

// aggOp is the accumulator loop an aggregate runs.
type aggOp uint8

const (
	opCount       aggOp = iota // COUNT, and any aggregate of a statically NULL argument
	opSumInt                   // SUM over INT: int64 plus a carry word, add128 exactly
	opFsum                     // SUM over FLOAT, AVG over INT or FLOAT: a float64 sum
	opMinMaxInt                // MIN/MAX over INT, DATE, or BOOL as 0/1
	opMinMaxFloat              // MIN/MAX over FLOAT
	opMinMaxText               // MIN/MAX over TEXT: the best payload position
)

// aggState is one aggregate's accumulators by slot. cnt counts the tuples
// accumulated: COUNT's value, and for the others whether the slot has any.
type aggState struct {
	a   *bAgg
	op  aggOp
	max bool
	arg vcol // the argument lane: how to read a TEXT position, how to box the best value
	cnt []int64
	w   []int64   // INT SUM: low word; MIN/MAX over INT/DATE/BOOL: the best value, over TEXT: its position
	hi  []int64   // INT SUM: carry word
	f   []float64 // FLOAT SUM, AVG: the sum; MIN/MAX over FLOAT: the best value
}

// empty returns zeroed accumulators over n slots shaped like s.
func (s *aggState) empty(a *arena, n int) aggState {
	d := aggState{a: s.a, op: s.op, max: s.max, arg: s.arg, cnt: a.i64.zeros(n)}
	switch s.op {
	case opSumInt:
		d.w, d.hi = a.i64.zeros(n), a.i64.zeros(n)
	case opMinMaxInt, opMinMaxText:
		d.w = a.i64.zeros(n)
	case opFsum, opMinMaxFloat:
		d.f = a.f64.zeros(n)
	}
	return d
}

// aggregate runs every aggregate of the plan over the tuples of ws (ctx is
// over ws) into out: tuple i goes to slot ids[i].
func (r *vrun) aggregate(ctx *vctx, ws wset, ids []int32, nslots int, out []aggState) {
	for i, a := range r.v.aggs {
		var arg lane
		if !a.star {
			arg = r.colLane(ctx, ws, a.arg)
		}
		r.accumulate(&out[i], a, &arg, ids, nslots)
	}
}

// accumulate runs one aggregate in tuple order — so float sums add up
// exactly as the row executor's do, and MIN/MAX keep the first of equal
// values — over the tuples it does not skip (live).
func (r *vrun) accumulate(s *aggState, a *bAgg, arg *lane, ids []int32, nslots int) {
	*s = aggState{a: a, max: a.name == "MAX", cnt: r.a.i64.zeros(nslots)}
	if a.star {
		countLoop(ids, s.cnt)
		return
	}
	if arg.c.cnst {
		if arg.c.nullAt(0) {
			return // statically NULL: COUNT 0, every other aggregate NULL
		}
		one := lane{c: arg.c, sel: r.a.i32.zeros(len(ids))} // every tuple reads element 0
		one.c.cnst = false
		arg = &one
	}
	ids, arg = r.live(a, arg, ids, nslots)
	c, sel := &arg.c, arg.sel
	s.arg = *c
	switch {
	case a.name == "COUNT":
		countLoop(ids, s.cnt)
	case a.name == "SUM" && c.t == sqldata.TypeInt:
		s.op, s.w, s.hi = opSumInt, r.a.i64.zeros(nslots), r.a.i64.zeros(nslots)
		sumIntLoop(c.ints, sel, ids, s.w, s.hi, s.cnt)
	case a.name == "SUM" || a.name == "AVG":
		s.op, s.f = opFsum, r.a.f64.zeros(nslots)
		if c.t == sqldata.TypeFloat {
			fsumLoop(c.floats, sel, ids, s.f, s.cnt)
		} else {
			fsumLoop(c.ints, sel, ids, s.f, s.cnt)
		}
	case c.t == sqldata.TypeFloat:
		s.op, s.f = opMinMaxFloat, r.a.f64.zeros(nslots)
		minMaxFloatLoop(c.floats, sel, ids, s.f, s.cnt, s.max)
	case c.t == sqldata.TypeText:
		s.op, s.w = opMinMaxText, r.a.i64.zeros(nslots)
		minMaxTextLoop(c, sel, ids, s.w, s.cnt, s.max)
	default:
		s.op, s.w = opMinMaxInt, r.a.i64.zeros(nslots)
		vals := c.ints
		if c.t == sqldata.TypeBool {
			vals, _ = r.keyWords(arg, len(ids), false, nil) // 0/1 in tuple order
			sel = nil
		}
		minMaxIntLoop(vals, sel, ids, s.w, s.cnt, s.max)
	}
}

// live returns the tuples aggregate a accumulates, as their slot ids and
// the argument lane over them: all but NULL arguments and, for DISTINCT,
// all but the first tuple of each (slot, value) — ids and arg themselves
// when it skips none.
func (r *vrun) live(a *bAgg, arg *lane, ids []int32, nslots int) ([]int32, *lane) {
	null := arg.c.null
	if null == nil && !a.distinct {
		return ids, arg
	}
	var fresh []bool
	if a.distinct {
		fresh = r.freshMask(arg, ids, nslots) // never fresh: NULL arguments
	}
	kept, sel := r.a.i32.raw(len(ids)), r.a.i32.raw(len(ids))
	o := 0
	for i, g := range ids {
		p := arg.at(i)
		kept[o], sel[o] = g, int32(p)
		if fresh != nil {
			o += b2i(fresh[i])
		} else {
			o += b2i(!null[p])
		}
	}
	return kept[:o], &lane{c: arg.c, sel: sel[:o]}
}

func countLoop(ids []int32, cnt []int64) {
	if len(cnt) == 1 { // every id is 0
		cnt[0] += int64(len(ids))
		return
	}
	for _, g := range ids {
		cnt[g]++
	}
}

func sumIntLoop(vals []int64, sel, ids []int32, lo, hi, cnt []int64) {
	for i, g := range ids {
		p := i
		if sel != nil {
			p = int(sel[i])
		}
		v := vals[p]
		s, c := bits.Add64(uint64(lo[g]), uint64(v), 0)
		lo[g], hi[g] = int64(s), hi[g]+v>>63+int64(c)
		cnt[g]++
	}
}

func fsumLoop[T int64 | float64](vals []T, sel, ids []int32, sum []float64, cnt []int64) {
	for i, g := range ids {
		p := i
		if sel != nil {
			p = int(sel[i])
		}
		sum[g] += float64(vals[p])
		cnt[g]++
	}
}

// The MIN/MAX loops replace the best value only on a strict improvement,
// so the first of equal values stays: under sqldata.Compare, -0 equals 0
// and NaN equals NaN (and sorts below every number).

func minMaxIntLoop(vals []int64, sel, ids []int32, best, cnt []int64, max bool) {
	for i, g := range ids {
		p := i
		if sel != nil {
			p = int(sel[i])
		}
		if v, b := vals[p], best[g]; cnt[g] == 0 || max && v > b || !max && v < b {
			best[g] = v
		}
		cnt[g]++
	}
}

func minMaxFloatLoop(vals []float64, sel, ids []int32, best []float64, cnt []int64, max bool) {
	for i, g := range ids {
		p := i
		if sel != nil {
			p = int(sel[i])
		}
		if v, b := vals[p], best[g]; cnt[g] == 0 || max && (v > b || b != b && v == v) || !max && (v < b || v != v && b == b) {
			best[g] = v
		}
		cnt[g]++
	}
}

func minMaxTextLoop(c *vcol, sel, ids []int32, best, cnt []int64, max bool) {
	for i, g := range ids {
		p := i
		if sel != nil {
			p = int(sel[i])
		}
		if cnt[g] == 0 || better(c.textAt(p), c.textAt(int(best[g])), max) {
			best[g] = int64(p)
		}
		cnt[g]++
	}
}

// better reports whether v strictly beats the best so far, in the loops'
// order: cmp.Compare orders exactly like sqldata.Compare on one type.
func better[T int64 | float64 | string](v, best T, max bool) bool {
	c := cmp.Compare(v, best)
	return max && c > 0 || !max && c < 0
}

// mergeInto folds slot k of s into slot g of d, after what d already holds:
// exact for COUNT, INT SUM and MIN/MAX whatever the split, and for a float
// sum only when slot g receives no other slot.
func (s *aggState) mergeInto(d *aggState, g, k int32) {
	n := s.cnt[k]
	if n == 0 {
		return
	}
	first := d.cnt[g] == 0
	d.cnt[g] += n
	switch s.op {
	case opSumInt:
		lo, c := bits.Add64(uint64(d.w[g]), uint64(s.w[k]), 0)
		d.w[g], d.hi[g] = int64(lo), d.hi[g]+s.hi[k]+int64(c)
	case opFsum:
		d.f[g] += s.f[k] // 0 + x == x: a sum that starts at +0 is never -0
	case opMinMaxInt:
		if first || better(s.w[k], d.w[g], s.max) {
			d.w[g] = s.w[k]
		}
	case opMinMaxFloat:
		if first || better(s.f[k], d.f[g], s.max) {
			d.f[g] = s.f[k]
		}
	case opMinMaxText:
		if first || better(s.arg.textAt(int(s.w[k])), s.arg.textAt(int(d.w[g])), s.max) {
			d.w[g] = s.w[k]
		}
	}
}

// value boxes slot g's aggregate.
func (s *aggState) value(g int) sqldata.Value {
	switch {
	case s.a.name == "COUNT":
		return sqldata.NewInt(s.cnt[g])
	case s.cnt[g] == 0:
		return sqldata.NullValue()
	}
	switch s.op {
	case opSumInt:
		return int128Value(uint64(s.hi[g]), uint64(s.w[g]))
	case opFsum:
		if s.a.name == "AVG" {
			return sqldata.NewFloat(s.f[g] / float64(s.cnt[g]))
		}
		return sqldata.NewFloat(s.f[g])
	case opMinMaxFloat:
		return sqldata.NewFloat(s.f[g])
	case opMinMaxText:
		return sqldata.NewText(s.arg.textAt(int(s.w[g])))
	}
	switch s.arg.t {
	case sqldata.TypeBool:
		return sqldata.NewBool(s.w[g] != 0)
	case sqldata.TypeDate:
		return sqldata.NewDateDays(s.w[g])
	}
	return sqldata.NewInt(s.w[g])
}

// grouping is a grouped plan's result before HAVING and projection: n groups
// (a global aggregate has one, even over no tuples), the first tuple of each
// non-empty group as a position in the working set, and every aggregate's
// accumulators by group.
type grouping struct {
	n    int
	rep  []int32
	aggs []aggState
}

// groupIDs numbers the tuples of ws (ctx is over ws) by the plan's group
// keys: equal ids exactly when every key's Value.Key is equal, in first-
// appearance order, NULL a key value like any other; rep[g] is the first
// tuple of group g. With no group keys every tuple is in group 0.
func (r *vrun) groupIDs(ctx *vctx, ws wset) (gids, rep []int32) {
	if len(r.p.groupKeys) == 0 {
		return r.a.i32.zeros(ws.n), r.a.i32.zeros(min(ws.n, 1))
	}
	kcols := make([]lane, len(r.p.groupKeys))
	for i, k := range r.p.groupKeys {
		kcols[i] = r.colLane(ctx, ws, k)
	}
	return r.keyGroupIDs(kcols, ws.n)
}

// runGrouped groups and aggregates the materialized working set.
func (r *vrun) runGrouped() error {
	p, n := r.p, r.ws.n
	var gsp *obs.Span
	if len(p.groupKeys) > 0 {
		gsp = r.env.span.Child("group")
	}
	ctx := r.wsCtx()
	gids, rep := r.groupIDs(ctx, r.ws)
	ngroups := len(rep)
	if len(p.groupKeys) == 0 {
		ngroups = 1
	}
	r.groupSpan(gsp, n, ngroups)
	if err := r.st.checkCtx(); err != nil {
		return err
	}
	r.groups = grouping{n: ngroups, rep: rep, aggs: make([]aggState, len(r.v.aggs))}
	r.aggregate(ctx, r.ws, gids, ngroups, r.groups.aggs)
	return nil
}

// groupSpan closes the group span (nil without group keys, like the row
// executor's) and fills the group stat slot.
func (r *vrun) groupSpan(gsp *obs.Span, in, groups int) {
	if gsp != nil {
		gsp.Add("in_rows", int64(in))
		gsp.Add("groups", int64(groups))
		gsp.End()
	}
	r.env.setStat(r.p.nidGroup, groups)
}

// emitGroups runs HAVING and the projection over one frame per group of
// r.groups: the group's first tuple boxed (all NULL for an empty global
// group) with its aggregates attached.
func (r *vrun) emitGroups() (*sqldata.Result, error) {
	p, st, g := r.p, r.st, &r.groups
	if err := st.checkCtx(); err != nil {
		return nil, err
	}
	var out []outRow
	for gid := 0; gid < g.n; gid++ {
		var row sqldata.Row
		if gid < len(g.rep) {
			row = r.boxTuple(int(g.rep[gid]))
		} else {
			row = nullRow(p.width)
		}
		var am map[*bAgg]sqldata.Value
		if len(g.aggs) > 0 {
			am = make(map[*bAgg]sqldata.Value, len(g.aggs))
			for i := range g.aggs {
				am[g.aggs[i].a] = g.aggs[i].value(gid)
			}
		}
		fr := &frame{row: row, parent: r.env.parent, aggVals: am}
		if p.having != nil {
			ok, err := evalPredicate(st, fr, p.having)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
		}
		if err := p.emitFrame(st, fr, &out); err != nil {
			return nil, err
		}
	}
	return p.finishRows(r.env, out, len(out))
}

// keyCounts counts the tuples of each key id (-1: none) and records the
// first; unique says no id has two. pos and kept are the tuples that have
// an id, in order, and their ids — collected in the same pass, which costs
// less than a second pass over a selective join's ids.
func (r *vrun) keyCounts(ids []int32, nk int32) (cnt, first, pos, kept []int32, unique bool) {
	cnt, first = r.a.i32.zeros(int(nk)), r.a.i32.raw(int(nk))
	pos, kept = r.a.i32.raw(len(ids)), r.a.i32.raw(len(ids))
	o := 0
	for p, k := range ids {
		if k < 0 {
			continue
		}
		if cnt[k] == 0 {
			first[k] = int32(p)
		}
		cnt[k]++
		pos[o], kept[o] = int32(p), k
		o++
	}
	unique = true
	for _, c := range cnt {
		unique = unique && c <= 1
	}
	return cnt, first, pos[:o], kept[:o], unique
}

// aggregateThrough runs the plan's last join and its grouping as one pass,
// when the join's keys prove unique on the side the group keys read (the
// dimension) and the aggregate arguments read only the other side (the
// fact side): every matched fact tuple then meets exactly one dimension
// tuple, so it can be accumulated where it is, with no joined working set.
// lctx is over the working set. It reports false when the keys are not
// unique, or a float sum would have to be combined across the keys of one
// group: the caller then joins as usual. Otherwise it leaves the groups in
// r.groups, and the join and group spans, stat slots and join-row charge
// are the general path's.
func (r *vrun) aggregateThrough(j *vjoinStep, sp *obs.Span, lctx *vctx, rsel []int32, rn int, lkid, rkid []int32, nk int32) (bool, error) {
	rtab, leftN := j.right.tabIdx, r.ws.n
	rowOf := func(pos int32) int32 {
		if rsel == nil {
			return pos
		}
		return rsel[pos]
	}
	rcnt, rfirst, rpos, rkept, rightUnique := r.keyCounts(rkid, nk)
	keyed := len(r.p.groupKeys) > 0
	right := func() (*vctx, wset) { // the right table's rows, as tuples
		ws := wset{n: rn, idx: make([][]int32, len(r.ws.idx))}
		ws.idx[rtab] = rsel
		return r.ctxOver(ws), ws
	}

	// Each group's first joined tuple: working-set tuple, right row.
	var lrep, rrep []int32
	states := make([]aggState, 2*len(r.v.aggs)) // by group, and by key before they are combined
	aggs, perKey := states[:len(r.v.aggs)], states[len(r.v.aggs):]
	outN, ng, ngroups := 0, int32(0), 0
	var accumulate func()
	switch {
	case r.v.fuse.dimRight && rightUnique:
		// The fact side is the working set, in its own (the output's) order.
		// Each right row is numbered by the group keys, and its number
		// becomes a group at the first probe that meets it.
		var dg, drep []int32
		if keyed {
			dg, drep = r.groupIDs(right())
		} else {
			dg, drep = r.a.i32.zeros(rn), r.a.i32.zeros(min(rn, 1))
		}
		lrep, rrep = r.a.i32.raw(len(drep)), r.a.i32.raw(len(drep))
		remap := r.a.i32.fill(len(drep), -1)
		// kg[k+1]: key k's group once a probe has met it, -2 before, -1
		// when no right row has key k (and kg[0], for tuples with no key).
		kg := r.a.i32.fill(int(nk)+1, -1)
		for _, k := range rkid {
			kg[k+1] = -2
		}
		kg[0] = -1
		pos, gids := r.a.i32.raw(leftN), r.a.i32.raw(leftN) // matched tuples, their groups
		for i, k := range lkid {
			g := kg[k+1]
			if g == -2 {
				d := dg[rfirst[k]]
				if g = remap[d]; g < 0 {
					g, remap[d] = ng, ng
					lrep[ng], rrep[ng] = int32(i), rowOf(rfirst[k])
					ng++
				}
				kg[k+1] = g
			}
			pos[outN], gids[outN] = int32(i), g
			outN += 1 + int(g>>31)
		}
		accumulate = func() {
			if outN == leftN { // pos is 0..leftN-1
				r.aggregate(lctx, r.ws, gids, ngroups, aggs)
				return
			}
			mws := r.restrict(pos[:outN])
			r.aggregate(r.ctxOver(mws), mws, gids[:outN], ngroups, aggs)
		}

	case r.v.fuse.dimLeft:
		if _, _, _, _, leftUnique := r.keyCounts(lkid, nk); !leftUnique {
			return false, nil
		}
		// The fact side is the right table, accumulated per key in scan
		// order — within one working-set tuple, the output's order. Keys
		// become groups in working-set order, skipping unmatched tuples,
		// and each group's keys are combined in that order.
		dg, drep := r.groupIDs(lctx, r.ws)
		lrep, rrep = r.a.i32.raw(len(drep)), r.a.i32.raw(len(drep))
		remap := r.a.i32.fill(len(drep), -1)
		kg := r.a.i32.raw(int(nk))
		shared := false // some group owns several keys
		for i, k := range lkid {
			if k < 0 || rcnt[k] == 0 {
				continue
			}
			g := remap[dg[i]]
			if g < 0 {
				g, remap[dg[i]] = ng, ng
				lrep[ng], rrep[ng] = int32(i), rowOf(rfirst[k])
				ng++
			} else {
				shared = true
			}
			kg[k] = g
			outN += int(rcnt[k])
		}
		if shared && !r.v.fuse.merge {
			return false, nil
		}
		accumulate = func() {
			rws, ids := wset{n: rn, idx: make([][]int32, len(r.ws.idx))}, rkid
			rws.idx[rtab] = rsel
			if len(rpos) < rn { // only the right rows with a key
				for i, p := range rpos {
					rpos[i] = rowOf(p)
				}
				rws.n, rws.idx[rtab], ids = len(rpos), rpos, rkept
			}
			r.aggregate(r.ctxOver(rws), rws, ids, int(nk), perKey)
			for ai := range perKey {
				aggs[ai] = perKey[ai].empty(r.a, ngroups)
			}
			for _, k := range lkid {
				if k >= 0 && rcnt[k] > 0 {
					for ai := range perKey {
						perKey[ai].mergeInto(&aggs[ai], kg[k], k)
					}
				}
			}
		}

	default:
		return false, nil
	}

	// Committed: close and charge the join as joinStep would, then group.
	sp.Add("out_rows", int64(outN))
	sp.SetAttr("agg", "fused")
	sp.End()
	r.env.setFused(j.nid)
	if err := r.st.addJoinRows(outN); err != nil {
		return true, err
	}
	r.env.setStat(j.nid, outN)
	var gsp *obs.Span
	if keyed {
		gsp = r.env.span.Child("group")
	}
	ngroups = max(int(ng), b2i(!keyed))
	r.groupSpan(gsp, outN, ngroups)
	accumulate()
	r.ws = r.joined(lrep[:ng], rrep[:ng], rtab, false)
	r.placed = rtab + 1
	rep := r.a.i32.raw(int(ng))
	for i := range rep {
		rep[i] = int32(i)
	}
	r.groups = grouping{n: ngroups, rep: rep, aggs: aggs}
	return true, r.st.checkCtx()
}
