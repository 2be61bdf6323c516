package benchdata

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"nlidb/internal/dataset"
	"nlidb/internal/nlq"
	"nlidb/internal/sqldata"
	"nlidb/internal/sqlparse"
)

// --- schema introspection helpers -----------------------------------------

// filterTextCols lists TEXT columns other than the identifying one.
func filterTextCols(s *sqldata.Schema) []string {
	idc := nlq.FirstTextColumn(s)
	var out []string
	for _, c := range s.Columns {
		if c.Type == sqldata.TypeText && !strings.EqualFold(c.Name, idc) {
			out = append(out, strings.ToLower(c.Name))
		}
	}
	return out
}

// numericCols lists numeric columns that are neither keys nor foreign keys.
func numericCols(s *sqldata.Schema) []string {
	fk := map[string]bool{}
	for _, f := range s.ForeignKeys {
		fk[strings.ToLower(f.Column)] = true
	}
	var out []string
	for _, c := range s.Columns {
		if c.Type.Numeric() && !c.PrimaryKey && !fk[strings.ToLower(c.Name)] {
			out = append(out, strings.ToLower(c.Name))
		}
	}
	return out
}

// fkEdge is one foreign key relationship used by templates.
type fkEdge struct {
	child, childCol, parent, parentCol string
}

func edges(db *sqldata.Database) []fkEdge {
	var out []fkEdge
	for _, t := range db.Tables() {
		for _, fk := range t.Schema.ForeignKeys {
			out = append(out, fkEdge{
				child: strings.ToLower(t.Schema.Name), childCol: strings.ToLower(fk.Column),
				parent: strings.ToLower(fk.RefTable), parentCol: strings.ToLower(fk.RefColumn),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].child+out[i].childCol < out[j].child+out[j].childCol
	})
	return out
}

// plural renders a table name as the plural noun used in questions.
func plural(table string) string {
	w := strings.ToLower(table)
	switch {
	case strings.HasSuffix(w, "s"):
		return w
	case strings.HasSuffix(w, "y"):
		return w[:len(w)-1] + "ies"
	case strings.HasSuffix(w, "x") || strings.HasSuffix(w, "ch") || strings.HasSuffix(w, "sh"):
		return w + "es"
	default:
		return w + "s"
	}
}

// threshold picks a mid-range value of a numeric column so comparisons are
// neither empty nor all-rows, rendered as an integer literal.
func threshold(t *sqldata.Table, col string, r *rand.Rand) int64 {
	vals, err := t.ColumnValues(col)
	if err != nil || len(vals) == 0 {
		return 10
	}
	var nums []float64
	for _, v := range vals {
		if !v.Null && v.T.Numeric() {
			nums = append(nums, v.Float())
		}
	}
	if len(nums) == 0 {
		return 10
	}
	sort.Float64s(nums)
	idx := len(nums)*3/10 + r.Intn(len(nums)*4/10+1)
	if idx >= len(nums) {
		idx = len(nums) - 1
	}
	return int64(nums[idx])
}

// randomValue picks a random distinct text value of a column.
func randomValue(t *sqldata.Table, col string, r *rand.Rand) string {
	vals, err := t.DistinctText(col)
	if err != nil || len(vals) == 0 {
		return ""
	}
	return vals[r.Intn(len(vals))]
}

// --- template engine -------------------------------------------------------

var aggWords = []struct {
	word, fn string
}{
	{"average", "AVG"}, {"total", "SUM"}, {"highest", "MAX"}, {"lowest", "MIN"},
}

// GeneratePairs produces n labelled pairs of the requested complexity
// classes over the domain, seeded and deterministic. Classes with no
// applicable template in the domain are skipped.
func (d *Domain) GeneratePairs(n int, seed int64, classes ...nlq.Complexity) []dataset.Pair {
	if len(classes) == 0 {
		classes = []nlq.Complexity{nlq.Simple, nlq.Aggregation, nlq.Join, nlq.Nested}
	}
	r := rand.New(rand.NewSource(seed))
	var out []dataset.Pair
	attempts := 0
	for len(out) < n && attempts < n*30 {
		attempts++
		class := classes[r.Intn(len(classes))]
		q, sql, table := d.realize(class, r)
		if q == "" {
			continue
		}
		stmt, err := sqlparse.Parse(sql)
		if err != nil {
			panic(fmt.Sprintf("benchdata: generated invalid gold SQL %q: %v", sql, err))
		}
		out = append(out, dataset.Pair{
			ID:         fmt.Sprintf("%s-%d", d.Name, len(out)),
			Question:   q,
			SQL:        stmt,
			Table:      table,
			Complexity: class,
		})
	}
	return out
}

// realize instantiates one random template of the class; it returns empty
// strings when the rolled template has no valid ingredients.
func (d *Domain) realize(class nlq.Complexity, r *rand.Rand) (q, sql, table string) {
	switch class {
	case nlq.Simple:
		return d.realizeSimple(r)
	case nlq.Aggregation:
		return d.realizeAggregation(r)
	case nlq.Join:
		return d.realizeJoin(r)
	case nlq.Nested:
		return d.realizeNested(r)
	}
	return "", "", ""
}

// tablesWithText lists tables owning an identifying text column.
func (d *Domain) tablesWithText() []*sqldata.Table {
	var out []*sqldata.Table
	for _, t := range d.DB.Tables() {
		if nlq.FirstTextColumn(t.Schema) != "" {
			out = append(out, t)
		}
	}
	return out
}

func (d *Domain) realizeSimple(r *rand.Rand) (string, string, string) {
	tabs := d.tablesWithText()
	if len(tabs) == 0 {
		return "", "", ""
	}
	t := tabs[r.Intn(len(tabs))]
	name := strings.ToLower(t.Schema.Name)
	idc := nlq.FirstTextColumn(t.Schema)
	switch r.Intn(4) {
	case 3: // S4: two conditions, order randomized in both NL and gold
		fcols := filterTextCols(t.Schema)
		ncols := numericCols(t.Schema)
		if len(fcols) == 0 || len(ncols) == 0 {
			return "", "", ""
		}
		tcol := fcols[r.Intn(len(fcols))]
		ncol := ncols[r.Intn(len(ncols))]
		v := randomValue(t, tcol, r)
		if v == "" {
			return "", "", ""
		}
		n := threshold(t, ncol, r)
		op, phrase := cmpPhrase(r)
		c1 := fmt.Sprintf("%s %s", colPhrase(tcol), v)
		c2 := fmt.Sprintf("%s %s %d", colPhrase(ncol), phrase, n)
		w1 := fmt.Sprintf("%s = '%s'", tcol, escape(v))
		w2 := fmt.Sprintf("%s %s %d", ncol, op, n)
		// Condition order in the question and in the gold SQL are drawn
		// independently, as in WikiSQL: the order of WHERE conditions
		// carries no signal. (This is what the A1 ablation leans on.)
		if r.Intn(2) == 0 {
			c1, c2 = c2, c1
		}
		if r.Intn(2) == 0 {
			w1, w2 = w2, w1
		}
		return fmt.Sprintf("list %s with %s and %s", plural(name), c1, c2),
			fmt.Sprintf("SELECT %s FROM %s WHERE %s AND %s", idc, name, w1, w2), name
	case 0: // S1: attribute of a named entity
		var others []string
		for _, c := range t.Schema.Columns {
			lc := strings.ToLower(c.Name)
			if !c.PrimaryKey && lc != idc && !isFK(t.Schema, lc) {
				others = append(others, lc)
			}
		}
		if len(others) == 0 {
			return "", "", ""
		}
		col := others[r.Intn(len(others))]
		v := randomValue(t, idc, r)
		if v == "" {
			return "", "", ""
		}
		return fmt.Sprintf("what is the %s of the %s %s", colPhrase(col), name, v),
			fmt.Sprintf("SELECT %s FROM %s WHERE %s = '%s'", col, name, idc, escape(v)), name
	case 1: // S2: categorical filter
		fcols := filterTextCols(t.Schema)
		if len(fcols) == 0 {
			return "", "", ""
		}
		col := fcols[r.Intn(len(fcols))]
		v := randomValue(t, col, r)
		if v == "" {
			return "", "", ""
		}
		return fmt.Sprintf("list %s with %s %s", plural(name), colPhrase(col), v),
			fmt.Sprintf("SELECT %s FROM %s WHERE %s = '%s'", idc, name, col, escape(v)), name
	default: // S3: numeric filter
		ncols := numericCols(t.Schema)
		if len(ncols) == 0 {
			return "", "", ""
		}
		col := ncols[r.Intn(len(ncols))]
		n := threshold(t, col, r)
		op, phrase := cmpPhrase(r)
		return fmt.Sprintf("show %s with %s %s %d", plural(name), colPhrase(col), phrase, n),
			fmt.Sprintf("SELECT %s FROM %s WHERE %s %s %d", idc, name, col, op, n), name
	}
}

func (d *Domain) realizeAggregation(r *rand.Rand) (string, string, string) {
	tabs := d.tablesWithText()
	if len(tabs) == 0 {
		return "", "", ""
	}
	t := tabs[r.Intn(len(tabs))]
	name := strings.ToLower(t.Schema.Name)
	idc := nlq.FirstTextColumn(t.Schema)
	ncols := numericCols(t.Schema)
	switch r.Intn(5) {
	case 0: // A1: plain count
		return fmt.Sprintf("how many %s are there", plural(name)),
			fmt.Sprintf("SELECT COUNT(*) FROM %s", name), name
	case 1: // A2: count with numeric filter
		if len(ncols) == 0 {
			return "", "", ""
		}
		col := ncols[r.Intn(len(ncols))]
		n := threshold(t, col, r)
		op, phrase := cmpPhrase(r)
		return fmt.Sprintf("how many %s have %s %s %d", plural(name), colPhrase(col), phrase, n),
			fmt.Sprintf("SELECT COUNT(*) FROM %s WHERE %s %s %d", name, col, op, n), name
	case 2: // A3: global aggregate
		if len(ncols) == 0 {
			return "", "", ""
		}
		col := ncols[r.Intn(len(ncols))]
		a := aggWords[r.Intn(len(aggWords))]
		return fmt.Sprintf("what is the %s %s of %s", a.word, colPhrase(col), plural(name)),
			fmt.Sprintf("SELECT %s(%s) FROM %s", a.fn, col, name), name
	case 3: // A4: group by
		fcols := filterTextCols(t.Schema)
		if len(ncols) == 0 || len(fcols) == 0 {
			return "", "", ""
		}
		col := ncols[r.Intn(len(ncols))]
		g := fcols[r.Intn(len(fcols))]
		a := aggWords[r.Intn(2)] // average / total group naturally
		return fmt.Sprintf("%s %s of %s by %s", a.word, colPhrase(col), plural(name), colPhrase(g)),
			fmt.Sprintf("SELECT %s, %s(%s) FROM %s GROUP BY %s", g, a.fn, col, name, g), name
	default: // A5: top-k
		if len(ncols) == 0 {
			return "", "", ""
		}
		col := ncols[r.Intn(len(ncols))]
		k := r.Intn(4) + 2
		return fmt.Sprintf("top %d %s by %s", k, plural(name), colPhrase(col)),
			fmt.Sprintf("SELECT %s FROM %s ORDER BY %s DESC LIMIT %d", idc, name, col, k), name
	}
}

func (d *Domain) realizeJoin(r *rand.Rand) (string, string, string) {
	es := edges(d.DB)
	if len(es) == 0 {
		return "", "", ""
	}
	e := es[r.Intn(len(es))]
	child := d.DB.Table(e.child)
	parent := d.DB.Table(e.parent)
	cid := nlq.FirstTextColumn(child.Schema)
	pid := nlq.FirstTextColumn(parent.Schema)
	if pid == "" {
		return "", "", ""
	}
	switch r.Intn(3) {
	case 0: // J1: children of a named parent
		if cid == "" {
			return "", "", ""
		}
		v := randomValue(parent, pid, r)
		if v == "" {
			return "", "", ""
		}
		return fmt.Sprintf("%s of the %s %s", plural(e.child), e.parent, v),
			fmt.Sprintf("SELECT %s.%s FROM %s JOIN %s ON %s.%s = %s.%s WHERE %s.%s = '%s'",
				e.child, cid, e.child, e.parent, e.child, e.childCol, e.parent, e.parentCol,
				e.parent, pid, escape(v)), ""
	case 1: // J2: aggregate over children of a named parent
		ncols := numericCols(child.Schema)
		if len(ncols) == 0 {
			return "", "", ""
		}
		col := ncols[r.Intn(len(ncols))]
		v := randomValue(parent, pid, r)
		if v == "" {
			return "", "", ""
		}
		a := aggWords[r.Intn(len(aggWords))]
		return fmt.Sprintf("%s %s of %s of the %s %s", a.word, colPhrase(col), plural(e.child), e.parent, v),
			fmt.Sprintf("SELECT %s(%s.%s) FROM %s JOIN %s ON %s.%s = %s.%s WHERE %s.%s = '%s'",
				a.fn, e.child, col, e.child, e.parent, e.child, e.childCol, e.parent, e.parentCol,
				e.parent, pid, escape(v)), ""
	default: // J3: count of children per parent
		return fmt.Sprintf("count of %s per %s", plural(e.child), e.parent),
			fmt.Sprintf("SELECT %s.%s, COUNT(*) FROM %s JOIN %s ON %s.%s = %s.%s GROUP BY %s.%s",
				e.parent, pid, e.child, e.parent, e.child, e.childCol, e.parent, e.parentCol,
				e.parent, pid), ""
	}
}

func (d *Domain) realizeNested(r *rand.Rand) (string, string, string) {
	switch r.Intn(3) {
	case 0: // N1: above-average
		tabs := d.tablesWithText()
		var cands []*sqldata.Table
		for _, t := range tabs {
			if len(numericCols(t.Schema)) > 0 {
				cands = append(cands, t)
			}
		}
		if len(cands) == 0 {
			return "", "", ""
		}
		t := cands[r.Intn(len(cands))]
		name := strings.ToLower(t.Schema.Name)
		idc := nlq.FirstTextColumn(t.Schema)
		ncols := numericCols(t.Schema)
		col := ncols[r.Intn(len(ncols))]
		return fmt.Sprintf("%s with %s greater than the average %s", plural(name), colPhrase(col), colPhrase(col)),
			fmt.Sprintf("SELECT %s FROM %s WHERE %s > (SELECT AVG(%s) FROM %s)", idc, name, col, col, name), name
	case 1: // N2: parents without children
		es := edges(d.DB)
		if len(es) == 0 {
			return "", "", ""
		}
		e := es[r.Intn(len(es))]
		parent := d.DB.Table(e.parent)
		pid := nlq.FirstTextColumn(parent.Schema)
		if pid == "" {
			return "", "", ""
		}
		childPK := firstColumn(d.DB.Table(e.child).Schema)
		return fmt.Sprintf("%s without %s", plural(e.parent), plural(e.child)),
			fmt.Sprintf("SELECT %s FROM %s WHERE NOT (EXISTS (SELECT %s.%s FROM %s WHERE %s.%s = %s.%s))",
				pid, e.parent, e.child, childPK, e.child, e.child, e.childCol, e.parent, e.parentCol), ""
	default: // N3: parents with more than k children
		es := edges(d.DB)
		if len(es) == 0 {
			return "", "", ""
		}
		e := es[r.Intn(len(es))]
		parent := d.DB.Table(e.parent)
		pid := nlq.FirstTextColumn(parent.Schema)
		if pid == "" {
			return "", "", ""
		}
		k := r.Intn(3) + 1
		childPK := firstColumn(d.DB.Table(e.child).Schema)
		return fmt.Sprintf("%s with more than %d %s", plural(e.parent), k, plural(e.child)),
			fmt.Sprintf("SELECT %s.%s FROM %s JOIN %s ON %s.%s = %s.%s GROUP BY %s.%s HAVING COUNT(%s.%s) > %d",
				e.parent, pid, e.child, e.parent, e.child, e.childCol, e.parent, e.parentCol,
				e.parent, pid, e.child, childPK, k), ""
	}
}

func firstColumn(s *sqldata.Schema) string { return strings.ToLower(s.Columns[0].Name) }

func isFK(s *sqldata.Schema, col string) bool {
	for _, fk := range s.ForeignKeys {
		if strings.EqualFold(fk.Column, col) {
			return true
		}
	}
	return false
}

// colPhrase renders a column identifier as natural words.
func colPhrase(col string) string { return strings.ReplaceAll(col, "_", " ") }

func escape(s string) string { return strings.ReplaceAll(s, "'", "''") }

// cmpPhrase picks a comparison operator with a canonical NL phrasing.
func cmpPhrase(r *rand.Rand) (op, phrase string) {
	switch r.Intn(4) {
	case 0:
		return ">", "over"
	case 1:
		return ">", "greater than"
	case 2:
		return "<", "under"
	default:
		return "<", "below"
	}
}
