package benchdata

import (
	"fmt"
	"math/rand"
	"strings"

	"nlidb/internal/dataset"
	"nlidb/internal/nlq"
	"nlidb/internal/sqldata"
	"nlidb/internal/sqlparse"
)

// Conversations generates a SParC/CoSQL-style multi-turn corpus: each
// conversation opens with a self-contained question and continues with
// context-dependent follow-ups (refinement, aggregation, projection
// shift) whose gold SQL is the fully resolved query.
func Conversations(d *Domain, n int, seed int64) *dataset.ConvSet {
	r := rand.New(rand.NewSource(seed))
	set := &dataset.ConvSet{Name: "sparc-" + d.Name, DB: d.DB}
	attempts := 0
	for len(set.Conversations) < n && attempts < n*40 {
		attempts++
		conv := d.makeConversation(r, fmt.Sprintf("c-%s-%d", d.Name, len(set.Conversations)))
		if conv == nil {
			continue
		}
		set.Conversations = append(set.Conversations, *conv)
	}
	return set
}

// makeConversation builds one 3-4 turn conversation, or nil when the
// rolled ingredients don't support it.
func (d *Domain) makeConversation(r *rand.Rand, id string) *dataset.Conversation {
	// The anchor table needs an identifying column, a categorical filter
	// or a join parent, and at least two numeric columns (refine + shift).
	var anchorTbl *sqldata.Table
	var opening, openingSQL string
	if r.Intn(2) == 0 {
		// Single-table opening (S2-style).
		for _, t := range d.tablesWithText() {
			if len(filterTextCols(t.Schema)) > 0 && len(numericCols(t.Schema)) >= 2 {
				anchorTbl = t
				break
			}
		}
		if anchorTbl == nil {
			return nil
		}
		name := strings.ToLower(anchorTbl.Schema.Name)
		idc := nlq.FirstTextColumn(anchorTbl.Schema)
		fcols := filterTextCols(anchorTbl.Schema)
		col := fcols[r.Intn(len(fcols))]
		v := randomValue(anchorTbl, col, r)
		if v == "" {
			return nil
		}
		opening = fmt.Sprintf("list %s with %s %s", plural(name), colPhrase(col), v)
		openingSQL = fmt.Sprintf("SELECT %s FROM %s WHERE %s = '%s'", idc, name, col, escape(v))
	} else {
		// Join opening (J1-style).
		for _, e := range edges(d.DB) {
			child := d.DB.Table(e.child)
			parent := d.DB.Table(e.parent)
			if nlq.FirstTextColumn(child.Schema) == "" || nlq.FirstTextColumn(parent.Schema) == "" {
				continue
			}
			if len(numericCols(child.Schema)) < 2 {
				continue
			}
			v := randomValue(parent, nlq.FirstTextColumn(parent.Schema), r)
			if v == "" {
				continue
			}
			anchorTbl = child
			opening = fmt.Sprintf("show %s of the %s %s", plural(e.child), e.parent, v)
			openingSQL = fmt.Sprintf("SELECT %s.%s FROM %s JOIN %s ON %s.%s = %s.%s WHERE %s.%s = '%s'",
				e.child, nlq.FirstTextColumn(child.Schema), e.child, e.parent,
				e.child, e.childCol, e.parent, e.parentCol,
				e.parent, nlq.FirstTextColumn(parent.Schema), escape(v))
			break
		}
		if anchorTbl == nil {
			return nil
		}
	}

	base, err := sqlparse.Parse(openingSQL)
	if err != nil {
		panic(fmt.Sprintf("benchdata: bad conversation gold %q: %v", openingSQL, err))
	}
	conv := &dataset.Conversation{ID: id}
	conv.Turns = append(conv.Turns, dataset.Turn{Utterance: opening, SQL: base, Kind: dataset.TurnFull})

	anchor := strings.ToLower(anchorTbl.Schema.Name)
	ncols := numericCols(anchorTbl.Schema)
	qualify := len(base.From.Joins) > 0

	colref := func(c string) string {
		if qualify {
			return anchor + "." + c
		}
		return c
	}

	// Turn 2: refinement.
	rc := ncols[0]
	nval := threshold(anchorTbl, rc, r)
	op, phrase := cmpPhrase(r)
	refined := clone(base)
	cond := &sqlparse.BinaryExpr{
		Op: op,
		L:  mustCol(colref(rc)),
		R:  &sqlparse.Literal{Val: sqldata.NewInt(nval)},
	}
	if refined.Where == nil {
		refined.Where = cond
	} else {
		refined.Where = &sqlparse.BinaryExpr{Op: "AND", L: refined.Where, R: cond}
	}
	conv.Turns = append(conv.Turns, dataset.Turn{
		Utterance: fmt.Sprintf("only those with %s %s %d", colPhrase(rc), phrase, nval),
		SQL:       refined, Kind: dataset.TurnRefine,
	})

	// Turn 3: aggregate over the current result.
	agg := clone(refined)
	agg.Items = []sqlparse.SelectItem{{Expr: &sqlparse.FuncCall{Name: "COUNT", Star: true}}}
	conv.Turns = append(conv.Turns, dataset.Turn{
		Utterance: "how many are there",
		SQL:       agg, Kind: dataset.TurnAggregate,
	})

	// Turn 4 (half the conversations): projection shift back to rows.
	if r.Intn(2) == 0 && len(ncols) >= 2 {
		sc := ncols[1]
		shift := clone(refined)
		shift.Items = []sqlparse.SelectItem{{Expr: mustCol(colref(sc))}}
		conv.Turns = append(conv.Turns, dataset.Turn{
			Utterance: fmt.Sprintf("show their %s instead", colPhrase(sc)),
			SQL:       shift, Kind: dataset.TurnShift,
		})
	}
	return conv
}

// clone deep-copies a statement via print/parse.
func clone(s *sqlparse.SelectStmt) *sqlparse.SelectStmt {
	return sqlparse.MustParse(s.String())
}

// mustCol builds a (possibly qualified) column reference.
func mustCol(ref string) *sqlparse.ColumnRef {
	if i := strings.IndexByte(ref, '.'); i >= 0 {
		return &sqlparse.ColumnRef{Table: ref[:i], Column: ref[i+1:]}
	}
	return &sqlparse.ColumnRef{Column: ref}
}
