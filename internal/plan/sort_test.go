package plan

import (
	"context"
	"testing"

	"nlidb/internal/sqldata"
	"nlidb/internal/sqlparse"
)

// sortDB is the ORDER BY fixture: NULLs in both sort columns and
// duplicate ranks so ties and NULL placement are both exercised. Row
// insert order is the tie-breaker the stable sort must preserve.
func sortDB() *sqldata.Database {
	db := sqldata.NewDatabase("sortdb")
	tbl, err := db.CreateTable(&sqldata.Schema{
		Name: "entry",
		Columns: []sqldata.Column{
			{Name: "id", Type: sqldata.TypeInt, PrimaryKey: true},
			{Name: "rank", Type: sqldata.TypeInt},
			{Name: "label", Type: sqldata.TypeText},
		},
	})
	if err != nil {
		panic(err)
	}
	null := sqldata.NullValue()
	for _, r := range []struct {
		id    int64
		rank  sqldata.Value
		label sqldata.Value
	}{
		{1, sqldata.NewInt(2), sqldata.NewText("b")},
		{2, null, sqldata.NewText("n1")},
		{3, sqldata.NewInt(1), sqldata.NewText("a")},
		{4, sqldata.NewInt(2), sqldata.NewText("b2")}, // ties rank=2 with id 1
		{5, null, sqldata.NewText("n2")},              // second NULL, after id 2
		{6, sqldata.NewInt(3), null},                  // NULL label
		{7, sqldata.NewInt(1), sqldata.NewText("a")},  // ties (1,"a") with id 3
	} {
		tbl.MustInsert(sqldata.NewInt(r.id), r.rank, r.label)
	}
	return db
}

func TestOrderByLimit(t *testing.T) {
	db := sortDB()
	cases := []struct {
		name string
		sql  string
		ids  []string // expected first column, in order
	}{
		{
			name: "asc nulls first, ties keep insert order",
			sql:  "SELECT id FROM entry ORDER BY rank ASC",
			ids:  []string{"2", "5", "3", "7", "1", "4", "6"},
		},
		{
			name: "desc nulls last, ties keep insert order",
			sql:  "SELECT id FROM entry ORDER BY rank DESC",
			ids:  []string{"6", "1", "4", "3", "7", "2", "5"},
		},
		{
			name: "secondary key breaks primary ties",
			sql:  "SELECT id FROM entry ORDER BY rank ASC, id DESC",
			ids:  []string{"5", "2", "7", "3", "4", "1", "6"},
		},
		{
			name: "null label sorts last descending",
			sql:  "SELECT id FROM entry ORDER BY label DESC",
			ids:  []string{"5", "2", "4", "1", "3", "7", "6"},
		},
		{
			name: "limit truncates after sort",
			sql:  "SELECT id FROM entry ORDER BY rank DESC LIMIT 3",
			ids:  []string{"6", "1", "4"},
		},
		{
			name: "limit zero yields no rows",
			sql:  "SELECT id FROM entry ORDER BY rank ASC LIMIT 0",
			ids:  nil,
		},
		{
			name: "limit larger than input is a no-op",
			sql:  "SELECT id FROM entry ORDER BY id ASC LIMIT 99",
			ids:  []string{"1", "2", "3", "4", "5", "6", "7"},
		},
		{
			name: "limit without order keeps scan order",
			sql:  "SELECT id FROM entry LIMIT 2",
			ids:  []string{"1", "2"},
		},
		{
			name: "order by select alias",
			sql:  "SELECT id AS n FROM entry WHERE rank IS NOT NULL ORDER BY n DESC LIMIT 2",
			ids:  []string{"7", "6"},
		},
		{
			name: "order by aggregate with limit",
			// Counts tie at 2 for ranks NULL, 1, and 2; rank ASC puts the
			// NULL group first.
			sql: "SELECT rank, COUNT(*) FROM entry GROUP BY rank ORDER BY COUNT(*) DESC, rank ASC LIMIT 2",
			ids: []string{"NULL", "1"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := Prepare(db, sqlparse.MustParse(tc.sql))
			if err != nil {
				t.Fatalf("prepare: %v", err)
			}
			res, _, err := p.Run(context.Background(), DefaultBudget())
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			var got []string
			for _, r := range res.Rows {
				got = append(got, r[0].String())
			}
			if len(got) != len(tc.ids) {
				t.Fatalf("got %v, want %v", got, tc.ids)
			}
			for i := range got {
				if got[i] != tc.ids[i] {
					t.Fatalf("row %d: got %v, want %v", i, got, tc.ids)
				}
			}
		})
	}
}
