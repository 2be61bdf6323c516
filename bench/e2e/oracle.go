package main

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"nlidb/internal/sqldata"
	"nlidb/internal/sqlexec"
	"nlidb/internal/sqlparse"
)

// oracle runs gold statements on the benchmark's own copy of the data and
// compares the served rows with theirs.
type oracle struct {
	eng *sqlexec.Engine
}

func newOracle(db *sqldata.Database) *oracle { return &oracle{eng: sqlexec.New(db)} }

// gold runs a gold statement and returns its rows as the server would
// print them, and whether their order matters (the statement has ORDER BY).
// An unparsable or failing gold statement is a benchmark bug.
func (o *oracle) gold(sql string) (rows [][]string, ordered bool, err error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, false, fmt.Errorf("gold statement %q: %w", sql, err)
	}
	res, err := o.eng.RunContext(context.Background(), stmt, sqlexec.DefaultBudget())
	if err != nil {
		return nil, false, fmt.Errorf("gold statement %q: %w", sql, err)
	}
	return resultRows(res), len(stmt.OrderBy) > 0, nil
}

// resultRows prints a result's cells the way the server does.
func resultRows(res *sqldata.Result) [][]string {
	rows := make([][]string, len(res.Rows))
	for i, row := range res.Rows {
		rows[i] = make([]string, len(row))
		for j, v := range row {
			rows[i][j] = v.String()
		}
	}
	return rows
}

// matches reports whether rows, as served over HTTP, are the rows the gold
// statement returns: in order when the gold has ORDER BY, as a multiset
// otherwise.
func (o *oracle) matches(gold string, rows [][]string) (bool, error) {
	want, ordered, err := o.gold(gold)
	if err != nil {
		return false, err
	}
	return sameRows(want, rows, ordered), nil
}

// sameRows compares two results cell by cell after canonCell.
func sameRows(a, b [][]string, ordered bool) bool {
	if len(a) != len(b) {
		return false
	}
	ka, kb := rowKeys(a), rowKeys(b)
	if !ordered {
		sort.Strings(ka)
		sort.Strings(kb)
	}
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}

func rowKeys(rows [][]string) []string {
	keys := make([]string, len(rows))
	for i, row := range rows {
		cells := make([]string, len(row))
		for j, c := range row {
			cells[j] = canonCell(c)
		}
		keys[i] = strings.Join(cells, "\x00")
	}
	return keys
}

// canonCell rounds a non-integral number to nine significant digits. A sum
// of floats depends on the order the rows were added in, and a join order
// or a shard merge changes that order without making the answer wrong.
func canonCell(c string) string {
	if !strings.ContainsAny(c, ".eE") {
		return c
	}
	f, err := strconv.ParseFloat(c, 64)
	if err != nil {
		return c
	}
	return strconv.FormatFloat(f, 'g', 9, 64)
}
