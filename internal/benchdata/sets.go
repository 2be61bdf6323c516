package benchdata

import (
	"fmt"
	"math/rand"
	"strings"

	"nlidb/internal/dataset"
	"nlidb/internal/nlq"
	"nlidb/internal/sqlparse"
)

// WikiSQLStyle generates a single-table corpus over the domain's main
// table: simple selections and single-table aggregations only, mirroring
// the complexity profile of WikiSQL.
func WikiSQLStyle(d *Domain, n int, seed int64) *dataset.Set {
	r := rand.New(rand.NewSource(seed))
	set := &dataset.Set{Name: "wikisql-" + d.Name, DB: d.DB}
	attempts := 0
	for len(set.Pairs) < n && attempts < n*40 {
		attempts++
		class := nlq.Simple
		if r.Intn(3) == 0 { // WikiSQL skews toward selection
			class = nlq.Aggregation
		}
		q, sql, table := d.realize(class, r)
		if q == "" || !strings.EqualFold(table, d.Main) {
			continue
		}
		stmt, err := sqlparse.Parse(sql)
		if err != nil {
			panic(fmt.Sprintf("benchdata: bad gold %q: %v", sql, err))
		}
		if len(stmt.GroupBy) > 0 {
			continue // WikiSQL has no GROUP BY
		}
		set.Pairs = append(set.Pairs, dataset.Pair{
			ID: fmt.Sprintf("w-%s-%d", d.Name, len(set.Pairs)), Question: q,
			SQL: stmt, Table: table, Complexity: class,
		})
	}
	return set
}

// SpiderStyle generates a cross-domain multi-table corpus stratified over
// all four complexity classes, mirroring Spider's design. One Set per
// domain is returned so evaluation can hold domains out.
func SpiderStyle(domains []*Domain, perClassPerDomain int, seed int64) []*dataset.Set {
	var sets []*dataset.Set
	for di, d := range domains {
		set := &dataset.Set{Name: "spider-" + d.Name, DB: d.DB}
		for ci, class := range []nlq.Complexity{nlq.Simple, nlq.Aggregation, nlq.Join, nlq.Nested} {
			pairs := d.GeneratePairs(perClassPerDomain, seed+int64(di*17+ci), class)
			for _, p := range pairs {
				p.ID = fmt.Sprintf("s-%s-%s-%s", d.Name, class, p.ID)
				set.Pairs = append(set.Pairs, p)
			}
		}
		sets = append(sets, set)
	}
	return sets
}
