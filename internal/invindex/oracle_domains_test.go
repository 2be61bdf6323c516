package invindex_test

import (
	"testing"

	"nlidb/internal/benchdata"
	"nlidb/internal/invindex"
	"nlidb/internal/lexicon"
)

// The oracle sweep over every benchdata domain, with the windows of the
// domain's own generated questions. (An external test package: benchdata
// imports invindex through nlq.)
func TestLookupMatchesLinearOracleOnBenchdataDomains(t *testing.T) {
	domains := append(benchdata.Domains(1), benchdata.Medical(1), benchdata.Airports(1))
	for _, d := range domains {
		t.Run(d.Name, func(t *testing.T) {
			ix := invindex.Build(d.DB, lexicon.New())
			var questions []string
			for _, p := range d.GeneratePairs(60, 2) {
				questions = append(questions, p.Question)
			}
			invindex.OracleSweep(t, ix, invindex.Sample(invindex.OracleQueries(ix, questions, 3), 5), 1)
		})
	}
}
