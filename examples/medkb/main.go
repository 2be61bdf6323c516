// Medkb: the query-relaxation scenario of Lei et al. (2020) — a medical
// knowledge base whose users speak colloquially ("statins",
// "painkillers") while the KB stores canonical terms ("drug"). With
// relaxation off, hyponym vocabulary fails; with it on, the lexicon's
// taxonomy bridges the gap and answers expand.
package main

import (
	"fmt"

	"nlidb/internal/athena"
	"nlidb/internal/benchdata"
	"nlidb/internal/invindex"
	"nlidb/internal/lexicon"
	"nlidb/internal/nlq"
	"nlidb/internal/sqlexec"
)

func main() {
	d := benchdata.Medical(3)
	lex := lexicon.New()
	// Domain taxonomy: what users say IS-A what the KB stores.
	lex.AddHypernym("statin", "drug")
	lex.AddHypernym("painkiller", "drug")
	lex.AddSynonyms("ailment", "condition")

	eng := sqlexec.New(d.DB)
	questions := []string{
		"list all statins",
		"show the painkillers",
		"ailments with severity over 5",
		"drugs for the condition hypertension",
	}

	ix := invindex.Build(d.DB, lex)
	for _, relax := range []bool{false, true} {
		in := athena.New(d.DB, ix, lex)
		in.Relax = relax
		fmt.Printf("— relaxation %v —\n", relax)
		for _, q := range questions {
			ins, err := in.Interpret(q)
			if err != nil {
				fmt.Printf("Q: %-42s → no interpretation (%v)\n", q, err)
				continue
			}
			best, _ := nlq.Best(ins)
			res, err := eng.Run(best.SQL)
			if err != nil {
				fmt.Printf("Q: %-42s → %s (execution failed: %v)\n", q, best.SQL, err)
				continue
			}
			fmt.Printf("Q: %-42s → %s (%d rows)\n", q, best.SQL, len(res.Rows))
		}
		fmt.Println()
	}
}
