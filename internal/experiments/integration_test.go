package experiments

import (
	"math/rand"
	"testing"

	"nlidb/internal/benchdata"
	"nlidb/internal/invindex"
	"nlidb/internal/lexicon"
	"nlidb/internal/nlq"
	"nlidb/internal/sqlexec"
	"nlidb/internal/sqlparse"
	"nlidb/internal/synth"
)

// TestAllFamiliesEmitWellFormedSQL is the cross-system safety net: every
// interpretation any entity-based family produces, on any domain, for any
// generated or paraphrased question, must (a) print to SQL that re-parses
// and (b) execute without an engine error. Wrong answers are allowed —
// malformed ones are not.
func TestAllFamiliesEmitWellFormedSQL(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	lex := lexicon.New()
	for _, d := range benchdata.Domains(3) {
		eng := sqlexec.New(d.DB)
		interps := interpreterSet(d, invindex.Build(d.DB, lex), lex)
		pairs := d.GeneratePairs(40, 77)
		checked := 0
		for _, p := range pairs {
			for name, in := range interps {
				ins, err := in.Interpret(p.Question)
				if err != nil {
					continue // abstaining is always allowed
				}
				for _, reading := range ins {
					if reading.SQL == nil {
						t.Errorf("%s/%s: nil SQL for %q", d.Name, name, p.Question)
						continue
					}
					printed := reading.SQL.String()
					reparsed, err := sqlparse.Parse(printed)
					if err != nil {
						t.Errorf("%s/%s: unparseable SQL %q for %q: %v", d.Name, name, printed, p.Question, err)
						continue
					}
					if _, err := eng.Run(reparsed); err != nil {
						t.Errorf("%s/%s: SQL fails to execute for %q: %s: %v", d.Name, name, p.Question, printed, err)
						continue
					}
					checked++
				}
			}
		}
		if checked == 0 {
			t.Errorf("%s: no interpretations checked", d.Name)
		}
	}
}

// TestFamiliesSurviveParaphraseSweep repeats the well-formedness check
// under paraphrase: distorted questions may fail to interpret, but must
// never yield malformed SQL or a panic.
func TestFamiliesSurviveParaphraseSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	lex := lexicon.New()
	d := benchdata.Movies(9)
	eng := sqlexec.New(d.DB)
	interps := interpreterSet(d, invindex.Build(d.DB, lex), lex)
	pairs := d.GeneratePairs(25, 13)
	r := newSeededRand(99)
	for _, p := range pairs {
		for s := 0; s <= 4; s++ {
			q := synth.Paraphrase(p.Question, s, lex, r)
			for name, in := range interps {
				ins, err := in.Interpret(q)
				if err != nil {
					continue
				}
				best, err := nlq.Best(ins)
				if err != nil {
					continue
				}
				if _, err := sqlparse.Parse(best.SQL.String()); err != nil {
					t.Errorf("%s: unparseable under paraphrase %q: %s", name, q, best.SQL)
				}
				if _, err := eng.Run(best.SQL); err != nil {
					t.Errorf("%s: execution error under paraphrase %q: %s: %v", name, q, best.SQL, err)
				}
			}
		}
	}
}

func newSeededRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
