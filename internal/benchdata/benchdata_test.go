package benchdata

import (
	"strings"
	"testing"

	"nlidb/internal/nlq"
	"nlidb/internal/sqlexec"
)

func TestDomainsBuild(t *testing.T) {
	ds := Domains(1)
	if len(ds) != 5 {
		t.Fatalf("domains = %d", len(ds))
	}
	names := map[string]bool{}
	for _, d := range ds {
		names[d.Name] = true
		if err := d.DB.ValidateForeignKeys(); err != nil {
			t.Errorf("%s: %v", d.Name, err)
		}
		if d.DB.Table(d.Main) == nil {
			t.Errorf("%s: main table %q missing", d.Name, d.Main)
		}
		for _, tbl := range d.DB.Tables() {
			if tbl.Len() == 0 {
				t.Errorf("%s.%s is empty", d.Name, tbl.Schema.Name)
			}
		}
	}
	for _, want := range []string{"sales", "movies", "hospital", "flights", "university"} {
		if !names[want] {
			t.Errorf("missing domain %s", want)
		}
	}
}

func TestDomainByName(t *testing.T) {
	if DomainByName("movies", 1) == nil {
		t.Error("movies not found")
	}
	if DomainByName("nope", 1) != nil {
		t.Error("phantom domain")
	}
}

// Every generated gold query must parse, classify as its declared class,
// and execute with a non-degenerate result.
func TestGeneratedGoldExecutes(t *testing.T) {
	for _, d := range Domains(7) {
		pairs := d.GeneratePairs(60, 99)
		if len(pairs) < 40 {
			t.Fatalf("%s: only %d pairs generated", d.Name, len(pairs))
		}
		eng := sqlexec.New(d.DB)
		nonEmpty := 0
		for _, p := range pairs {
			if got := nlq.Classify(p.SQL); got != p.Complexity {
				t.Errorf("%s: %q declared %v but classifies %v: %s", d.Name, p.Question, p.Complexity, got, p.SQL)
				continue
			}
			res, err := eng.Run(p.SQL)
			if err != nil {
				t.Errorf("%s: gold does not execute: %s: %v", d.Name, p.SQL, err)
				continue
			}
			if len(res.Rows) > 0 {
				nonEmpty++
			}
		}
		if nonEmpty < len(pairs)/2 {
			t.Errorf("%s: too many empty gold results (%d/%d non-empty)", d.Name, nonEmpty, len(pairs))
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	d1 := Sales(3)
	d2 := Sales(3)
	p1 := d1.GeneratePairs(20, 5)
	p2 := d2.GeneratePairs(20, 5)
	if len(p1) != len(p2) {
		t.Fatal("nondeterministic pair count")
	}
	for i := range p1 {
		if p1[i].Question != p2[i].Question || p1[i].SQL.String() != p2[i].SQL.String() {
			t.Fatalf("nondeterministic at %d: %q vs %q", i, p1[i].Question, p2[i].Question)
		}
	}
}

func TestGeneratePairsClassFilter(t *testing.T) {
	d := Movies(2)
	pairs := d.GeneratePairs(20, 11, nlq.Nested)
	if len(pairs) == 0 {
		t.Fatal("no nested pairs")
	}
	for _, p := range pairs {
		if p.Complexity != nlq.Nested {
			t.Errorf("class leak: %v", p.Complexity)
		}
	}
}

func TestWikiSQLStyle(t *testing.T) {
	d := Sales(4)
	set := WikiSQLStyle(d, 50, 13)
	if len(set.Pairs) < 30 {
		t.Fatalf("pairs = %d", len(set.Pairs))
	}
	for _, p := range set.Pairs {
		if !strings.EqualFold(p.Table, d.Main) {
			t.Errorf("non-main table %q", p.Table)
		}
		if len(p.SQL.From.Joins) != 0 || len(p.SQL.Subqueries()) != 0 {
			t.Errorf("wikisql pair too complex: %s", p.SQL)
		}
	}
	stats := set.ComputeStats()
	if stats.Pairs != len(set.Pairs) || stats.PerClass[nlq.Simple] == 0 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestSpiderStyle(t *testing.T) {
	sets := SpiderStyle(Domains(5), 5, 21)
	if len(sets) != 5 {
		t.Fatalf("sets = %d", len(sets))
	}
	for _, s := range sets {
		st := s.ComputeStats()
		for _, class := range []nlq.Complexity{nlq.Simple, nlq.Aggregation, nlq.Join, nlq.Nested} {
			if st.PerClass[class] == 0 {
				t.Errorf("%s: class %v empty", s.Name, class)
			}
		}
	}
}

func TestConversations(t *testing.T) {
	for _, d := range Domains(6) {
		cs := Conversations(d, 10, 31)
		if len(cs.Conversations) < 5 {
			t.Fatalf("%s: conversations = %d", d.Name, len(cs.Conversations))
		}
		eng := sqlexec.New(d.DB)
		for _, conv := range cs.Conversations {
			if len(conv.Turns) < 3 {
				t.Fatalf("%s: short conversation %d turns", d.Name, len(conv.Turns))
			}
			if conv.Turns[0].Kind != 0 {
				t.Errorf("first turn kind = %v", conv.Turns[0].Kind)
			}
			for ti, turn := range conv.Turns {
				if _, err := eng.Run(turn.SQL); err != nil {
					t.Errorf("%s %s turn %d gold fails: %s: %v", d.Name, conv.ID, ti, turn.SQL, err)
				}
			}
			// Refinement must be a strict subset of the opening result.
			r0, err0 := eng.Run(conv.Turns[0].SQL)
			r1, err1 := eng.Run(conv.Turns[1].SQL)
			if err0 == nil && err1 == nil && len(r1.Rows) > len(r0.Rows) {
				t.Errorf("%s: refinement grew the result (%d → %d)", conv.ID, len(r0.Rows), len(r1.Rows))
			}
		}
		if cs.TotalTurns() < 15 {
			t.Errorf("%s: total turns = %d", d.Name, cs.TotalTurns())
		}
	}
}
