package dataset

import (
	"testing"

	"nlidb/internal/nlq"
	"nlidb/internal/sqldata"
	"nlidb/internal/sqlparse"
)

func TestComputeStats(t *testing.T) {
	db := sqldata.NewDatabase("d")
	if _, err := db.CreateTable(&sqldata.Schema{Name: "t", Columns: []sqldata.Column{{Name: "a", Type: sqldata.TypeInt}}}); err != nil {
		t.Fatal(err)
	}
	s := &Set{Name: "x", DB: db, Pairs: []Pair{
		{ID: "1", SQL: sqlparse.MustParse("SELECT a FROM t"), Complexity: nlq.Simple},
		{ID: "2", SQL: sqlparse.MustParse("SELECT COUNT(*) FROM t"), Complexity: nlq.Aggregation},
		{ID: "3", SQL: sqlparse.MustParse("SELECT a FROM t WHERE a = 1"), Complexity: nlq.Simple},
	}}
	st := s.ComputeStats()
	if st.Pairs != 3 || st.Tables != 1 || st.PerClass[nlq.Simple] != 2 || st.PerClass[nlq.Aggregation] != 1 || st.AvgPerPair != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestTurnKindString(t *testing.T) {
	want := map[TurnKind]string{TurnFull: "full", TurnRefine: "refine", TurnAggregate: "aggregate", TurnShift: "shift"}
	for k, w := range want {
		if k.String() != w {
			t.Errorf("%v.String() = %s", int(k), k.String())
		}
	}
}

func TestConvSetTotalTurns(t *testing.T) {
	cs := &ConvSet{Conversations: []Conversation{
		{ID: "a", Turns: make([]Turn, 3)},
		{ID: "b", Turns: make([]Turn, 4)},
	}}
	if cs.TotalTurns() != 7 {
		t.Fatalf("turns = %d", cs.TotalTurns())
	}
}
