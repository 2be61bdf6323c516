// Package dataset defines the shared corpus types: a Pair is one natural-
// language question with its gold SQL over a database; a Set is a named
// collection of pairs; a Conversation is an ordered multi-turn sequence in
// the SParC/CoSQL style. Benchmark generators (package benchdata) and the
// synthetic training-data generator (package synth) produce these; the
// evaluation harness (package eval) and the learned parser (package
// mlsql) consume them.
package dataset

import (
	"fmt"

	"nlidb/internal/nlq"
	"nlidb/internal/sqldata"
	"nlidb/internal/sqlparse"
)

// Pair is one labelled example.
type Pair struct {
	// ID is unique within its Set.
	ID string
	// Question is the natural-language input.
	Question string
	// SQL is the gold statement.
	SQL *sqlparse.SelectStmt
	// Table optionally names the single table the question targets
	// (WikiSQL-style corpora; empty for cross-table corpora).
	Table string
	// Complexity is the gold query's taxonomy class.
	Complexity nlq.Complexity
}

// Set is a corpus bound to one database.
type Set struct {
	// Name labels the corpus in experiment tables.
	Name string
	// DB is the database all pairs run against.
	DB *sqldata.Database
	// Pairs are the examples.
	Pairs []Pair
}

// Stats summarizes a corpus for the benchmark-landscape table.
type Stats struct {
	Pairs      int
	Tables     int
	PerClass   map[nlq.Complexity]int
	AvgPerPair float64 // average tables referenced per gold query
}

// ComputeStats derives corpus statistics.
func (s *Set) ComputeStats() Stats {
	st := Stats{Pairs: len(s.Pairs), PerClass: map[nlq.Complexity]int{}}
	if s.DB != nil {
		st.Tables = len(s.DB.Tables())
	}
	var totalTables int
	for _, p := range s.Pairs {
		st.PerClass[p.Complexity]++
		if p.SQL != nil && p.SQL.From != nil {
			totalTables += len(p.SQL.From.Tables())
		}
	}
	if len(s.Pairs) > 0 {
		st.AvgPerPair = float64(totalTables) / float64(len(s.Pairs))
	}
	return st
}

// Turn is one step of a conversation: a possibly context-dependent
// utterance whose gold SQL is the fully resolved query.
type Turn struct {
	// Utterance is what the user says at this turn.
	Utterance string
	// SQL is the gold query after resolving conversational context.
	SQL *sqlparse.SelectStmt
	// Kind labels the follow-up type for the dialogue experiments.
	Kind TurnKind
}

// TurnKind classifies a conversational turn.
type TurnKind int

const (
	// TurnFull is a self-contained question (always the first turn).
	TurnFull TurnKind = iota
	// TurnRefine adds a condition to the previous query ("only those…").
	TurnRefine
	// TurnAggregate re-asks the previous result as an aggregate
	// ("how many are there").
	TurnAggregate
	// TurnShift changes the projection, keeping conditions
	// ("show their salaries instead").
	TurnShift
)

// String names the turn kind.
func (k TurnKind) String() string {
	switch k {
	case TurnFull:
		return "full"
	case TurnRefine:
		return "refine"
	case TurnAggregate:
		return "aggregate"
	case TurnShift:
		return "shift"
	default:
		return fmt.Sprintf("TurnKind(%d)", int(k))
	}
}

// Conversation is an ordered multi-turn exchange over one database.
type Conversation struct {
	ID    string
	Turns []Turn
}

// ConvSet is a conversational corpus (SParC/CoSQL-style).
type ConvSet struct {
	Name          string
	DB            *sqldata.Database
	Conversations []Conversation
}

// TotalTurns counts all turns in the corpus.
func (c *ConvSet) TotalTurns() int {
	n := 0
	for _, conv := range c.Conversations {
		n += len(conv.Turns)
	}
	return n
}
