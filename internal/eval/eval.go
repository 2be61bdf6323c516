// Package eval measures interpreter quality: execution accuracy (does the
// predicted SQL return the gold result), canonical exact-match accuracy,
// precision (correct among answered), recall (correct among all), and F1,
// with per-complexity-class breakdowns — plus turn-level accuracy for
// conversational corpora. These are the metrics the tutorial's benchmark
// discussion (WikiSQL/Spider/SParC/CoSQL) standardizes.
package eval

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"nlidb/internal/dataset"
	"nlidb/internal/dialogue"
	"nlidb/internal/nlq"
	"nlidb/internal/sqldata"
	"nlidb/internal/sqlexec"
	"nlidb/internal/sqlparse"
)

// Counts tallies outcomes for one bucket.
type Counts struct {
	Total    int
	Answered int // interpreter produced SQL
	Correct  int // execution matched gold
	Exact    int // canonical exact match
}

// Accuracy is Correct/Total (execution accuracy).
func (c Counts) Accuracy() float64 { return ratio(c.Correct, c.Total) }

// Precision is Correct/Answered.
func (c Counts) Precision() float64 { return ratio(c.Correct, c.Answered) }

// Recall equals Accuracy under the answered/correct framing.
func (c Counts) Recall() float64 { return ratio(c.Correct, c.Total) }

// F1 is the harmonic mean of precision and recall.
func (c Counts) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// ExactAccuracy is Exact/Total.
func (c Counts) ExactAccuracy() float64 { return ratio(c.Exact, c.Total) }

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func (c *Counts) add(o Counts) {
	c.Total += o.Total
	c.Answered += o.Answered
	c.Correct += o.Correct
	c.Exact += o.Exact
}

// QueryRecord is the per-query outcome row: which engine served the
// question and how it was scored. Records let downstream analysis slice
// accuracy by question instead of seeing only aggregate counts.
type QueryRecord struct {
	ID       string
	Question string
	Class    nlq.Complexity
	Engine   string
	Answered bool
	Correct  bool
	Exact    bool
}

// Report is the evaluation of one interpreter over one corpus.
type Report struct {
	Interpreter string
	Corpus      string
	Overall     Counts
	ByClass     map[nlq.Complexity]*Counts
	// Records holds one row per evaluated pair, in corpus order.
	Records []QueryRecord
}

// Evaluate runs the interpreter over every pair of the set. Gold queries
// with ORDER BY compare ordered; everything else compares row multisets.
func Evaluate(interp nlq.Interpreter, set *dataset.Set) (*Report, error) {
	eng := sqlexec.New(set.DB)
	rep := &Report{
		Interpreter: interp.Name(),
		Corpus:      set.Name,
		ByClass:     map[nlq.Complexity]*Counts{},
	}
	for _, p := range set.Pairs {
		c := rep.ByClass[p.Complexity]
		if c == nil {
			c = &Counts{}
			rep.ByClass[p.Complexity] = c
		}
		c.Total++

		gold, err := eng.Run(p.SQL)
		if err != nil {
			return nil, fmt.Errorf("eval: gold %q fails: %w", p.SQL, err)
		}

		rec := QueryRecord{ID: p.ID, Question: p.Question, Class: p.Complexity, Engine: interp.Name()}
		rec.Answered, rec.Correct, rec.Exact = scorePair(eng, interp, p, gold)
		rep.Records = append(rep.Records, rec)

		if rec.Answered {
			c.Answered++
		}
		if rec.Correct {
			c.Correct++
		}
		if rec.Exact {
			c.Exact++
		}
	}
	for _, c := range rep.ByClass {
		rep.Overall.add(*c)
	}
	return rep, nil
}

// scorePair runs one interpret-and-execute attempt against its gold
// result. It is the timed region of a QueryRecord: everything the engine
// does for the question, nothing the harness does around it.
func scorePair(eng *sqlexec.Engine, interp nlq.Interpreter, p dataset.Pair, gold *sqldata.Result) (answered, correct, exact bool) {
	ins, err := interp.Interpret(p.Question)
	if err != nil {
		return false, false, false
	}
	best, err := nlq.Best(ins)
	if err != nil {
		return false, false, false
	}
	exact = sqlparse.EqualCanonical(best.SQL, p.SQL)
	pred, err := runGuarded(eng, best.SQL)
	if err != nil {
		return true, false, exact
	}
	return true, resultsMatch(pred, gold, p.SQL), exact
}

// runGuarded executes predicted SQL under a default resource budget and
// panic isolation: a pathological or malformed prediction counts as
// unanswered instead of stalling or crashing the harness. Gold queries
// stay unguarded — a broken gold query is a corpus bug and must surface.
func runGuarded(eng *sqlexec.Engine, stmt *sqlparse.SelectStmt) (res *sqldata.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("eval: predicted query panicked: %v", r)
		}
	}()
	return eng.RunContext(context.Background(), stmt, sqlexec.DefaultBudget())
}

func resultsMatch(pred, gold *sqldata.Result, goldStmt *sqlparse.SelectStmt) bool {
	if len(goldStmt.OrderBy) > 0 {
		return pred.EqualOrdered(gold)
	}
	return pred.EqualUnordered(gold)
}

// Classes returns the classes present in the report, in taxonomy order.
func (r *Report) Classes() []nlq.Complexity {
	var out []nlq.Complexity
	for c := range r.ByClass {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// String renders the report as an aligned table row set.
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-16s %-20s acc=%.3f prec=%.3f rec=%.3f f1=%.3f exact=%.3f (n=%d)",
		r.Interpreter, r.Corpus, r.Overall.Accuracy(), r.Overall.Precision(),
		r.Overall.Recall(), r.Overall.F1(), r.Overall.ExactAccuracy(), r.Overall.Total)
	for _, class := range r.Classes() {
		c := r.ByClass[class]
		fmt.Fprintf(&sb, "\n    %-12s acc=%.3f (n=%d)", class, c.Accuracy(), c.Total)
	}
	return sb.String()
}

// TurnCounts tallies conversational outcomes per turn kind.
type TurnCounts map[dataset.TurnKind]*Counts

// ConvReport is the evaluation of a dialogue manager over a conversation
// corpus.
type ConvReport struct {
	Manager string
	Corpus  string
	Overall Counts
	ByKind  TurnCounts
	// Interactions counts simulated-user questions asked, if any.
	Interactions int
}

// EvaluateConversations replays each conversation turn-by-turn through the
// manager, comparing each response's execution against the turn's gold.
// Context carries across turns within a conversation; Reset separates
// conversations.
func EvaluateConversations(mgr dialogue.Manager, cs *dataset.ConvSet) (*ConvReport, error) {
	eng := sqlexec.New(cs.DB)
	rep := &ConvReport{Manager: mgr.Name(), Corpus: cs.Name, ByKind: TurnCounts{}}
	for _, conv := range cs.Conversations {
		mgr.Reset()
		for _, turn := range conv.Turns {
			c := rep.ByKind[turn.Kind]
			if c == nil {
				c = &Counts{}
				rep.ByKind[turn.Kind] = c
			}
			c.Total++
			gold, err := eng.Run(turn.SQL)
			if err != nil {
				return nil, fmt.Errorf("eval: conversation gold fails: %w", err)
			}
			resp, err := mgr.Respond(context.Background(), turn.Utterance)
			if err != nil || resp.SQL == nil || resp.Result == nil {
				continue
			}
			c.Answered++
			if resultsMatch(resp.Result, gold, turn.SQL) {
				c.Correct++
			}
		}
	}
	for _, c := range rep.ByKind {
		rep.Overall.add(*c)
	}
	return rep, nil
}

// Kinds returns turn kinds present, in order.
func (r *ConvReport) Kinds() []dataset.TurnKind {
	var out []dataset.TurnKind
	for k := range r.ByKind {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// String renders the conversational report.
func (r *ConvReport) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-14s %-16s turn-acc=%.3f (n=%d)", r.Manager, r.Corpus,
		r.Overall.Accuracy(), r.Overall.Total)
	for _, k := range r.Kinds() {
		c := r.ByKind[k]
		fmt.Fprintf(&sb, "\n    %-10s acc=%.3f (n=%d)", k, c.Accuracy(), c.Total)
	}
	return sb.String()
}
