// Package experiments drives the reproduction study. The source paper is
// a tutorial with no numbered tables or figures; each experiment below
// turns one of its comparative claims into a measurable table (the mapping
// is recorded in DESIGN.md and the measured outcomes in EXPERIMENTS.md).
// Every experiment is seeded and deterministic; cmd/nlidb-bench prints
// them all and bench_test.go wraps each in a testing.B benchmark.
package experiments

import (
	"fmt"
	"strings"
)

// Table is one experiment's result: a claim from the survey and the
// measured rows that test it.
type Table struct {
	// ID is the experiment identifier (T1…T10, A1, A2).
	ID string
	// Title is a short name.
	Title string
	// Claim quotes or paraphrases the survey statement under test.
	Claim string
	// Header labels the columns.
	Header []string
	// Rows hold the measurements, pre-formatted.
	Rows [][]string
	// Notes carry caveats and expected-shape commentary.
	Notes []string
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", t.ID, t.Title)
	fmt.Fprintf(&sb, "Claim: %s\n", t.Claim)

	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			if i < len(widths) {
				fmt.Fprintf(&sb, "%-*s", widths[i], c)
			} else {
				sb.WriteString(c)
			}
		}
		sb.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// pct formats a ratio as a fixed-width percentage.
func pct(v float64) string { return fmt.Sprintf("%5.1f%%", 100*v) }

// Experiment is a named runnable experiment.
type Experiment struct {
	ID  string
	Run func(seed int64) (*Table, error)
}

// All lists every experiment in presentation order.
func All() []Experiment {
	return []Experiment{
		{"T1", T1ComplexityCeiling},
		{"T2", T2Paraphrase},
		{"T3", T3PrecisionRecall},
		{"T4", T4TrainingCurve},
		{"T5", T5DomainAdaptation},
		{"T6", T6Dialogue},
		{"T7", T7Feedback},
		{"T8", T8Datasets},
		{"T9", T9Relaxation},
		{"T10", T10QueryLog},
		{"T11", T11Decomposition},
		{"A1", A1SketchVsSeq},
		{"A2", A2TypeFeatures},
	}
}
