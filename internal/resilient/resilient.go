// Package resilient is the production-grade serving layer in front of the
// natural-language interpreters and the SQL executor. The survey's hybrid
// systems stay usable by degrading from fragile high-precision
// interpreters to simpler high-coverage ones; this package packages that
// degradation story as a Gateway: one Ask(ctx, question) call that runs an
// ordered fallback chain of interpreters under panic isolation, per-query
// deadlines and resource budgets, per-engine circuit breakers, and
// retry-with-simplification — with named fault-injection sites so tests
// can force panics, errors, and slowness at every pipeline stage.
package resilient

import (
	"fmt"
	"runtime/debug"
	"strings"
	"time"

	"nlidb/internal/nlp"
	"nlidb/internal/nlq"
)

// Site names one pipeline stage where faults can occur (or be injected).
type Site int

const (
	// SiteInterpret is the natural-language → SQL translation stage.
	SiteInterpret Site = iota
	// SiteParse is the SQL validation stage (print + re-parse round-trip).
	SiteParse
	// SiteExecute is the SQL execution stage.
	SiteExecute
	// SitePlan is the bind/plan stage (statement → physical plan).
	SitePlan
)

// String names the site the way traces and injectors print it.
func (s Site) String() string {
	switch s {
	case SiteInterpret:
		return "interpret"
	case SiteParse:
		return "parse"
	case SiteExecute:
		return "execute"
	case SitePlan:
		return "plan"
	default:
		return fmt.Sprintf("Site(%d)", int(s))
	}
}

// Fault is what a Hook may inject at a site: an artificial delay, then a
// panic, then an error — in that order; the zero Fault injects nothing.
type Fault struct {
	// Delay sleeps before the stage runs (canceled early by the query's
	// context).
	Delay time.Duration
	// Panic, when non-nil, is the value panicked with.
	Panic any
	// Err, when non-nil, is returned as the stage's error.
	Err error
}

// Hook decides the fault, if any, for one stage invocation. Hooks must be
// safe for concurrent use; the Gateway calls them on every guarded stage.
type Hook func(site Site, engine string) Fault

// PanicError is a panic recovered at a guarded site, converted into an
// error so one bad query can never take down a session. It carries the
// recovered value and the goroutine stack at recovery time.
type PanicError struct {
	// Site is the pipeline stage that panicked.
	Site Site
	// Engine is the interpreter being served when the panic happened.
	Engine string
	// Value is the recovered panic value.
	Value any
	// Stack is the stack trace captured by the recovering deferral.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("resilient: panic at %s/%s: %v", e.Site, e.Engine, e.Value)
}

// Safe wraps an interpreter so that a panic inside Interpret surfaces as a
// *PanicError instead of unwinding into the caller. Name is unchanged, so
// experiment tables and breaker keys are unaffected.
func Safe(in nlq.Interpreter) nlq.Interpreter { return &safeInterpreter{inner: in} }

type safeInterpreter struct{ inner nlq.Interpreter }

func (s *safeInterpreter) Name() string { return s.inner.Name() }

func (s *safeInterpreter) Interpret(question string) (ins []nlq.Interpretation, err error) {
	defer func() {
		if r := recover(); r != nil {
			ins = nil
			err = &PanicError{Site: SiteInterpret, Engine: s.inner.Name(), Value: r, Stack: debug.Stack()}
		}
	}()
	return s.inner.Interpret(question)
}

// SimplifyTokens strips stopwords and punctuation from a tokenized
// question, producing the degraded retry form: "please show me all the
// customers in Berlin" → "customers in Berlin". It returns "" when nothing
// content-bearing survives, in which case callers should skip the retry.
func SimplifyTokens(toks []nlp.Token) string {
	var parts []string
	for _, t := range toks {
		if t.Kind == nlp.KindPunct || t.IsStop() {
			continue
		}
		parts = append(parts, t.Text)
	}
	return strings.Join(parts, " ")
}
