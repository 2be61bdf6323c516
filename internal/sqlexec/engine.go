// Package sqlexec executes parsed SELECT statements against in-memory
// sqldata databases. It is the public facade over the bind/plan/execute
// pipeline in internal/plan: statements are bound (all names resolved to
// tuple offsets) and lowered to a physical operator tree once, then
// executed with hash grouping, hash equi-joins with a nested-loop
// fallback, predicate push-down, correlated sub-query support, and SQL
// three-valued logic — every query-complexity class from the SIGMOD 2020
// tutorial taxonomy, including nested BI queries.
package sqlexec

import (
	"context"

	"nlidb/internal/plan"
	"nlidb/internal/qcache"
	"nlidb/internal/sqldata"
	"nlidb/internal/sqlparse"
)

// Engine evaluates statements against one database.
type Engine struct {
	db        *sqldata.Database
	planCache *qcache.Cache
}

// New returns an engine over db.
func New(db *sqldata.Database) *Engine { return &Engine{db: db} }

// NewWithPlanCache returns an engine that caches prepared plans in c,
// keyed by canonical SQL and the database schema fingerprint, so repeated
// statements (distinct questions translating to the same SQL, say) skip
// bind and plan. Plans are immutable after preparation, so cached entries
// are safe to execute concurrently.
func NewWithPlanCache(db *sqldata.Database, c *qcache.Cache) *Engine {
	return &Engine{db: db, planCache: c}
}

// Prepared is a bound, planned statement ready to execute (see
// internal/plan for the pipeline).
type Prepared = plan.Plan

// Prepare binds and plans stmt without executing it.
func (e *Engine) Prepare(stmt *sqlparse.SelectStmt) (*Prepared, error) {
	return plan.Prepare(e.db, stmt)
}

// PrepareCached is Prepare through the engine's plan cache when one is
// configured; hit reports whether the plan came from the cache. The key is
// the statement exactly as printed: a plan carries its statement's output
// header, so "AS Total" and "AS total" must not share one.
func (e *Engine) PrepareCached(stmt *sqlparse.SelectStmt) (p *Prepared, hit bool, err error) {
	if e.planCache == nil || stmt == nil {
		p, err = e.Prepare(stmt)
		return p, false, err
	}
	key := qcache.WithFingerprint(e.db.Fingerprint(), "plan:"+stmt.String())
	if v, ok := e.planCache.Get(key); ok {
		if cached, ok := v.(*Prepared); ok {
			return cached, true, nil
		}
	}
	p, err = e.Prepare(stmt)
	if err != nil {
		return nil, false, err
	}
	e.planCache.Put(key, p)
	return p, false, nil
}

// RunSQL parses and executes a SQL string.
func (e *Engine) RunSQL(sql string) (*sqldata.Result, error) {
	return e.RunSQLContext(context.Background(), sql, Budget{})
}

// RunSQLContext parses and executes a SQL string under ctx and b.
func (e *Engine) RunSQLContext(ctx context.Context, sql string, b Budget) (*sqldata.Result, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	return e.RunContext(ctx, stmt, b)
}

// Run executes a parsed statement with no deadline and no budget.
func (e *Engine) Run(stmt *sqlparse.SelectStmt) (*sqldata.Result, error) {
	return e.RunContext(context.Background(), stmt, Budget{})
}

// RunContext executes a parsed statement, honoring ctx cancellation and
// the resource budget. Cancellation surfaces as ErrCanceled and budget
// exhaustion as ErrBudgetExceeded (both match with errors.Is); the
// executor checks both at operator boundaries.
func (e *Engine) RunContext(ctx context.Context, stmt *sqlparse.SelectStmt, b Budget) (*sqldata.Result, error) {
	res, _, err := e.RunContextUsage(ctx, stmt, b)
	return res, err
}

// RunContextUsage is RunContext plus the execution's resource Usage
// (reported for failed executions too — a budget-killed query still says
// how far it got). When ctx carries an obs span, the executor annotates
// it with rows scanned/returned, join rows, sub-query count, and budget
// consumption, and hangs per-operator scan/join/group child spans off it
// for the top-level statement.
func (e *Engine) RunContextUsage(ctx context.Context, stmt *sqlparse.SelectStmt, b Budget) (*sqldata.Result, Usage, error) {
	p, _, err := e.PrepareCached(stmt)
	if err != nil {
		return nil, Usage{}, err
	}
	return p.Run(ctx, b)
}
