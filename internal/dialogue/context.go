package dialogue

import (
	"fmt"
	"hash/fnv"
	"strings"

	"nlidb/internal/invindex"
	"nlidb/internal/nlp"
	"nlidb/internal/nlq"
	"nlidb/internal/sqldata"
	"nlidb/internal/sqlparse"
)

// Context is the persisted conversational state: the resolved query of the
// previous turn and the anchor table it ranges over.
type Context struct {
	// LastSQL is the fully resolved previous query (nil before any turn).
	LastSQL *sqlparse.SelectStmt
	// BeforeAggregate remembers the row-level query that an aggregation
	// turn summarized, so later shifts apply to rows, not the count.
	BeforeAggregate *sqlparse.SelectStmt
	// Anchor is the first FROM table of LastSQL.
	Anchor string
	// Turns counts resolved turns.
	Turns int
}

// Fingerprint hashes the context state that determines how an utterance
// resolves: the tracked query and the pre-aggregation query. It is 0 if and
// only if the context is empty (no turn resolved yet), so an empty context
// keys a question exactly like the stateless path. Non-empty contexts force
// the low bit, so a hash that happens to land on 0 can't masquerade as
// "no context".
func (c *Context) Fingerprint() uint64 {
	if c.LastSQL == nil {
		return 0
	}
	h := fnv.New64a()
	h.Write([]byte(c.LastSQL.String()))
	h.Write([]byte{0})
	if c.BeforeAggregate != nil {
		h.Write([]byte(c.BeforeAggregate.String()))
	}
	return h.Sum64() | 1
}

// Remember records a resolved query as the new context.
func (c *Context) Remember(stmt *sqlparse.SelectStmt) {
	c.LastSQL = stmt
	if stmt != nil && stmt.From != nil {
		c.Anchor = strings.ToLower(stmt.From.First.EffName())
	}
	c.Turns++
}

// Reset clears everything.
func (c *Context) Reset() { *c = Context{} }

// resolver edits the previous query per the follow-up intent — the
// EditSQL idea realized at the AST level instead of token level.
type resolver struct {
	ix *invindex.Index
}

// cloneStmt deep-copies via print/parse.
func cloneStmt(s *sqlparse.SelectStmt) *sqlparse.SelectStmt {
	return sqlparse.MustParse(s.String())
}

// rowContext picks the row-level query to edit: the pre-aggregation query
// when the last turn was an aggregate.
func rowContext(ctx *Context) *sqlparse.SelectStmt {
	if ctx.BeforeAggregate != nil {
		return ctx.BeforeAggregate
	}
	return ctx.LastSQL
}

// refine adds conditions extracted from the utterance to the previous
// query.
func (r *resolver) refine(ctx *Context, utterance string) (*sqlparse.SelectStmt, error) {
	base := rowContext(ctx)
	if base == nil {
		return nil, fmt.Errorf("dialogue: no context to refine")
	}
	a := nlq.Analyze(utterance, r.ix, invindex.DefaultOptions())
	out := cloneStmt(base)
	qualify := len(out.From.Tables()) > 1

	var added []sqlparse.Expr
	for _, cmp := range a.Comparisons {
		t, c := nlq.ResolveColumn(r.ix, cmp.ColumnHint, ctx.Anchor, nil)
		if c == "" {
			continue
		}
		col := &sqlparse.ColumnRef{Column: c}
		if qualify {
			col.Table = t
		}
		added = append(added, &sqlparse.BinaryExpr{
			Op: cmp.Op, L: col, R: &sqlparse.Literal{Val: nlq.NumLiteral(cmp.Value)},
		})
	}
	for _, sp := range a.Spans {
		m := sp.Best()
		if m.Kind != invindex.KindValue {
			continue
		}
		col := &sqlparse.ColumnRef{Column: strings.ToLower(m.Column)}
		if qualify {
			col.Table = strings.ToLower(m.Table)
		}
		added = append(added, &sqlparse.BinaryExpr{
			Op: "=", L: col, R: &sqlparse.Literal{Val: sqldata.NewText(m.Value)},
		})
	}
	if len(added) == 0 {
		return nil, fmt.Errorf("dialogue: refinement %q adds no condition", utterance)
	}
	for _, cond := range added {
		if out.Where == nil {
			out.Where = cond
		} else {
			out.Where = &sqlparse.BinaryExpr{Op: "AND", L: out.Where, R: cond}
		}
	}
	return out, nil
}

// aggregate rewrites the previous query as COUNT(*), dropping ordering.
func (r *resolver) aggregate(ctx *Context) (*sqlparse.SelectStmt, error) {
	base := rowContext(ctx)
	if base == nil {
		return nil, fmt.Errorf("dialogue: no context to aggregate")
	}
	out := cloneStmt(base)
	out.Items = []sqlparse.SelectItem{{Expr: &sqlparse.FuncCall{Name: "COUNT", Star: true}}}
	out.OrderBy = nil
	out.Limit = -1
	out.Distinct = false
	return out, nil
}

// shift replaces the projection with the column named in the utterance.
func (r *resolver) shift(ctx *Context, utterance string) (*sqlparse.SelectStmt, error) {
	base := rowContext(ctx)
	if base == nil {
		return nil, fmt.Errorf("dialogue: no context to shift")
	}
	toks := nlp.Tag(nlp.Tokenize(utterance))
	var target string
	var targetTable string
	for _, t := range toks {
		if t.Kind != nlp.KindWord || t.IsStop() || t.Lower == "their" || t.Lower == "instead" {
			continue
		}
		if tt, c := nlq.ResolveColumn(r.ix, t.Lower, ctx.Anchor, nil); c != "" {
			target, targetTable = c, tt
			break
		}
	}
	if target == "" {
		return nil, fmt.Errorf("dialogue: no column found in %q", utterance)
	}
	out := cloneStmt(base)
	col := &sqlparse.ColumnRef{Column: target}
	if len(out.From.Tables()) > 1 {
		col.Table = targetTable
	}
	out.Items = []sqlparse.SelectItem{{Expr: col}}
	return out, nil
}
