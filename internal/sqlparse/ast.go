package sqlparse

import (
	"fmt"
	"strings"

	"nlidb/internal/sqldata"
)

// Expr is a SQL expression node. All implementations render themselves back
// to SQL via String.
type Expr interface {
	fmt.Stringer
	exprNode()
}

// ColumnRef names a column, optionally qualified by table or alias.
type ColumnRef struct {
	Table  string // optional qualifier
	Column string
}

func (c *ColumnRef) exprNode() {}
func (c *ColumnRef) String() string {
	if c.Table != "" {
		return c.Table + "." + c.Column
	}
	return c.Column
}

// Literal wraps a constant value.
type Literal struct {
	Val sqldata.Value
}

func (l *Literal) exprNode()      {}
func (l *Literal) String() string { return l.Val.SQLLiteral() }

// BinaryExpr applies Op to L and R. Ops: OR AND = != < <= > >= + - * /.
type BinaryExpr struct {
	Op   string
	L, R Expr
}

func (b *BinaryExpr) exprNode() {}
func (b *BinaryExpr) String() string {
	if b.Op == "AND" || b.Op == "OR" {
		return fmt.Sprintf("(%s %s %s)", b.L, b.Op, b.R)
	}
	return fmt.Sprintf("%s %s %s", maybeParen(b.L), b.Op, maybeParen(b.R))
}

// Conjoin folds exprs into a left-deep AND chain (nil for none).
func Conjoin(exprs []Expr) Expr {
	var out Expr
	for _, e := range exprs {
		if out == nil {
			out = e
		} else {
			out = &BinaryExpr{Op: "AND", L: out, R: e}
		}
	}
	return out
}

func maybeParen(e Expr) string {
	if be, ok := e.(*BinaryExpr); ok && (be.Op == "+" || be.Op == "-" || be.Op == "*" || be.Op == "/") {
		return "(" + be.String() + ")"
	}
	return e.String()
}

// UnaryExpr applies NOT or unary minus.
type UnaryExpr struct {
	Op string // "NOT" or "-"
	X  Expr
}

func (u *UnaryExpr) exprNode() {}
func (u *UnaryExpr) String() string {
	if u.Op == "NOT" {
		return "NOT (" + u.X.String() + ")"
	}
	return "-" + u.X.String()
}

// FuncCall is a function application. Star is true for COUNT(*).
type FuncCall struct {
	Name     string // upper-case: COUNT SUM AVG MIN MAX ...
	Distinct bool
	Star     bool
	Args     []Expr
}

func (f *FuncCall) exprNode() {}
func (f *FuncCall) String() string {
	if f.Star {
		return f.Name + "(*)"
	}
	args := make([]string, len(f.Args))
	for i, a := range f.Args {
		args[i] = a.String()
	}
	d := ""
	if f.Distinct {
		d = "DISTINCT "
	}
	return f.Name + "(" + d + strings.Join(args, ", ") + ")"
}

// IsAggregate reports whether the function is one of the five aggregates.
func (f *FuncCall) IsAggregate() bool {
	switch f.Name {
	case "COUNT", "SUM", "AVG", "MIN", "MAX":
		return true
	}
	return false
}

// InExpr tests membership of X in a literal list or a sub-query.
type InExpr struct {
	X    Expr
	Not  bool
	List []Expr      // nil when Sub is set
	Sub  *SelectStmt // nil when List is set
}

func (in *InExpr) exprNode() {}
func (in *InExpr) String() string {
	not := ""
	if in.Not {
		not = "NOT "
	}
	if in.Sub != nil {
		return fmt.Sprintf("%s %sIN (%s)", in.X, not, in.Sub)
	}
	items := make([]string, len(in.List))
	for i, e := range in.List {
		items[i] = e.String()
	}
	return fmt.Sprintf("%s %sIN (%s)", in.X, not, strings.Join(items, ", "))
}

// ExistsExpr tests non-emptiness of a sub-query.
type ExistsExpr struct {
	Not bool
	Sub *SelectStmt
}

func (e *ExistsExpr) exprNode() {}
func (e *ExistsExpr) String() string {
	not := ""
	if e.Not {
		not = "NOT "
	}
	return fmt.Sprintf("%sEXISTS (%s)", not, e.Sub)
}

// SubqueryExpr is a scalar sub-query used as a value (e.g. "> (SELECT ...)").
type SubqueryExpr struct {
	Sub *SelectStmt
}

func (s *SubqueryExpr) exprNode()      {}
func (s *SubqueryExpr) String() string { return "(" + s.Sub.String() + ")" }

// BetweenExpr tests Lo <= X <= Hi.
type BetweenExpr struct {
	X, Lo, Hi Expr
	Not       bool
}

func (b *BetweenExpr) exprNode() {}
func (b *BetweenExpr) String() string {
	not := ""
	if b.Not {
		not = "NOT "
	}
	return fmt.Sprintf("%s %sBETWEEN %s AND %s", b.X, not, b.Lo, b.Hi)
}

// LikeExpr performs SQL LIKE matching with % and _ wildcards.
type LikeExpr struct {
	X       Expr
	Pattern string
	Not     bool
}

func (l *LikeExpr) exprNode() {}
func (l *LikeExpr) String() string {
	not := ""
	if l.Not {
		not = "NOT "
	}
	return fmt.Sprintf("%s %sLIKE '%s'", l.X, not, strings.ReplaceAll(l.Pattern, "'", "''"))
}

// IsNullExpr tests X IS [NOT] NULL.
type IsNullExpr struct {
	X   Expr
	Not bool
}

func (i *IsNullExpr) exprNode() {}
func (i *IsNullExpr) String() string {
	if i.Not {
		return i.X.String() + " IS NOT NULL"
	}
	return i.X.String() + " IS NULL"
}

// SelectItem is one projection: either a star (optionally table-qualified)
// or an expression with an optional alias.
type SelectItem struct {
	Star      bool
	StarTable string // qualifier for "t.*"; empty for bare "*"
	Expr      Expr
	Alias     string
}

func (s SelectItem) String() string {
	if s.Star {
		if s.StarTable != "" {
			return s.StarTable + ".*"
		}
		return "*"
	}
	if s.Alias != "" {
		return s.Expr.String() + " AS " + s.Alias
	}
	return s.Expr.String()
}

// JoinType distinguishes INNER from LEFT OUTER joins.
type JoinType int

const (
	// JoinInner keeps only matching row pairs.
	JoinInner JoinType = iota
	// JoinLeft keeps all left rows, NULL-padding unmatched right sides.
	JoinLeft
)

func (j JoinType) String() string {
	if j == JoinLeft {
		return "LEFT JOIN"
	}
	return "JOIN"
}

// TableRef names a base table with an optional alias.
type TableRef struct {
	Name  string
	Alias string
}

// EffName returns the name the table is addressable by in the query scope.
func (t TableRef) EffName() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Name
}

func (t TableRef) String() string {
	if t.Alias != "" {
		return t.Name + " AS " + t.Alias
	}
	return t.Name
}

// Join is one JOIN step in a FROM chain.
type Join struct {
	Type  JoinType
	Table TableRef
	On    Expr
}

// FromClause is a chain: the First table followed by zero or more Joins.
type FromClause struct {
	First TableRef
	Joins []Join
}

func (f *FromClause) String() string {
	var sb strings.Builder
	sb.WriteString(f.First.String())
	for _, j := range f.Joins {
		fmt.Fprintf(&sb, " %s %s ON %s", j.Type, j.Table, j.On)
	}
	return sb.String()
}

// Tables returns every table reference in the clause, First included.
func (f *FromClause) Tables() []TableRef {
	out := []TableRef{f.First}
	for _, j := range f.Joins {
		out = append(out, j.Table)
	}
	return out
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

func (o OrderItem) String() string {
	if o.Desc {
		return o.Expr.String() + " DESC"
	}
	return o.Expr.String() + " ASC"
}

// SelectStmt is a full SELECT statement, possibly nested inside another.
type SelectStmt struct {
	Distinct bool
	Items    []SelectItem
	From     *FromClause
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	// Limit is the row cap; negative means no LIMIT.
	Limit int
}

// NewSelect returns a SelectStmt with no LIMIT.
func NewSelect() *SelectStmt { return &SelectStmt{Limit: -1} }

func (s *SelectStmt) String() string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	if s.Distinct {
		sb.WriteString("DISTINCT ")
	}
	items := make([]string, len(s.Items))
	for i, it := range s.Items {
		items[i] = it.String()
	}
	sb.WriteString(strings.Join(items, ", "))
	if s.From != nil {
		sb.WriteString(" FROM ")
		sb.WriteString(s.From.String())
	}
	if s.Where != nil {
		sb.WriteString(" WHERE ")
		sb.WriteString(s.Where.String())
	}
	if len(s.GroupBy) > 0 {
		keys := make([]string, len(s.GroupBy))
		for i, g := range s.GroupBy {
			keys[i] = g.String()
		}
		sb.WriteString(" GROUP BY ")
		sb.WriteString(strings.Join(keys, ", "))
	}
	if s.Having != nil {
		sb.WriteString(" HAVING ")
		sb.WriteString(s.Having.String())
	}
	if len(s.OrderBy) > 0 {
		keys := make([]string, len(s.OrderBy))
		for i, o := range s.OrderBy {
			keys[i] = o.String()
		}
		sb.WriteString(" ORDER BY ")
		sb.WriteString(strings.Join(keys, ", "))
	}
	if s.Limit >= 0 {
		fmt.Fprintf(&sb, " LIMIT %d", s.Limit)
	}
	return sb.String()
}

// WalkExprs calls fn for every expression in the statement (items, where,
// group by, having, order by, and join conditions), without descending into
// sub-selects. Useful for analyses such as aggregate detection.
func (s *SelectStmt) WalkExprs(fn func(Expr)) {
	var walk func(e Expr)
	walk = func(e Expr) {
		if e == nil {
			return
		}
		fn(e)
		switch t := e.(type) {
		case *BinaryExpr:
			walk(t.L)
			walk(t.R)
		case *UnaryExpr:
			walk(t.X)
		case *FuncCall:
			for _, a := range t.Args {
				walk(a)
			}
		case *InExpr:
			walk(t.X)
			for _, a := range t.List {
				walk(a)
			}
		case *BetweenExpr:
			walk(t.X)
			walk(t.Lo)
			walk(t.Hi)
		case *LikeExpr:
			walk(t.X)
		case *IsNullExpr:
			walk(t.X)
		}
	}
	for _, it := range s.Items {
		if !it.Star {
			walk(it.Expr)
		}
	}
	if s.From != nil {
		for _, j := range s.From.Joins {
			walk(j.On)
		}
	}
	walk(s.Where)
	for _, g := range s.GroupBy {
		walk(g)
	}
	walk(s.Having)
	for _, o := range s.OrderBy {
		walk(o.Expr)
	}
}

// Subqueries returns all directly nested sub-selects (IN, EXISTS, scalar).
func (s *SelectStmt) Subqueries() []*SelectStmt {
	var subs []*SelectStmt
	s.WalkExprs(func(e Expr) {
		switch t := e.(type) {
		case *InExpr:
			if t.Sub != nil {
				subs = append(subs, t.Sub)
			}
		case *ExistsExpr:
			subs = append(subs, t.Sub)
		case *SubqueryExpr:
			subs = append(subs, t.Sub)
		}
	})
	return subs
}

// HasAggregate reports whether any select item, HAVING, or ORDER BY uses an
// aggregate function (not counting sub-queries).
func (s *SelectStmt) HasAggregate() bool {
	found := false
	s.WalkExprs(func(e Expr) {
		if f, ok := e.(*FuncCall); ok && f.IsAggregate() {
			found = true
		}
	})
	return found
}
