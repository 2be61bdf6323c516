// Package ir defines the ontology-level intermediate query representation
// used by the entity-based interpreters, and compiles it to executable SQL.
// It plays the role of ATHENA's Ontology Query Language: interpreters emit
// IR in terms of concepts and properties; the compiler resolves concepts to
// tables, infers join paths through the schema graph, and emits a SELECT
// statement — including GROUP BY/HAVING, ORDER BY/LIMIT, scalar and IN
// sub-queries, and (NOT) EXISTS nesting for the BI query class.
package ir

import (
	"fmt"
	"sort"
	"strings"

	"nlidb/internal/ontology"
	"nlidb/internal/schemagraph"
	"nlidb/internal/sqldata"
	"nlidb/internal/sqlparse"
)

// Agg enumerates aggregate functions; AggNone means a plain property.
type Agg string

const (
	AggNone  Agg = ""
	AggCount Agg = "COUNT"
	AggSum   Agg = "SUM"
	AggAvg   Agg = "AVG"
	AggMin   Agg = "MIN"
	AggMax   Agg = "MAX"
)

// PropRef names a concept's property.
type PropRef struct {
	Concept  string
	Property string
}

func (p PropRef) String() string { return p.Concept + "." + p.Property }

// Projection is one output column: an aggregate, a property, or COUNT(*)
// over the anchor concept (Star).
type Projection struct {
	Agg      Agg
	Prop     *PropRef
	Star     bool // COUNT(*) when Agg == AggCount
	Distinct bool
	Alias    string
}

// Operand is a comparison right-hand side: a literal, a property, or a
// nested scalar sub-query.
type Operand struct {
	Value *sqldata.Value
	Prop  *PropRef
	Sub   *Query
}

// Condition is one predicate. When Agg is set the condition constrains
// the aggregated group (compiles into HAVING); otherwise it is a row
// filter (WHERE).
type Condition struct {
	Agg  Agg
	Prop PropRef
	// Op is one of = != < <= > >= like between in.
	Op string
	// Not negates the predicate (NOT IN, NOT LIKE, NOT BETWEEN).
	Not     bool
	Operand Operand
	// Hi is the upper bound for between.
	Hi *Operand
	// InValues holds the literal list for Op == "in" without a sub-query.
	InValues []sqldata.Value
}

// ExistsCond asserts (non-)existence of related instances of a concept,
// optionally filtered; it compiles to a correlated (NOT) EXISTS sub-query.
type ExistsCond struct {
	Concept    string
	Not        bool
	Conditions []Condition
}

// OrderSpec is one ORDER BY key at the IR level.
type OrderSpec struct {
	Agg  Agg
	Prop *PropRef
	Star bool // order by COUNT(*)
	Desc bool
}

// Query is the full intermediate representation.
type Query struct {
	// Anchor is the primary concept the question is about; it decides the
	// FROM anchor when projections alone don't pin the tables.
	Anchor      string
	Projections []Projection
	Conditions  []Condition
	Exists      []ExistsCond
	GroupBy     []PropRef
	OrderBy     []OrderSpec
	Limit       int // negative: none
	Distinct    bool
}

// NewQuery returns an IR query with no limit.
func NewQuery(anchor string) *Query { return &Query{Anchor: anchor, Limit: -1} }

// Compiler compiles IR to SQL for one ontology + schema graph pair.
type Compiler struct {
	Ont   *ontology.Ontology
	Graph *schemagraph.Graph
}

// Compile lowers the IR query to a SELECT statement.
func (c *Compiler) Compile(q *Query) (*sqlparse.SelectStmt, error) {
	if len(q.Projections) == 0 {
		return nil, fmt.Errorf("ir: query has no projections")
	}

	tables, err := c.collectTables(q)
	if err != nil {
		return nil, err
	}
	from, err := c.Graph.BuildFrom(tables)
	if err != nil {
		return nil, err
	}

	stmt := sqlparse.NewSelect()
	stmt.From = from
	stmt.Distinct = q.Distinct
	stmt.Limit = q.Limit

	anchorTable, err := c.table(q.Anchor)
	if err != nil && q.Anchor != "" {
		return nil, err
	}

	for _, p := range q.Projections {
		item, err := c.projection(p, anchorTable)
		if err != nil {
			return nil, err
		}
		stmt.Items = append(stmt.Items, item)
	}

	var where, having []sqlparse.Expr
	for _, cond := range q.Conditions {
		expr, isHaving, err := c.condition(cond)
		if err != nil {
			return nil, err
		}
		if isHaving {
			having = append(having, expr)
		} else {
			where = append(where, expr)
		}
	}
	for _, ex := range q.Exists {
		expr, err := c.exists(ex, tables)
		if err != nil {
			return nil, err
		}
		where = append(where, expr)
	}
	stmt.Where = sqlparse.Conjoin(where)
	stmt.Having = sqlparse.Conjoin(having)

	for _, g := range q.GroupBy {
		col, err := c.colRef(g)
		if err != nil {
			return nil, err
		}
		stmt.GroupBy = append(stmt.GroupBy, col)
	}

	for _, o := range q.OrderBy {
		e, err := c.orderExpr(o, anchorTable)
		if err != nil {
			return nil, err
		}
		stmt.OrderBy = append(stmt.OrderBy, sqlparse.OrderItem{Expr: e, Desc: o.Desc})
	}

	// Aggregate projections alongside plain ones require grouping by the
	// plain ones; infer it if the interpreter didn't say so explicitly.
	if len(stmt.GroupBy) == 0 && stmt.HasAggregate() {
		for _, p := range q.Projections {
			if p.Agg == AggNone && p.Prop != nil {
				col, err := c.colRef(*p.Prop)
				if err != nil {
					return nil, err
				}
				stmt.GroupBy = append(stmt.GroupBy, col)
			}
		}
	}
	return stmt, nil
}

// collectTables gathers every table the query touches at the outer level.
func (c *Compiler) collectTables(q *Query) ([]string, error) {
	set := map[string]bool{}
	addConcept := func(name string) error {
		if name == "" {
			return nil
		}
		t, err := c.table(name)
		if err != nil {
			return err
		}
		set[t] = true
		return nil
	}
	if err := addConcept(q.Anchor); err != nil {
		return nil, err
	}
	for _, p := range q.Projections {
		if p.Prop != nil {
			if err := addConcept(p.Prop.Concept); err != nil {
				return nil, err
			}
		}
	}
	for _, cond := range q.Conditions {
		if err := addConcept(cond.Prop.Concept); err != nil {
			return nil, err
		}
		if cond.Operand.Prop != nil {
			if err := addConcept(cond.Operand.Prop.Concept); err != nil {
				return nil, err
			}
		}
	}
	for _, g := range q.GroupBy {
		if err := addConcept(g.Concept); err != nil {
			return nil, err
		}
	}
	for _, o := range q.OrderBy {
		if o.Prop != nil {
			if err := addConcept(o.Prop.Concept); err != nil {
				return nil, err
			}
		}
	}
	out := make([]string, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Strings(out)
	if len(out) == 0 {
		return nil, fmt.Errorf("ir: query touches no concepts")
	}
	return out, nil
}

// table resolves a concept name to its table.
func (c *Compiler) table(concept string) (string, error) {
	cc := c.Ont.Concept(concept)
	if cc == nil {
		return "", fmt.Errorf("ir: unknown concept %q", concept)
	}
	return strings.ToLower(cc.Table), nil
}

// colRef resolves concept.property to a qualified column reference.
func (c *Compiler) colRef(p PropRef) (*sqlparse.ColumnRef, error) {
	cc := c.Ont.Concept(p.Concept)
	if cc == nil {
		return nil, fmt.Errorf("ir: unknown concept %q", p.Concept)
	}
	pp := cc.Property(p.Property)
	if pp == nil {
		return nil, fmt.Errorf("ir: concept %q has no property %q", p.Concept, p.Property)
	}
	return &sqlparse.ColumnRef{Table: strings.ToLower(cc.Table), Column: strings.ToLower(pp.Column)}, nil
}

func (c *Compiler) projection(p Projection, anchorTable string) (sqlparse.SelectItem, error) {
	if p.Star {
		if p.Agg == AggCount {
			return sqlparse.SelectItem{Expr: &sqlparse.FuncCall{Name: "COUNT", Star: true}, Alias: p.Alias}, nil
		}
		if p.Agg == AggNone {
			if anchorTable == "" {
				return sqlparse.SelectItem{Star: true}, nil
			}
			return sqlparse.SelectItem{Star: true, StarTable: anchorTable}, nil
		}
		return sqlparse.SelectItem{}, fmt.Errorf("ir: %s(*) is not valid", p.Agg)
	}
	if p.Prop == nil {
		return sqlparse.SelectItem{}, fmt.Errorf("ir: projection with neither star nor property")
	}
	col, err := c.colRef(*p.Prop)
	if err != nil {
		return sqlparse.SelectItem{}, err
	}
	if p.Agg == AggNone {
		return sqlparse.SelectItem{Expr: col, Alias: p.Alias}, nil
	}
	return sqlparse.SelectItem{
		Expr:  &sqlparse.FuncCall{Name: string(p.Agg), Distinct: p.Distinct, Args: []sqlparse.Expr{col}},
		Alias: p.Alias,
	}, nil
}

// condition lowers one predicate; the bool result marks HAVING conditions.
func (c *Compiler) condition(cond Condition) (sqlparse.Expr, bool, error) {
	col, err := c.colRef(cond.Prop)
	if err != nil {
		return nil, false, err
	}
	var lhs sqlparse.Expr = col
	isHaving := cond.Agg != AggNone
	if isHaving {
		lhs = &sqlparse.FuncCall{Name: string(cond.Agg), Args: []sqlparse.Expr{col}}
	}

	rhs, err := c.operand(cond.Operand)
	if err != nil && cond.Op != "in" {
		return nil, false, err
	}

	switch cond.Op {
	case "=", "!=", "<", "<=", ">", ">=":
		e := sqlparse.Expr(&sqlparse.BinaryExpr{Op: cond.Op, L: lhs, R: rhs})
		if cond.Not {
			e = &sqlparse.UnaryExpr{Op: "NOT", X: e}
		}
		return e, isHaving, nil
	case "like":
		lit, ok := rhs.(*sqlparse.Literal)
		if !ok || lit.Val.T != sqldata.TypeText {
			return nil, false, fmt.Errorf("ir: like needs a text operand")
		}
		return &sqlparse.LikeExpr{X: lhs, Pattern: lit.Val.Text(), Not: cond.Not}, isHaving, nil
	case "between":
		if cond.Hi == nil {
			return nil, false, fmt.Errorf("ir: between needs an upper bound")
		}
		hi, err := c.operand(*cond.Hi)
		if err != nil {
			return nil, false, err
		}
		return &sqlparse.BetweenExpr{X: lhs, Lo: rhs, Hi: hi, Not: cond.Not}, isHaving, nil
	case "in":
		in := &sqlparse.InExpr{X: lhs, Not: cond.Not}
		if cond.Operand.Sub != nil {
			sub, err := c.Compile(cond.Operand.Sub)
			if err != nil {
				return nil, false, err
			}
			in.Sub = sub
			return in, isHaving, nil
		}
		if len(cond.InValues) == 0 {
			return nil, false, fmt.Errorf("ir: in needs values or a sub-query")
		}
		for _, v := range cond.InValues {
			in.List = append(in.List, &sqlparse.Literal{Val: v})
		}
		return in, isHaving, nil
	default:
		return nil, false, fmt.Errorf("ir: unknown operator %q", cond.Op)
	}
}

func (c *Compiler) operand(o Operand) (sqlparse.Expr, error) {
	switch {
	case o.Value != nil:
		return &sqlparse.Literal{Val: *o.Value}, nil
	case o.Prop != nil:
		return c.colRef(*o.Prop)
	case o.Sub != nil:
		sub, err := c.Compile(o.Sub)
		if err != nil {
			return nil, err
		}
		return &sqlparse.SubqueryExpr{Sub: sub}, nil
	default:
		return nil, fmt.Errorf("ir: empty operand")
	}
}

func (c *Compiler) orderExpr(o OrderSpec, anchorTable string) (sqlparse.Expr, error) {
	if o.Star {
		return &sqlparse.FuncCall{Name: "COUNT", Star: true}, nil
	}
	if o.Prop == nil {
		return nil, fmt.Errorf("ir: order spec with neither star nor property")
	}
	col, err := c.colRef(*o.Prop)
	if err != nil {
		return nil, err
	}
	if o.Agg == AggNone {
		return col, nil
	}
	return &sqlparse.FuncCall{Name: string(o.Agg), Args: []sqlparse.Expr{col}}, nil
}

// exists lowers an existence condition to a correlated (NOT) EXISTS
// sub-query, correlating through the first join edge between the inner
// concept's table and any outer table.
func (c *Compiler) exists(ex ExistsCond, outerTables []string) (sqlparse.Expr, error) {
	innerTable, err := c.table(ex.Concept)
	if err != nil {
		return nil, err
	}
	// Find the shortest path from the inner table to an outer table.
	var path []schemagraph.Edge
	for _, ot := range outerTables {
		p, err := c.Graph.Path(innerTable, ot)
		if err != nil {
			continue
		}
		if path == nil || len(p) < len(path) {
			path = p
		}
		if len(p) == 1 {
			break
		}
	}
	if path == nil {
		return nil, fmt.Errorf("ir: no relationship between %q and the outer query", ex.Concept)
	}

	sub := sqlparse.NewSelect()
	// Project the inner table's first column; EXISTS ignores the value.
	cc := c.Ont.Concept(ex.Concept)
	firstCol := "id"
	if cc != nil && len(cc.Properties) > 0 {
		firstCol = cc.Properties[0].Column
	}
	sub.Items = []sqlparse.SelectItem{{Expr: &sqlparse.ColumnRef{Table: innerTable, Column: strings.ToLower(firstCol)}}}

	// Inner FROM covers all path tables except the outer anchor (the last
	// hop's far end); the final edge becomes the correlation predicate.
	last := path[len(path)-1]
	innerTables := []string{innerTable}
	for _, e := range path[:len(path)-1] {
		innerTables = append(innerTables, e.To)
	}
	from, err := c.Graph.BuildFrom(innerTables)
	if err != nil {
		return nil, err
	}
	sub.From = from

	var conds []sqlparse.Expr
	conds = append(conds, &sqlparse.BinaryExpr{
		Op: "=",
		L:  &sqlparse.ColumnRef{Table: last.From, Column: last.FromCol},
		R:  &sqlparse.ColumnRef{Table: last.To, Column: last.ToCol},
	})
	for _, cond := range ex.Conditions {
		e, isHaving, err := c.condition(cond)
		if err != nil {
			return nil, err
		}
		if isHaving {
			return nil, fmt.Errorf("ir: aggregate condition inside EXISTS is not supported")
		}
		conds = append(conds, e)
	}
	sub.Where = sqlparse.Conjoin(conds)
	return &sqlparse.ExistsExpr{Not: ex.Not, Sub: sub}, nil
}
