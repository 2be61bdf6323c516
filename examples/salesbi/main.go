// Salesbi: the class-4 showcase — nested business-intelligence questions
// over the sales star schema, answered through the ontology-driven
// interpreter, plus the same query built directly at the intermediate-
// representation level (ATHENA's OQL analogue).
package main

import (
	"fmt"
	"log"

	"nlidb/internal/athena"
	"nlidb/internal/benchdata"
	"nlidb/internal/invindex"
	"nlidb/internal/ir"
	"nlidb/internal/lexicon"
	"nlidb/internal/nlq"
	"nlidb/internal/ontology"
	"nlidb/internal/schemagraph"
	"nlidb/internal/sqldata"
	"nlidb/internal/sqlexec"
)

func main() {
	d := benchdata.Sales(7)
	lex := lexicon.New()
	interp := athena.New(d.DB, invindex.Build(d.DB, lex), lex)
	eng := sqlexec.New(d.DB)

	fmt.Println("— Nested BI questions in English —")
	for _, q := range []string{
		"products with price greater than the average price", // scalar sub-query
		"customers without orders",                           // NOT EXISTS
		"customers with more than 4 orders",                  // join + GROUP BY + HAVING COUNT
		"average quantity of orders per customer",            // aggregate over join
		"top 3 products by price",                            // ordering
	} {
		ins, err := interp.Interpret(q)
		if err != nil {
			log.Fatalf("%q: %v", q, err)
		}
		best, _ := nlq.Best(ins)
		res, err := eng.Run(best.SQL)
		if err != nil {
			log.Fatalf("%q: %s: %v", q, best.SQL, err)
		}
		fmt.Printf("Q: %s\nSQL: %s  [class: %s]\nrows: %d\n\n", q, best.SQL, nlq.Classify(best.SQL), len(res.Rows))
	}

	// The same BI query built programmatically at the IR level: "names of
	// customers whose total order volume exceeds 1000, with the volume".
	fmt.Println("— The IR-level API —")
	ont := ontology.FromDatabase(d.DB)
	compiler := &ir.Compiler{Ont: ont, Graph: schemagraph.Build(d.DB)}
	thousand := sqldata.NewFloat(1000)
	q := ir.NewQuery("customer")
	q.Projections = []ir.Projection{
		{Prop: &ir.PropRef{Concept: "customer", Property: "name"}},
		{Agg: ir.AggSum, Prop: &ir.PropRef{Concept: "orders", Property: "total"}, Alias: "volume"},
	}
	q.GroupBy = []ir.PropRef{{Concept: "customer", Property: "name"}}
	q.Conditions = []ir.Condition{{
		Agg: ir.AggSum, Prop: ir.PropRef{Concept: "orders", Property: "total"},
		Op: ">", Operand: ir.Operand{Value: &thousand},
	}}
	q.OrderBy = []ir.OrderSpec{{Agg: ir.AggSum, Prop: &ir.PropRef{Concept: "orders", Property: "total"}, Desc: true}}

	stmt, err := compiler.Compile(q)
	if err != nil {
		log.Fatal(err)
	}
	res, err := eng.Run(stmt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("SQL: %s\n%s\n", stmt, res)
}
