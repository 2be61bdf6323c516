// Quickstart: the 40-line end-to-end path — define a schema, load rows,
// auto-generate the ontology, and ask questions in English.
package main

import (
	"fmt"
	"log"

	"nlidb/internal/athena"
	"nlidb/internal/invindex"
	"nlidb/internal/lexicon"
	"nlidb/internal/nlq"
	"nlidb/internal/sqldata"
	"nlidb/internal/sqlexec"
)

func main() {
	// 1. Define and fill a database.
	db := sqldata.NewDatabase("quickstart")
	emp, err := db.CreateTable(&sqldata.Schema{
		Name: "employee",
		Columns: []sqldata.Column{
			{Name: "id", Type: sqldata.TypeInt, PrimaryKey: true},
			{Name: "name", Type: sqldata.TypeText},
			{Name: "salary", Type: sqldata.TypeFloat, Synonyms: []string{"pay"}},
			{Name: "city", Type: sqldata.TypeText},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	emp.MustInsert(sqldata.NewInt(1), sqldata.NewText("ann"), sqldata.NewFloat(95000), sqldata.NewText("Berlin"))
	emp.MustInsert(sqldata.NewInt(2), sqldata.NewText("bob"), sqldata.NewFloat(72000), sqldata.NewText("Munich"))
	emp.MustInsert(sqldata.NewInt(3), sqldata.NewText("cyd"), sqldata.NewFloat(88000), sqldata.NewText("Berlin"))

	// 2. Index the database's vocabulary once, then build an interpreter
	// over that index (ontology auto-generated from the schema).
	lex := lexicon.New()
	interp := athena.New(db, invindex.Build(db, lex), lex)
	eng := sqlexec.New(db)

	// 3. Ask questions.
	for _, q := range []string{
		"employees in Berlin",
		"what is the average salary of employees",
		"employees with pay over 80000",
	} {
		ins, err := interp.Interpret(q)
		if err != nil {
			log.Fatalf("%q: %v", q, err)
		}
		best, _ := nlq.Best(ins)
		res, err := eng.Run(best.SQL)
		if err != nil {
			log.Fatalf("%q: %v", q, err)
		}
		fmt.Printf("Q: %s\nSQL: %s\n%s\n\n", q, best.SQL, res)
	}
}
