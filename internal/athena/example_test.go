package athena_test

import (
	"fmt"
	"log"

	"nlidb/internal/athena"
	"nlidb/internal/invindex"
	"nlidb/internal/lexicon"
	"nlidb/internal/nlq"
	"nlidb/internal/sqldata"
)

// ExampleInterpreter_Interpret shows the ontology-driven path: the
// ontology is generated from the schema, and a nested business question
// compiles to SQL with a scalar sub-query.
func ExampleInterpreter_Interpret() {
	db := sqldata.NewDatabase("demo")
	emp, err := db.CreateTable(&sqldata.Schema{
		Name: "employee",
		Columns: []sqldata.Column{
			{Name: "id", Type: sqldata.TypeInt, PrimaryKey: true},
			{Name: "name", Type: sqldata.TypeText},
			{Name: "salary", Type: sqldata.TypeFloat},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	emp.MustInsert(sqldata.NewInt(1), sqldata.NewText("ann"), sqldata.NewFloat(120))

	lex := lexicon.New()
	in := athena.New(db, invindex.Build(db, lex), lex)
	ins, err := in.Interpret("employees earning more than the average salary")
	if err != nil {
		log.Fatal(err)
	}
	best, _ := nlq.Best(ins)
	fmt.Println(best.SQL)
	fmt.Println("class:", nlq.Classify(best.SQL))
	// Output:
	// SELECT employee.name FROM employee WHERE employee.salary > (SELECT AVG(employee.salary) FROM employee)
	// class: nested
}
