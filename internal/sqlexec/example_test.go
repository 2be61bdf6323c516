package sqlexec_test

import (
	"fmt"
	"log"

	"nlidb/internal/sqldata"
	"nlidb/internal/sqlexec"
	"nlidb/internal/sqlparse"
)

// ExampleEngine_RunSQL shows the end-to-end path from schema definition to
// executing SQL with a correlated sub-query.
func ExampleEngine_RunSQL() {
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
	emp.MustInsert(sqldata.NewInt(2), sqldata.NewText("bob"), sqldata.NewFloat(80))
	emp.MustInsert(sqldata.NewInt(3), sqldata.NewText("cyd"), sqldata.NewFloat(70))

	res, err := sqlexec.New(db).RunSQL(
		"SELECT name FROM employee WHERE salary > (SELECT AVG(salary) FROM employee)")
	if err != nil {
		log.Fatal(err)
	}
	for _, row := range res.Rows {
		fmt.Println(row[0])
	}
	// Output:
	// ann
}

// ExampleEngine_Explain renders the physical plan without running it; the
// statically safe WHERE conjunct is pushed into the scan.
func ExampleEngine_Explain() {
	db := sqldata.NewDatabase("demo")
	if _, err := db.CreateTable(&sqldata.Schema{
		Name: "t",
		Columns: []sqldata.Column{
			{Name: "a", Type: sqldata.TypeInt},
			{Name: "b", Type: sqldata.TypeText},
		},
	}); err != nil {
		log.Fatal(err)
	}
	eng := sqlexec.New(db)
	plan, err := eng.Explain(sqlparse.MustParse("SELECT b FROM t WHERE a > 3 LIMIT 2"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(plan)
	// Output:
	// Limit 2
	//   Project [b]
	//     Scan t (0 rows) [filter: a > 3] kernel=1/1
}
