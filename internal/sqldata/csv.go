package sqldata

import (
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// LoadCSV reads rows from r (with a header line) into a new table with the
// given name. Column types are inferred from the data: a column whose
// non-empty cells all parse as integers is INT, as floats FLOAT, as
// ISO dates DATE, as true/false BOOL; everything else is TEXT. Empty cells
// become NULL. The header supplies column names (normalized to lower-case
// with spaces replaced by underscores).
func LoadCSV(name string, r io.Reader) (*Table, error) {
	return loadCSV(name, nil, r)
}

// loadCSV is LoadCSV with an optional declared schema: when declared is
// non-nil its name, column types, keys and synonyms are the table's, the
// header only has to name the same columns in the same order, and nothing
// is inferred — an all-integral FLOAT column stays FLOAT, a TEXT column
// of digit strings stays TEXT.
func loadCSV(name string, declared *Schema, r io.Reader) (*Table, error) {
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("sqldata: read csv: %w", err)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("sqldata: csv %q has no header", name)
	}
	header := records[0]
	body := records[1:]

	schema := declared
	if schema == nil {
		schema = &Schema{Name: name}
		for c, h := range header {
			col := strings.ToLower(strings.TrimSpace(h))
			col = strings.ReplaceAll(col, " ", "_")
			if col == "" {
				return nil, fmt.Errorf("sqldata: csv %q: empty header in column %d", name, c+1)
			}
			schema.Columns = append(schema.Columns, Column{Name: col, Type: inferColumnType(body, c)})
		}
	} else {
		if len(header) != len(schema.Columns) {
			return nil, fmt.Errorf("sqldata: csv %q: %d columns, its schema declares %d", name, len(header), len(schema.Columns))
		}
		for c, h := range header {
			if !strings.EqualFold(strings.TrimSpace(h), schema.Columns[c].Name) {
				return nil, fmt.Errorf("sqldata: csv %q: column %d is %q, its schema declares %q", name, c+1, h, schema.Columns[c].Name)
			}
		}
	}
	tbl, err := NewTable(schema)
	if err != nil {
		return nil, err
	}
	for ri, rec := range body {
		if len(rec) != len(header) {
			return nil, fmt.Errorf("sqldata: csv %q row %d: %d cells, want %d", name, ri+2, len(rec), len(header))
		}
		row := make(Row, len(rec))
		for c, cell := range rec {
			v, err := parseCell(cell, schema.Columns[c].Type)
			if err != nil {
				return nil, fmt.Errorf("sqldata: csv %q row %d column %q: %w", name, ri+2, schema.Columns[c].Name, err)
			}
			row[c] = v
		}
		if err := tbl.Insert(row); err != nil {
			return nil, fmt.Errorf("sqldata: csv %q row %d: %w", name, ri+2, err)
		}
	}
	// Build the columnar vectors and column statistics eagerly so a
	// freshly loaded table is immediately ready for the vectorized
	// executor and the cost model (Insert invalidates; see column.go).
	tbl.colState()
	return tbl, nil
}

// inferColumnType picks the narrowest type all non-empty cells fit. A
// cell only counts as numeric when it is the canonical rendering of the
// parsed number — exactly what WriteCSV would emit back — so cells like
// "007", "+5", ".5", or "1.50" keep their column TEXT instead of
// silently losing the original spelling on a load/store round trip. A
// column with no non-empty cells is TEXT (every parser vacuously
// matches, and TEXT is the only honest choice).
func inferColumnType(rows [][]string, c int) Type {
	sawAny := false
	isInt, isFloat, isBool, isDate := true, true, true, true
	for _, rec := range rows {
		if c >= len(rec) {
			continue
		}
		cell := strings.TrimSpace(rec[c])
		if cell == "" {
			continue
		}
		sawAny = true
		if !canonicalNumber(cell, TypeInt) {
			isInt = false
		}
		if !canonicalNumber(cell, TypeFloat) {
			isFloat = false
		}
		lc := strings.ToLower(cell)
		if lc != "true" && lc != "false" {
			isBool = false
		}
		if _, err := ParseDate(cell); err != nil {
			isDate = false
		}
	}
	switch {
	case !sawAny:
		return TypeText
	case isInt:
		return TypeInt
	case isFloat:
		return TypeFloat
	case isBool:
		return TypeBool
	case isDate:
		return TypeDate
	default:
		return TypeText
	}
}

// canonicalNumber reports whether cell is the canonical decimal form of
// an int64 or float64 — i.e. parsing and re-rendering it (the way
// Value.String and WriteCSV do) reproduces the cell byte-for-byte.
// Rejects leading zeros ("007"), explicit plus signs ("+5"), bare
// fractions (".5"), exponent respellings ("1e3"), and trailing zeros
// ("1.50"), all of which would lose the original text if typed as a
// number.
func canonicalNumber(cell string, t Type) bool {
	switch t {
	case TypeInt:
		n, err := strconv.ParseInt(cell, 10, 64)
		return err == nil && strconv.FormatInt(n, 10) == cell
	case TypeFloat:
		f, err := strconv.ParseFloat(cell, 64)
		return err == nil && strconv.FormatFloat(f, 'g', -1, 64) == cell
	default:
		return false
	}
}

func parseCell(cell string, t Type) (Value, error) {
	cell = strings.TrimSpace(cell)
	if cell == "" {
		return NullValue(), nil
	}
	switch t {
	case TypeInt:
		n, err := strconv.ParseInt(cell, 10, 64)
		if err != nil {
			return Value{}, err
		}
		return NewInt(n), nil
	case TypeFloat:
		f, err := strconv.ParseFloat(cell, 64)
		if err != nil {
			return Value{}, err
		}
		return NewFloat(f), nil
	case TypeBool:
		return NewBool(strings.EqualFold(cell, "true")), nil
	case TypeDate:
		return ParseDate(cell)
	default:
		return NewText(cell), nil
	}
}

// WriteCSV renders a result set as CSV (header + rows); NULLs are empty.
func WriteCSV(w io.Writer, res *Result) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(res.Columns); err != nil {
		return err
	}
	for _, row := range res.Rows {
		rec := make([]string, len(row))
		for i, v := range row {
			if v.Null {
				rec[i] = ""
			} else {
				rec[i] = v.String()
			}
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// schemaSidecar names the file that carries a CSV file's declared schema:
// "orders.csv" → "orders.schema.json", in the same directory.
func schemaSidecar(csvPath string) string {
	return strings.TrimSuffix(csvPath, filepath.Ext(csvPath)) + ".schema.json"
}

// WriteCSVFile writes t's rows to path as CSV and its declared schema —
// name, column types, primary key, foreign keys, synonyms — to the
// sidecar next to it, so LoadCSVFile rebuilds the table as declared
// instead of re-inferring it from the text.
func WriteCSVFile(path string, t *Table) error {
	header := make([]string, len(t.Schema.Columns))
	for i, c := range t.Schema.Columns {
		header[i] = c.Name
	}
	err := writeFile(path, func(w io.Writer) error {
		return WriteCSV(w, &Result{Columns: header, Rows: t.Rows})
	})
	if err != nil {
		return err
	}
	return writeFile(schemaSidecar(path), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(t.Schema)
	})
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := write(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("%s: %w", path, werr)
	}
	return nil
}

// LoadCSVFile loads one CSV file as a table. When the file has a schema
// sidecar (see WriteCSVFile) the table is built as declared there;
// otherwise it is named after the file and its column types are inferred
// (LoadCSV). Errors carry the path, and for a bad cell its row and
// column.
func LoadCSVFile(path string) (*Table, error) {
	var declared *Schema
	side := schemaSidecar(path)
	switch data, err := os.ReadFile(side); {
	case err == nil:
		declared = &Schema{}
		if err := json.Unmarshal(data, declared); err != nil {
			return nil, fmt.Errorf("%s: %w", side, err)
		}
	case !errors.Is(err, fs.ErrNotExist):
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	tbl, err := loadCSV(name, declared, f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return tbl, nil
}
