package viewcube

import (
	"io"

	"viewcube/internal/relation"
)

// Table is a relational fact table: d functional (dimension) attributes and
// one numeric measure. It is the public face of the paper's §2 input
// relation R; build cubes from it with FromRelation.
type Table struct {
	t *relation.Table
}

// NewTable returns an empty table with the given dimension attributes and
// measure name.
func NewTable(dimensions []string, measure string) (*Table, error) {
	t, err := relation.NewTable(relation.Schema{Dimensions: dimensions, Measure: measure})
	if err != nil {
		return nil, err
	}
	return &Table{t: t}, nil
}

// ReadTable parses a CSV relation (header row; the named column is the
// measure, all other columns are dimensions in header order).
func ReadTable(r io.Reader, measure string) (*Table, error) {
	t, err := relation.ReadCSV(r, measure)
	if err != nil {
		return nil, err
	}
	return &Table{t: t}, nil
}

// Append adds one tuple.
func (t *Table) Append(values []string, measure float64) error {
	return t.t.Append(values, measure)
}

// Len returns the number of tuples.
func (t *Table) Len() int { return t.t.Len() }

// Dimensions returns the dimension attribute names.
func (t *Table) Dimensions() []string { return t.t.Schema().Dimensions }

// Measure returns the measure attribute name.
func (t *Table) Measure() string { return t.t.Schema().Measure }

// WriteCSV emits the table as CSV (dimensions first, measure last).
func (t *Table) WriteCSV(w io.Writer) error { return t.t.WriteCSV(w) }

// CountTable returns a table with the same tuples but measure 1 per tuple,
// so its cube aggregates to COUNTs. The measure attribute is named
// "count_" + the original measure.
func (t *Table) CountTable() (*Table, error) {
	ct, err := t.t.CountTable("count_" + t.t.Schema().Measure)
	if err != nil {
		return nil, err
	}
	return &Table{t: ct}, nil
}

// FromRelation builds a SUM data cube from a public Table.
func FromRelation(t *Table) (*Cube, error) { return FromTable(t.t) }
