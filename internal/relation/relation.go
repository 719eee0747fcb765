// Package relation is the relational substrate of the reproduction: the
// paper assumes "the data set is initially stored in a relational table R
// that has d functional attributes and at least one measure attribute"
// (§2). This package provides that table — schema, rows, CSV input/output —
// plus dictionary encoding of functional attributes onto power-of-two
// dimension domains, loading of the MOLAP data cube A from R, and a plain
// GROUP-BY evaluator used as the ground truth the cube machinery is
// verified against.
package relation

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Schema describes a relation with d functional (dimension) attributes and
// one numeric measure attribute, aggregated with SUM.
type Schema struct {
	Dimensions []string
	Measure    string
}

// Validate checks the schema for emptiness and duplicate names.
func (s Schema) Validate() error {
	if len(s.Dimensions) == 0 {
		return fmt.Errorf("relation: schema needs at least one dimension")
	}
	if s.Measure == "" {
		return fmt.Errorf("relation: schema needs a measure attribute")
	}
	seen := map[string]bool{s.Measure: true}
	for _, d := range s.Dimensions {
		if d == "" {
			return fmt.Errorf("relation: empty dimension name")
		}
		if seen[d] {
			return fmt.Errorf("relation: duplicate attribute %q", d)
		}
		seen[d] = true
	}
	return nil
}

// Row is one tuple: a value per functional attribute plus the measure.
type Row struct {
	Values  []string
	Measure float64
}

// Table is an append-only relation.
type Table struct {
	schema Schema
	rows   []Row
}

// NewTable returns an empty table with the given schema.
func NewTable(schema Schema) (*Table, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	return &Table{schema: schema}, nil
}

// Schema returns the table's schema.
func (t *Table) Schema() Schema { return t.schema }

// Len returns the number of rows.
func (t *Table) Len() int { return len(t.rows) }

// Row returns row i.
func (t *Table) Row(i int) Row { return t.rows[i] }

// Append adds a tuple. The value count must match the schema.
func (t *Table) Append(values []string, measure float64) error {
	if len(values) != len(t.schema.Dimensions) {
		return fmt.Errorf("relation: row has %d values, schema has %d dimensions",
			len(values), len(t.schema.Dimensions))
	}
	t.rows = append(t.rows, Row{Values: append([]string(nil), values...), Measure: measure})
	return nil
}

// ReadCSV parses a relation from CSV. The first record is the header; the
// column named measure becomes the measure attribute and every other column
// a dimension, in header order.
func ReadCSV(r io.Reader, measure string) (*Table, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true // Append copies the values out of each record
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("relation: reading CSV header: %w", err)
	}
	measureCol := -1
	var dims []string
	var dimCols []int
	for i, name := range header {
		if name == measure {
			measureCol = i
			continue
		}
		dims = append(dims, name)
		dimCols = append(dimCols, i)
	}
	if measureCol < 0 {
		return nil, fmt.Errorf("relation: measure column %q not in header %v", measure, header)
	}
	t, err := NewTable(Schema{Dimensions: dims, Measure: measure})
	if err != nil {
		return nil, err
	}
	values := make([]string, len(dims))
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			return t, nil
		}
		if err != nil {
			return nil, fmt.Errorf("relation: reading CSV line %d: %w", line, err)
		}
		m, err := strconv.ParseFloat(strings.TrimSpace(rec[measureCol]), 64)
		if err != nil {
			return nil, fmt.Errorf("relation: CSV line %d: bad measure %q: %w", line, rec[measureCol], err)
		}
		for i, c := range dimCols {
			values[i] = rec[c]
		}
		if err := t.Append(values, m); err != nil {
			return nil, fmt.Errorf("relation: CSV line %d: %w", line, err)
		}
	}
}

// WriteCSV emits the relation as CSV with the dimensions first and the
// measure last.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := append(append([]string(nil), t.schema.Dimensions...), t.schema.Measure)
	if err := cw.Write(header); err != nil {
		return err
	}
	rec := make([]string, len(header))
	for _, row := range t.rows {
		copy(rec, row.Values)
		rec[len(rec)-1] = strconv.FormatFloat(row.Measure, 'g', -1, 64)
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// groupKeySep joins group-by key parts; it is a non-printing separator that
// cannot collide with reasonable attribute values.
const groupKeySep = string(rune(UnitSep))

// GroupKey joins dimension values into the map key used by GroupBy.
func GroupKey(values ...string) string { return strings.Join(values, groupKeySep) }

// SplitGroupKey splits a GroupBy key back into its dimension values.
func SplitGroupKey(key string) []string {
	if key == "" {
		return nil
	}
	return strings.Split(key, groupKeySep)
}

// GroupBy evaluates SELECT dims, SUM(measure) GROUP BY dims the obvious
// relational way. dims are dimension indices into the schema; an empty dims
// yields the single grand-total group with key "".
func (t *Table) GroupBy(dims []int) (map[string]float64, error) {
	for _, d := range dims {
		if d < 0 || d >= len(t.schema.Dimensions) {
			return nil, fmt.Errorf("relation: group-by dimension %d out of range", d)
		}
	}
	out := make(map[string]float64)
	parts := make([]string, len(dims))
	for _, row := range t.rows {
		for i, d := range dims {
			parts[i] = row.Values[d]
		}
		out[GroupKey(parts...)] += row.Measure
	}
	return out, nil
}

// DistinctValues returns the sorted distinct values of one dimension.
func (t *Table) DistinctValues(dim int) []string {
	seen := make(map[string]bool)
	for _, row := range t.rows {
		seen[row.Values[dim]] = true
	}
	out := make([]string, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}
