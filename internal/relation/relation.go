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
	"math"
	"slices"
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

// MaxMass bounds a relation's magnitude Σ|v| over its measures. Every cube
// cell, and every cell of every view element, is a ± sum of measures, so
// none can pass it; the factor two below the largest float64 is headroom
// for rounding. Engines hold deltas to the same bound.
const MaxMass = math.MaxFloat64 / 2

// Table is an append-only relation stored by column: per dimension a
// first-seen Dictionary and one code per row, plus the measure column.
type Table struct {
	schema  Schema
	dicts   []*Dictionary // per dimension, codes in first-seen order
	codes   [][]int32     // codes[m][i] is row i's code in dicts[m]
	measure []float64
	mass    float64 // Σ|measure|, at most MaxMass
}

// NewTable returns an empty table with the given schema.
func NewTable(schema Schema) (*Table, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	t := &Table{schema: schema, dicts: make([]*Dictionary, len(schema.Dimensions)), codes: make([][]int32, len(schema.Dimensions))}
	for m := range t.dicts {
		t.dicts[m] = NewDictionary()
	}
	return t, nil
}

// Schema returns the table's schema.
func (t *Table) Schema() Schema { return t.schema }

// Len returns the number of rows.
func (t *Table) Len() int { return len(t.measure) }

// value is row i's value of dimension m.
func (t *Table) value(m, i int) string { return t.dicts[m].values[t.codes[m][i]] }

// Row returns row i.
func (t *Table) Row(i int) Row {
	values := make([]string, len(t.dicts))
	for m := range values {
		values[m] = t.value(m, i)
	}
	return Row{Values: values, Measure: t.measure[i]}
}

// Append adds a tuple. The value count must match the schema, and the
// measure must be finite and keep Σ|v| within MaxMass: a NaN or infinity,
// or a cell that overflows to one, makes its cell unencodable.
func (t *Table) Append(values []string, measure float64) error {
	if len(values) != len(t.schema.Dimensions) {
		return fmt.Errorf("relation: row has %d values, schema has %d dimensions",
			len(values), len(t.schema.Dimensions))
	}
	if !(t.mass+math.Abs(measure) <= MaxMass) {
		return fmt.Errorf("relation: measure %v is not finite or takes Σ|v| past %g, where a cell could overflow", measure, MaxMass)
	}
	t.mass += math.Abs(measure)
	for m, v := range values {
		c, ok := t.dicts[m].index[v]
		if !ok { // cloned, so no caller buffer (a whole CSV record) stays alive
			c = t.dicts[m].Encode(strings.Clone(v))
		}
		t.codes[m] = append(t.codes[m], int32(c))
	}
	t.measure = append(t.measure, measure)
	return nil
}

// Split distributes the rows, in order, over n new tables with t's schema:
// a row goes to table shard(v) for its value v of dimension dim.
func (t *Table) Split(n, dim int, shard func(value string) int) []*Table {
	out := make([]*Table, n)
	for s := range out {
		out[s], _ = NewTable(t.schema)
	}
	for i, v := range t.measure {
		o := out[shard(t.value(dim, i))]
		for m := range o.codes {
			o.codes[m] = append(o.codes[m], int32(o.dicts[m].Encode(t.value(m, i))))
		}
		o.measure = append(o.measure, v)
		o.mass += math.Abs(v)
	}
	return out
}

// CountTable returns a table with t's tuples, the measure named measure and
// 1 per tuple, so its cube aggregates to COUNTs.
func (t *Table) CountTable(measure string) (*Table, error) {
	schema := Schema{Dimensions: t.schema.Dimensions, Measure: measure}
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	ct := t.Split(1, 0, func(string) int { return 0 })[0]
	ct.schema = schema
	for i := range ct.measure {
		ct.measure[i] = 1
	}
	ct.mass = float64(len(ct.measure))
	return ct, nil
}

// ReadCSV parses a relation from CSV. The first record is the header; the
// column named measure becomes the measure attribute and every other column
// a dimension, in header order.
func ReadCSV(r io.Reader, measure string) (*Table, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true // Append clones each new value out of the record
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
	for i, v := range t.measure {
		for m := range t.dicts {
			rec[m] = t.value(m, i)
		}
		rec[len(rec)-1] = strconv.FormatFloat(v, 'g', -1, 64)
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
	for i, v := range t.measure {
		for j, d := range dims {
			parts[j] = t.value(d, i)
		}
		out[GroupKey(parts...)] += v
	}
	return out, nil
}

// DistinctValues returns the sorted distinct values of one dimension.
func (t *Table) DistinctValues(dim int) []string {
	out := slices.Clone(t.dicts[dim].values)
	slices.Sort(out)
	return out
}
