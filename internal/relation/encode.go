package relation

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"viewcube/internal/ndarray"
)

// This file maps relations onto MOLAP data cubes: each functional attribute
// is dictionary-encoded onto [0, n_m) with n_m padded to the next power of
// two (the paper's standing assumption n_m = 2^k_m), and the measure is
// SUM-aggregated into the cube cells.

// Dictionary maps the distinct values of one functional attribute to dense
// integer codes in insertion order.
type Dictionary struct {
	values []string
	index  map[string]int
	order  atomic.Pointer[Order] // derived on first use; see Order
}

// NewDictionary returns an empty dictionary.
func NewDictionary() *Dictionary {
	return &Dictionary{index: make(map[string]int)}
}

// Encode returns the code for v, assigning the next code on first sight.
func (d *Dictionary) Encode(v string) int {
	if c, ok := d.index[v]; ok {
		return c
	}
	c := len(d.values)
	d.values = append(d.values, v)
	d.index[v] = c
	return c
}

// Code returns the code for v and whether it is present, without assigning.
func (d *Dictionary) Code(v string) (int, bool) {
	c, ok := d.index[v]
	return c, ok
}

// Value returns the attribute value for a code.
func (d *Dictionary) Value(code int) (string, bool) {
	if code < 0 || code >= len(d.values) {
		return "", false
	}
	return d.values[code], true
}

// Len returns the number of distinct values.
func (d *Dictionary) Len() int { return len(d.values) }

// PaddedLen returns the dictionary size rounded up to the next power of two
// (minimum 2, so every dimension can be decomposed at least once).
func (d *Dictionary) PaddedLen() int {
	n := 2
	for n < len(d.values) {
		n *= 2
	}
	return n
}

// BoundsWithin returns the inclusive code range of dictionary values lying
// lexicographically within [lo, hi]; empty lo means "from the first value"
// and empty hi "to the last". ok is false when no value falls in the
// interval. The matching codes must be contiguous — guaranteed when the
// dictionary was built in sorted order (as BuildCube does) — otherwise an
// error is returned.
func (d *Dictionary) BoundsWithin(lo, hi string) (loCode, hiCode int, ok bool, err error) {
	loCode, hiCode = -1, -1
	for code, v := range d.values {
		if (lo != "" && v < lo) || (hi != "" && v > hi) {
			continue
		}
		if loCode < 0 {
			loCode = code
		} else if code != hiCode+1 {
			return 0, 0, false, fmt.Errorf("relation: values in [%q,%q] are not contiguous in the dictionary", lo, hi)
		}
		hiCode = code
	}
	if loCode < 0 {
		return 0, 0, false, nil
	}
	return loCode, hiCode, true, nil
}

// Encoding binds a relation's dimensions to cube coordinates.
type Encoding struct {
	Dimensions []string      // attribute names, in cube-dimension order
	Dicts      []*Dictionary // one per dimension
	Shape      []int         // power-of-two extents
}

// Index encodes one tuple's dimension values to a cube cell index, or an
// error if any value is unknown to the encoding.
func (e *Encoding) Index(values []string) ([]int, error) {
	if len(values) != len(e.Dicts) {
		return nil, fmt.Errorf("relation: %d values for %d dimensions", len(values), len(e.Dicts))
	}
	idx := make([]int, len(values))
	for m, v := range values {
		c, ok := e.Dicts[m].Code(v)
		if !ok {
			return nil, fmt.Errorf("relation: value %q unknown for dimension %s", v, e.Dimensions[m])
		}
		idx[m] = c
	}
	return idx, nil
}

// buildEncoding dictionary-encodes every dimension of the relation in
// sorted value order, padding each domain to a power of two, and returns per
// dimension a table from first-seen code to the value's share of a cell's
// row-major offset. BuildCube and BuildMultiCube share it, so a scalar cube
// and a measure-vector cube built from one table agree on coordinates.
func buildEncoding(t *Table) (*Encoding, [][]int) {
	d := len(t.dicts)
	enc := &Encoding{
		Dimensions: append([]string(nil), t.Schema().Dimensions...),
		Dicts:      make([]*Dictionary, d),
		Shape:      make([]int, d),
	}
	offsets := make([][]int, d)
	stride := 1
	for m := d - 1; m >= 0; m-- {
		src := t.dicts[m]
		sorted := slices.Clone(src.values)
		slices.Sort(sorted)
		dict, off := NewDictionary(), make([]int, len(sorted))
		for rank, v := range sorted {
			dict.Encode(v)
			off[src.index[v]] = rank * stride
		}
		enc.Dicts[m], enc.Shape[m], offsets[m] = dict, dict.PaddedLen(), off
		stride *= enc.Shape[m]
	}
	return enc, offsets
}

// cellOffset is row i's row-major cell offset under buildEncoding's offsets.
func (t *Table) cellOffset(offsets [][]int, i int) int {
	off := 0
	for m, col := range t.codes {
		off += offsets[m][col[i]]
	}
	return off
}

// BuildCube loads the relation into a dense data cube. Each dimension's
// values are dictionary-encoded in sorted order (so cube coordinates are
// deterministic for a given table) and padded to a power of two; tuples
// mapping to the same cell are SUM-aggregated in row order. It returns the
// cube and the encoding needed to interpret its coordinates.
func BuildCube(t *Table) (*ndarray.Array, *Encoding, error) {
	enc, offsets := buildEncoding(t)
	cube := ndarray.New(enc.Shape...)
	cells := cube.Data()
	for i, v := range t.measure {
		cells[t.cellOffset(offsets, i)] += v
	}
	return cube, enc, nil
}

// BuildMultiCube loads the relation into a three-plane measure-vector cube
// carrying the Gray et al. algebraic components per cell: [sum, sum of
// squares, count]. Every distributive/algebraic aggregate the engine serves
// (SUM, COUNT, AVG, VAR, STDDEV) finalises from these three planes. Tuples
// are accumulated in row order with the same encoding as BuildCube, so the
// sum plane is bit-identical to the scalar cube BuildCube produces and the
// count plane is bit-identical to the scalar cube of the "1 per tuple"
// count table.
func BuildMultiCube(t *Table) (*ndarray.Array, *Encoding, error) {
	enc, offsets := buildEncoding(t)
	cube := ndarray.NewPlanes(3, enc.Shape...)
	n := cube.Cells()
	sum, sq, count := cube.Data()[:n], cube.Data()[n:2*n], cube.Data()[2*n:]
	for i, v := range t.measure {
		off := t.cellOffset(offsets, i)
		sum[off] += v
		sq[off] += v * v
		count[off]++
	}
	return cube, enc, nil
}

// SortedKeys returns a group map's keys in sorted order, for deterministic
// output in examples and tools.
func SortedKeys(groups map[string]float64) []string {
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
