package viewcube

import (
	"fmt"
	"sort"

	"viewcube/internal/freq"
	"viewcube/internal/ndarray"
	"viewcube/internal/relation"
)

// View is a materialised query answer: the array of an assembled view
// element, with helpers for relational interpretation when the cube was
// built from encoded data. Its accessors read the SUM plane, which every
// measure layout keeps in plane 0 (plan.ScalarMeasure, plan.StatsMeasure),
// so a view of a measure-vector cube answers SUM like any other.
type View struct {
	cube *Cube
	el   Element
	arr  *ndarray.Array // every measure plane: what the view owns
	kept []int          // cube dimension indices the element keeps unaggregated
}

// kept lists the cube dimension indices the element keeps unaggregated.
func (el Element) kept() []int {
	var kept []int
	for m, node := range el.rect {
		if node == freq.Root {
			kept = append(kept, m)
		}
	}
	return kept
}

// Element returns the view element identity this view materialises.
func (v *View) Element() Element { return v.el }

// Shape returns the array shape of the view.
func (v *View) Shape() []int { return v.arr.Shape() }

// At returns a cell of the view. It accepts either a full-rank multi-index
// (aggregated dimensions have extent 1) or one index per kept dimension, in
// cube order.
func (v *View) At(idx ...int) float64 {
	if len(idx) == v.arr.Rank() {
		return v.arr.At(idx...)
	}
	if len(idx) == len(v.kept) {
		full := make([]int, v.arr.Rank())
		for i, m := range v.kept {
			full[m] = idx[i]
		}
		return v.arr.At(full...)
	}
	panic(fmt.Sprintf("viewcube: At got %d indices; view has rank %d with %d kept dimensions",
		len(idx), v.arr.Rank(), len(v.kept)))
}

// Data returns a copy of the view's cells in row-major order.
func (v *View) Data() []float64 {
	out := make([]float64, v.arr.Cells())
	copy(out, v.arr.Data())
	return out
}

// Value returns the single cell of a fully aggregated view, erroring if the
// view has more than one cell.
func (v *View) Value() (float64, error) {
	if v.arr.Cells() != 1 {
		return 0, fmt.Errorf("viewcube: view has %d cells, not 1", v.arr.Cells())
	}
	return v.arr.Data()[0], nil
}

// KeptDimensions returns the names of the dimensions this view keeps, in
// cube order (only meaningful for aggregated views).
func (v *View) KeptDimensions() []string {
	out := make([]string, len(v.kept))
	for i, m := range v.kept {
		out[i] = v.cube.dims[m]
	}
	return out
}

// Result interprets an aggregated view of an encoded cube relationally, as
// the columnar Result every serving path carries: the kept dimensions'
// dictionaries as its header, the SUM plane of the view's own array as its
// body. Nothing is copied and nothing is allocated per group.
func (v *View) Result() (*Result, error) {
	if v.cube.enc == nil {
		return nil, fmt.Errorf("viewcube: cube has no dictionary encoding")
	}
	if !v.cube.IsAggregatedView(v.el) {
		return nil, fmt.Errorf("viewcube: %v is not an aggregated view", v.el)
	}
	return viewResult(v.cube, v.kept, v.arr.Shape(), v.arr.Data()[:v.arr.Cells()], 1)
}

// Groups is Result().Groups(): a map from the kept dimensions' values
// (joined by GroupKeySeparator when several are kept) to the summed measure,
// padding coordinates skipped. It is the compatibility shim for library
// callers; servers encode the Result directly.
func (v *View) Groups() (map[string]float64, error) {
	r, err := v.Result()
	if err != nil {
		return nil, err
	}
	return r.Groups()
}

// Group returns the measure for one combination of kept-dimension values
// (in cube dimension order).
func (v *View) Group(values ...string) (float64, error) {
	if len(values) != len(v.kept) {
		return 0, fmt.Errorf("viewcube: %d values for %d kept dimensions", len(values), len(v.kept))
	}
	groups, err := v.Groups()
	if err != nil {
		return 0, err
	}
	key := relation.GroupKey(values...)
	got, ok := groups[key]
	if !ok {
		return 0, fmt.Errorf("viewcube: no group for %v", values)
	}
	return got, nil
}

// GroupValue pairs a group key with its aggregated measure.
type GroupValue struct {
	Key   string
	Value float64
}

// TopK returns the k largest groups of an encoded aggregated view, in
// descending value order (ties broken by key for determinism). k larger
// than the number of groups returns all of them.
func (v *View) TopK(k int) ([]GroupValue, error) {
	groups, err := v.Groups()
	if err != nil {
		return nil, err
	}
	out := make([]GroupValue, 0, len(groups))
	for key, val := range groups {
		out = append(out, GroupValue{Key: key, Value: val})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Value != out[j].Value {
			return out[i].Value > out[j].Value
		}
		return out[i].Key < out[j].Key
	})
	if k < len(out) {
		out = out[:k]
	}
	return out, nil
}

// Iceberg returns the groups whose value is at least threshold, in
// descending value order — the iceberg-query companion to TopK.
func (v *View) Iceberg(threshold float64) ([]GroupValue, error) {
	groups, err := v.Groups()
	if err != nil {
		return nil, err
	}
	out := make([]GroupValue, 0, len(groups))
	for key, val := range groups {
		if val >= threshold {
			out = append(out, GroupValue{Key: key, Value: val})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Value != out[j].Value {
			return out[i].Value > out[j].Value
		}
		return out[i].Key < out[j].Key
	})
	return out, nil
}

// SortedGroupKeys returns the group keys in sorted order; use with Groups
// for deterministic iteration.
func SortedGroupKeys(groups map[string]float64) []string {
	return relation.SortedKeys(groups)
}

// SplitGroupKey splits a composite group key back into dimension values.
func SplitGroupKey(key string) []string { return relation.SplitGroupKey(key) }
