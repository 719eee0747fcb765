package rangeagg

import (
	"fmt"

	"viewcube/internal/ndarray"
	"viewcube/internal/obs"
)

// GroupedRangeSum answers the classic OLAP "dice" query — SUM grouped by
// the kept dimensions, filtered to a contiguous range on every other
// dimension — through intermediate view elements: each filtered dimension
// is dyadically decomposed, and for every combination of blocks one slab of
// the matching intermediate element (kept dimensions undecomposed) is
// accumulated into the result. The output array has the full cube extent on
// kept dimensions and extent 1 elsewhere, matching the layout of an
// aggregated view.
//
// The box must cover the full extent of every kept dimension (a filter on a
// kept dimension would make the "group" cells outside the filter ambiguous;
// slice the result instead). The result has the elements' plane count.
func (q *Querier) GroupedRangeSum(box Box, keep []bool) (*ndarray.Array, error) {
	return q.GroupedRangeSumCtx(nil, box, keep)
}

// GroupedRangeSumCtx is GroupedRangeSum with an explicit per-query
// execution context (nil means untraced).
func (q *Querier) GroupedRangeSumCtx(x *obs.ExecCtx, box Box, keep []bool) (*ndarray.Array, error) {
	shape := q.space.Shape()
	if len(keep) != len(shape) {
		return nil, fmt.Errorf("rangeagg: keep mask rank %d, want %d", len(keep), len(shape))
	}
	if err := box.Validate(shape); err != nil {
		return nil, err
	}
	d := len(shape)
	outShape := make([]int, d)
	for m := 0; m < d; m++ {
		if keep[m] {
			if box.Lo[m] != 0 || box.Ext[m] != shape[m] {
				return nil, fmt.Errorf("rangeagg: kept dimension %d must be unfiltered (box %v)", m, box)
			}
			outShape[m] = shape[m]
			continue
		}
		outShape[m] = 1
	}
	// Kept dimensions become whole-slab legs, filtered dimensions dyadic
	// block legs.
	legs := DecomposeBox(box.Lo, box.Ext, keep)
	// Every block combination extracts a slab of the same shape (outShape),
	// so one pooled buffer, leased at the first element, serves the whole
	// loop.
	var out, slab *ndarray.Array
	defer func() { ndarray.Recycle(slab) }()
	read := 0

	idx := make([]int, d)
	depths := make([]int, d)
	lo := make([]int, d)
	ext := make([]int, d)
	for {
		for m := 0; m < d; m++ {
			if keep[m] {
				depths[m] = 0
				lo[m] = 0
				ext[m] = shape[m]
				continue
			}
			b := legs[m].Blocks[idx[m]]
			depths[m] = b.Level
			lo[m] = b.Start >> uint(b.Level)
			ext[m] = 1
		}
		el, err := q.element(x, depths)
		if err != nil {
			return nil, err
		}
		if out == nil {
			out = ndarray.NewPlanes(el.Planes(), outShape...)
			slab, _ = ndarray.ScratchPlanes(el.Planes(), outShape...)
		}
		if err := el.SubArrayInto(lo, ext, slab); err != nil {
			return nil, err
		}
		// Accumulate the slab into the output (same shapes by construction).
		dst := out.Data()
		for i, v := range slab.Data() {
			dst[i] += v
		}
		read += slab.Cells()

		// Advance over the filtered dimensions' block products.
		m := d - 1
		for ; m >= 0; m-- {
			if keep[m] {
				continue
			}
			idx[m]++
			if idx[m] < len(legs[m].Blocks) {
				break
			}
			idx[m] = 0
		}
		if m < 0 {
			q.mu.Lock()
			q.CellsRead += read
			q.mu.Unlock()
			return out, nil
		}
	}
}
