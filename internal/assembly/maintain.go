package assembly

import (
	"fmt"
	"slices"

	"viewcube/internal/haar"
	"viewcube/internal/velement"
)

// This file implements incremental maintenance of a materialised element
// store: when one cube cell changes by δ, every stored element changes in
// exactly one cell, by ±δ (linearity of the partial/residual operators).
// Updating k stored elements costs O(k·d) — independent of any element's
// volume — versus full rematerialisation.

// UpdateCell applies delta — one value per plane, nil for none — to the
// cube cell at idx across every element in the store (including the root
// cube element, if stored). Stores that cache arrays by reference
// (MemStore) are updated in place; write-through stores are re-Put so
// durable copies stay consistent. An all-zero delta only validates idx.
func UpdateCell(space *velement.Space, st Store, delta []float64, idx []int) error {
	if len(idx) != space.Rank() {
		return fmt.Errorf("assembly: index rank %d does not match space rank %d", len(idx), space.Rank())
	}
	shape := space.Shape()
	for m, i := range idx {
		if i < 0 || i >= shape[m] {
			return fmt.Errorf("assembly: index %v out of bounds for shape %v", idx, shape)
		}
	}
	if !slices.ContainsFunc(delta, func(d float64) bool { return d != 0 }) {
		return nil
	}
	for _, r := range st.Elements() {
		a, ok := st.Get(r)
		if !ok {
			return fmt.Errorf("assembly: element %v listed but not retrievable", r)
		}
		if len(delta) != a.Planes() {
			return fmt.Errorf("assembly: %d deltas for the %d planes of %v", len(delta), a.Planes(), r)
		}
		elemIdx, sign, err := haar.CellContribution(r, idx)
		if err != nil {
			return err
		}
		off, cells, data := a.Offset(elemIdx), a.Cells(), a.Data()
		for p, d := range delta {
			data[p*cells+off] += float64(sign) * d
		}
		if err := st.Put(r, a); err != nil {
			return fmt.Errorf("assembly: persisting update to %v: %w", r, err)
		}
	}
	return nil
}
