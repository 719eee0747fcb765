package relation

import (
	"fmt"

	"viewcube/internal/ndarray"
)

// ViewGroups is the retired map path, kept as a test-only reference: until
// the columnar viewcube.Result it was how an aggregated view array became a
// relational answer. The root package's differential tests pin Result
// against the same semantics.
//
// ViewGroups converts a materialised aggregated view array back into
// relational GROUP-BY form: a map from the group key (the values of the
// non-aggregated dimensions, in dimension order) to the summed measure.
// aggregated[m] reports whether dimension m was totally aggregated.
// Padding cells (codes beyond the dictionary) are skipped; they are always
// zero for views built from relations.
func (e *Encoding) ViewGroups(view *ndarray.Array, aggregated []bool) (map[string]float64, error) {
	if len(aggregated) != len(e.Dicts) {
		return nil, fmt.Errorf("relation: aggregated mask rank %d, want %d", len(aggregated), len(e.Dicts))
	}
	for m := range aggregated {
		want := 1
		if !aggregated[m] {
			want = e.Shape[m]
		}
		if view.Dim(m) != want {
			return nil, fmt.Errorf("relation: view extent %d on dimension %d, want %d", view.Dim(m), m, want)
		}
	}
	out := make(map[string]float64)
	var bad error
	view.Each(func(idx []int, v float64) {
		if bad != nil {
			return
		}
		var parts []string
		for m, i := range idx {
			if aggregated[m] {
				continue
			}
			val, ok := e.Dicts[m].Value(i)
			if !ok {
				// Padding cell: must be empty.
				if v != 0 {
					bad = fmt.Errorf("relation: nonzero padding cell at %v", idx)
				}
				return
			}
			parts = append(parts, val)
		}
		out[GroupKey(parts...)] += v
	})
	if bad != nil {
		return nil, bad
	}
	// Sorting determinism is provided by the caller iterating keys; nothing
	// further to do here.
	return out, nil
}
