package core

import (
	"viewcube/internal/freq"
	"viewcube/internal/velement"
)

// elementSupportCostFast is the selector's C(V) for one element, so tests
// can hold it against the plain ElementSupportCost.
func elementSupportCostFast(s *velement.Space, r freq.Rect, queries []Query) float64 {
	sel := newSelector(s, queries)
	sel.at = func(lo, hi int) node { return node{cost: sel.supportCost(lo, hi)} }
	return sel.solve(r).cost
}
