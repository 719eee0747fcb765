package core

import (
	"math"

	"viewcube/internal/freq"
	"viewcube/internal/velement"
)

// This file implements Algorithm 1: minimum-cost non-redundant basis
// selection. The algorithm is a dynamic program over the recursive
// frequency-plane split: for every view element V,
//
//	D(V) = min( C(V), min_m [ D(P₁ᵐ(V)) + D(R₁ᵐ(V)) ] )
//
// where C(V) is the element's support cost (Eq. 29) and m ranges over the
// dimensions on which V can still be decomposed. The optimal basis is
// extracted by replaying the argmin choices from the root (Procedure 2).
//
// The recursion runs on the walker of walk.go with the positive-frequency
// queries as landmarks, and stops where they run out: C(V) = 0 ⇒ D(V) = 0,
// because a split must be strictly cheaper than C(V) to be chosen and costs
// are non-negative. The worst case is still the paper's O((d+1)·N_ve)
// comparisons; the work done follows the population's support.

// BasisResult is the outcome of Algorithm 1.
type BasisResult struct {
	Basis []freq.Rect // the selected complete, non-redundant basis
	Cost  float64     // its total processing cost Σ_n C_n (the DP optimum)
}

// SelectBasis runs Algorithm 1 and returns the optimal non-redundant view
// element basis for the query population together with its cost.
func SelectBasis(s *velement.Space, queries []Query) (BasisResult, error) {
	if err := ValidateQueries(s, queries); err != nil {
		return BasisResult{}, err
	}
	sel := newSelector(s, queries)
	cost := sel.solve(s.Root()).cost
	// The dimension to split, or −1 to terminate (element joins the basis).
	basis := s.ExtractBasis(func(r freq.Rect) int { return int(sel.solve(r).dim) })
	return BasisResult{Basis: basis, Cost: cost}, nil
}

// selector is the Algorithm 1 DP; freqs[i] weighs landmark marks[i].
type selector struct {
	walker
	freqs    []float64
	expanded int // elements whose splits were tried
}

func newSelector(s *velement.Space, queries []Query) *selector {
	sel := &selector{walker: walker{s: s, memo: make(map[freq.Key]node)}}
	sel.at = sel.best
	for _, q := range queries {
		if q.Freq != 0 {
			sel.marks = append(sel.marks, q.Rect)
			sel.freqs = append(sel.freqs, q.Freq)
		}
	}
	return sel
}

// best is the recurrence above at cur.
func (sel *selector) best(lo, hi int) node {
	n := node{cost: sel.supportCost(lo, hi), dim: -1, src: -1}
	if n.cost > 0 {
		sel.expanded++
		// Step 4 of Algorithm 1 stops as soon as the element's own support
		// cost does not exceed the best split — but to find the global
		// optimum we still compare against every dimension's split cost.
		for m := range sel.cur {
			if t, ok := sel.split(m, lo, hi); ok && t < n.cost {
				n.cost, n.dim = t, int8(m)
			}
		}
	}
	return n
}

// supportCost is C(cur) of Eq. 29 over the live queries, each of which
// overlaps cur: per dimension the two nodes are nested, so the
// intersection's extent is that of the deeper.
func (sel *selector) supportCost(lo, hi int) float64 {
	total := 0.0
	volR := sel.s.Volume(sel.cur)
	for _, i := range sel.live[lo:hi] {
		q := sel.marks[i]
		vl := 1
		for m, v := range sel.cur {
			vl *= sel.s.Dim(m) >> max(v.Depth(), q[m].Depth())
		}
		total += sel.freqs[i] * float64(volR+sel.s.Volume(q)-2*vl)
	}
	return total
}

// ExhaustiveBestBasis finds the optimal non-redundant basis by brute-force
// enumeration of every complete non-redundant tiling. It is exponential and
// exists only to validate Algorithm 1 on tiny spaces in tests and ablation
// benchmarks.
func ExhaustiveBestBasis(s *velement.Space, queries []Query) (BasisResult, error) {
	if err := ValidateQueries(s, queries); err != nil {
		return BasisResult{}, err
	}
	best := BasisResult{Cost: math.Inf(1)}
	var enumerate func(pending []freq.Rect, chosen []freq.Rect, cost float64)
	enumerate = func(pending, chosen []freq.Rect, cost float64) {
		if cost >= best.Cost {
			return
		}
		if len(pending) == 0 {
			best = BasisResult{Basis: append([]freq.Rect(nil), chosen...), Cost: cost}
			return
		}
		r := pending[len(pending)-1]
		rest := pending[:len(pending)-1]
		// Option 1: keep r in the basis.
		enumerate(rest, append(chosen, r), cost+ElementSupportCost(s, r, queries))
		// Option 2: split r on each splittable dimension.
		for m := 0; m < s.Rank(); m++ {
			p, res, ok := s.Children(r, m)
			if !ok {
				continue
			}
			enumerate(append(append(append([]freq.Rect(nil), rest...), p), res), chosen, cost)
		}
	}
	enumerate([]freq.Rect{s.Root()}, nil, 0)
	return best, nil
}
