package core

import (
	"math"

	"viewcube/internal/freq"
	"viewcube/internal/velement"
)

// This file implements Procedure 3: the processing cost of generating a view
// element from a *redundant* stored set. Each element's generation cost T(V)
// is the cheaper of
//
//   - aggregation: cascade down from some stored ancestor V_s, costing
//     F = Vol(V_s) − Vol(V) add/subtracts (Eq. 28; 0 when V itself is
//     stored), or
//   - synthesis: perfectly reconstruct V from its partial and residual
//     children on some dimension, costing Vol(V) plus the children's own
//     generation costs (Eq. 32–33).
//
// The recurrence is stated once, in Proc3.best. SetEvaluator reads costs
// from it (Algorithm 2's probes) and the assembly planner reads the argmin
// tree from it (the executable plan). It runs on the walker of walk.go with
// the stored set as landmarks, so it visits only what the stored set can
// reach, and four rules stop it (DESIGN.md §2, "planning complexity"):
//
//  1. no live element ⇒ T = +Inf (Eq. 26: nothing contributes);
//  2. every live element contains the target ⇒ T = Vol(smallest) − Vol(V):
//     by induction every descendant is aggregate-only too, so synthesis
//     costs 2·Vol(smallest), more than aggregation;
//  3. aggregation already costs ≤ Vol(V) ⇒ synthesis (≥ Vol(V), and it must
//     be strictly cheaper to win) is not tried — this stops at every stored
//     element;
//  4. memoisation over the symmetry classes actually visited.

// Decision is Procedure 3's answer for one element: its minimum generation
// cost and the alternative that achieves it.
type Decision struct {
	// Cost is T(V), or +Inf when the stored set cannot generate V.
	Cost float64
	// Dim ≥ 0 synthesizes V from its children on Dim. Dim < 0 with a finite
	// Cost aggregates from Source (Source equal to V reads it directly).
	Dim    int
	Source freq.Rect
}

// Proc3 is the Procedure 3 kernel for one stored set (the walker's marks;
// vols[i] is Vol(marks[i])). It is not safe for concurrent use.
type Proc3 struct {
	walker
	vols []int
}

// NewProc3 returns the kernel over the given stored set. Ties between
// aggregation sources go to the earliest element of stored.
func NewProc3(s *velement.Space, stored []freq.Rect) *Proc3 {
	k := &Proc3{walker: walker{s: s, memo: make(map[freq.Key]node)}}
	k.at = k.best
	k.reset(stored)
	return k
}

// reset re-targets the kernel at another stored set, given in parts.
func (k *Proc3) reset(parts ...[]freq.Rect) {
	k.marks, k.vols = k.marks[:0], k.vols[:0]
	for _, part := range parts {
		for _, r := range part {
			k.marks = append(k.marks, r)
			k.vols = append(k.vols, k.s.Volume(r))
		}
	}
	k.forget()
}

// Visited returns how many elements the kernel has costed (memo hits
// excluded) — the planning work actually done.
func (k *Proc3) Visited() int { return k.visited }

// Decide returns the Procedure 3 decision for element r.
func (k *Proc3) Decide(r freq.Rect) Decision {
	n := k.solve(r)
	d := Decision{Cost: n.cost, Dim: int(n.dim)}
	if n.src >= 0 {
		d.Source = k.marks[n.src]
	}
	return d
}

// best is the recurrence above at cur.
func (k *Proc3) best(lo, hi int) node {
	n := node{cost: math.Inf(1), dim: -1, src: -1}
	volR := k.s.Volume(k.cur)
	allContain := true
	for _, i := range k.live[lo:hi] {
		if !k.marks[i].Contains(k.cur) {
			allContain = false
		} else if c := float64(k.vols[i] - volR); c < n.cost {
			n.cost, n.src = c, i
		}
	}
	if !allContain && n.cost > float64(volR) { // else rule 1, 2 or 3
		for m := range k.cur {
			if c, ok := k.split(m, lo, hi); ok && float64(volR)+c < n.cost {
				n = node{cost: float64(volR) + c, dim: int8(m), src: -1}
			}
		}
	}
	return n
}

// SetEvaluator computes Procedure 3 costs for one selected element set and
// supports cheap "what if we also selected candidate c?" probes, which is
// exactly the inner loop of Algorithm 2. A probe re-costs only the elements
// whose rectangle overlaps the candidate: the others cannot see it (Eq. 26).
// A SetEvaluator is not safe for concurrent use.
type SetEvaluator struct {
	s          *velement.Space
	base       *Proc3 // over the selected set
	isSelected map[freq.Key]bool

	// During a probe delta is non-nil and trial is the kernel over the
	// selected set with delta added (WithCandidate) or removed (without).
	trial *Proc3
	delta freq.Rect
}

// NewSetEvaluator returns an evaluator for the given selected set.
func NewSetEvaluator(s *velement.Space, selected []freq.Rect) *SetEvaluator {
	e := &SetEvaluator{
		s:          s,
		base:       NewProc3(s, nil),
		trial:      NewProc3(s, nil),
		isSelected: make(map[freq.Key]bool, len(selected)),
	}
	for _, r := range selected {
		e.Add(r)
	}
	return e
}

// Add permanently selects one more element (idempotent).
func (e *SetEvaluator) Add(r freq.Rect) {
	k := r.Key()
	if e.isSelected[k] {
		return
	}
	e.isSelected[k] = true
	e.base.marks = append(e.base.marks, r.Clone())
	e.base.vols = append(e.base.vols, e.s.Volume(r))
	e.base.forget()
}

// Selected returns a copy of the currently selected set.
func (e *SetEvaluator) Selected() []freq.Rect {
	out := make([]freq.Rect, len(e.base.marks))
	for i, r := range e.base.marks {
		out[i] = r.Clone()
	}
	return out
}

// Storage returns the summed data-cell volume of the selected set.
func (e *SetEvaluator) Storage() int {
	v := 0
	for _, vol := range e.base.vols {
		v += vol
	}
	return v
}

// WithCandidate evaluates fn as if c were also selected, then restores the
// evaluator. It is the "select, compute, de-select" probe of Algorithm 2
// step 2.
func (e *SetEvaluator) WithCandidate(c freq.Rect, fn func()) {
	e.trial.reset(e.base.marks, []freq.Rect{c})
	e.probe(c, fn)
}

// without evaluates fn as if selected element i were not selected.
func (e *SetEvaluator) without(i int, fn func()) {
	sel := e.base.marks
	e.trial.reset(sel[:i], sel[i+1:])
	e.probe(sel[i], fn)
}

func (e *SetEvaluator) probe(delta freq.Rect, fn func()) {
	e.delta = delta
	fn()
	e.delta = nil
}

// remove permanently de-selects selected element i.
func (e *SetEvaluator) remove(i int) {
	delete(e.isSelected, e.base.marks[i].Key())
	e.base.marks = append(e.base.marks[:i], e.base.marks[i+1:]...)
	e.base.vols = append(e.base.vols[:i], e.base.vols[i+1:]...)
	e.base.forget()
}

// ElementCost returns T(r): the minimum number of add/subtract operations
// to generate element r from the selected set, or +Inf if the set cannot
// generate it (the set is not complete with respect to r).
func (e *SetEvaluator) ElementCost(r freq.Rect) float64 {
	if e.delta != nil && e.delta.Overlaps(r) {
		return e.trial.Decide(r).Cost
	}
	return e.base.Decide(r).Cost
}

// TotalCost returns T = Σ f_k · T(Z_k) (Eq. 34): the expected processing
// cost of the query population under the selected set.
func (e *SetEvaluator) TotalCost(queries []Query) float64 {
	total := 0.0
	for _, q := range queries {
		if q.Freq == 0 {
			continue
		}
		total += q.Freq * e.ElementCost(q.Rect)
	}
	return total
}

// TotalProcessingCost is a convenience wrapper: the Procedure 3 cost of one
// selected set for one query population.
func TotalProcessingCost(s *velement.Space, selected []freq.Rect, queries []Query) float64 {
	return NewSetEvaluator(s, selected).TotalCost(queries)
}

// UnweightedTotalCost sums T(Z_k) without frequency weighting. Table 2 of
// the paper reports this raw sum for the pedagogical example.
func (e *SetEvaluator) UnweightedTotalCost(queries []Query) float64 {
	total := 0.0
	for _, q := range queries {
		if q.Freq == 0 {
			continue
		}
		total += e.ElementCost(q.Rect)
	}
	return total
}
