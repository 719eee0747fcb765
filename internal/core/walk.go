package core

import (
	"viewcube/internal/freq"
	"viewcube/internal/velement"
)

// This file holds what Algorithm 1 (alg1.go) and Procedure 3 (proc3.go)
// share: both are dynamic programs over the view element graph whose value
// at an element depends on a set of landmark rectangles — the query
// population, the stored set — only through the landmarks that overlap it
// (Eq. 26: a disjoint rectangle contributes nothing). The walker carries
// that live list down the recursion (a child's list is its parent's filtered
// on the split dimension), steps one rectangle in place, and memoises per
// symmetry class instead of per element.

// classes folds the graph by its symmetry with respect to the landmarks.
// Both recurrences see an element only through, per dimension, its node's
// depth and which landmark nodes it is nested with; two nodes agreeing on
// both are interchangeable, and so are their partial children and their
// residual children. classes[m][v] is the representative of node v's class
// on dimension m: ancestors of landmark nodes (and the landmarks) are their
// own class, every other node shares one with all nodes of its depth under
// the same lowest landmark — 13 classes for the 127 nodes of a 64-extent
// dimension under a group-by population. The memo is keyed on
// representatives, so its size follows the landmarks, not Π(2nᵢ−1).
type classes [][]freq.Node

func newClasses(s *velement.Space, landmarks []freq.Rect) classes {
	c := make(classes, s.Rank())
	for m := range c {
		n := 2 * s.Dim(m) // nodes are 1 … n−1
		rep := make([]freq.Node, n)
		onPath := make([]bool, n) // ancestor-or-self of a landmark node
		low := make([]int32, n)   // 1-based id of the lowest landmark node at or above, 0 for none
		ids := 0
		for _, r := range landmarks {
			if low[r[m]] == 0 {
				ids++
				low[r[m]] = int32(ids)
			}
			for v := r[m]; v >= 1 && !onPath[v]; v >>= 1 {
				onPath[v] = true
			}
		}
		first := make([]freq.Node, (s.MaxDepth(m)+1)*(ids+1)) // first node seen, by (depth, low)
		for v := freq.Node(1); int(v) < n; v++ {
			if low[v] == 0 {
				low[v] = low[v>>1]
			}
			if onPath[v] {
				rep[v] = v
				continue
			}
			slot := &first[v.Depth()*(ids+1)+int(low[v])]
			if *slot == 0 {
				*slot = v
			}
			rep[v] = *slot
		}
		c[m] = rep
	}
	return c
}

// node is a memoised DP value: the optimum at one element and its argmin.
type node struct {
	cost float64
	dim  int8  // ≥ 0: split (synthesize) on dim; −1: stop (aggregate) here
	src  int32 // Procedure 3: index of the aggregation source, −1 for none
}

// walker is the DP skeleton; at is the recurrence, evaluated at cur with the
// live landmarks marks[live[lo:hi]]. It is not safe for concurrent use.
type walker struct {
	s     *velement.Space
	marks []freq.Rect
	at    func(lo, hi int) node

	cls     classes // with respect to marks; built on first use
	memo    map[freq.Key]node
	cur     freq.Rect // the class representative being solved
	live    []int32   // stack of live lists
	visited int       // elements the recurrence was evaluated at
}

// forget drops everything derived from marks.
func (w *walker) forget() {
	w.cls = nil
	clear(w.memo)
}

// solve returns the DP value at element r.
func (w *walker) solve(r freq.Rect) node {
	if w.cls == nil {
		w.cls = newClasses(w.s, w.marks)
	}
	w.cur = append(w.cur[:0], r...)
	for m, v := range r {
		w.cur[m] = w.cls[m][v]
	}
	if n, ok := w.memo[w.cur.Key()]; ok {
		return n
	}
	w.live = w.live[:0]
	for i, mk := range w.marks {
		if mk.Overlaps(w.cur) {
			w.live = append(w.live, int32(i))
		}
	}
	return w.visit(0, len(w.live))
}

func (w *walker) visit(lo, hi int) node {
	w.visited++
	key := w.cur.Key()
	n := w.at(lo, hi)
	w.memo[key] = n
	return n
}

// split returns the summed values of cur's partial and residual children on
// dimension m, or ok=false if cur cannot be split there.
func (w *walker) split(m, lo, hi int) (sum float64, ok bool) {
	if !w.s.CanSplit(w.cur, m) {
		return 0, false
	}
	v := w.cur[m]
	sum = w.child(m, v.Partial(), lo, hi) + w.child(m, v.Residual(), lo, hi)
	w.cur[m] = v
	return sum, true
}

func (w *walker) child(m int, v freq.Node, lo, hi int) float64 {
	v = w.cls[m][v]
	w.cur[m] = v
	if n, ok := w.memo[w.cur.Key()]; ok {
		return n.cost
	}
	top := len(w.live)
	for _, i := range w.live[lo:hi] {
		if !freq.Disjoint(w.marks[i][m], v) {
			w.live = append(w.live, i)
		}
	}
	n := w.visit(top, len(w.live))
	w.live = w.live[:top]
	return n.cost
}
