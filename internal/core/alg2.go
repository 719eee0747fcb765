package core

import (
	"fmt"
	"math"

	"viewcube/internal/freq"
	"viewcube/internal/velement"
)

// This file implements Algorithm 2: greedy selection of redundant view
// elements under a target storage cost. Starting from an initial set
// (normally the Algorithm 1 basis), each stage probes every candidate
// element that still fits in the storage budget, keeps the one yielding the
// largest reduction of the Procedure 3 total processing cost, and repeats
// until the budget is exhausted or no candidate helps. The same routine
// with the 2^d aggregated views as candidates and {A} as the initial set
// reproduces the HRU-style greedy *view* materialisation the paper uses as
// its comparison method [D] in Experiment 2.

// GreedyStep records the state after one greedy addition.
type GreedyStep struct {
	Added   freq.Rect // the element selected at this stage
	Storage int       // total selected volume after the addition
	Cost    float64   // Procedure 3 total processing cost after the addition
}

// GreedyResult is the trajectory of Algorithm 2.
type GreedyResult struct {
	Initial        []freq.Rect // the starting set (e.g. the Algorithm 1 basis)
	InitialStorage int
	InitialCost    float64
	Steps          []GreedyStep
	Final          []freq.Rect // initial set plus all additions
}

// Frontier returns the (storage, cost) curve including the initial point —
// the series plotted in Figure 9.
func (g *GreedyResult) Frontier() (storage []int, cost []float64) {
	storage = append(storage, g.InitialStorage)
	cost = append(cost, g.InitialCost)
	for _, st := range g.Steps {
		storage = append(storage, st.Storage)
		cost = append(cost, st.Cost)
	}
	return storage, cost
}

// GreedyRedundant runs Algorithm 2. initial is the already-selected set
// (must be able to answer every query, i.e. complete with respect to each
// query rectangle); candidates is the pool of elements considered for
// addition; targetStorage is S_T, the maximum total selected volume in
// cells. Candidates already selected, or not fitting the remaining budget,
// are skipped. The loop ends when the budget is reached or no candidate
// strictly reduces the total processing cost.
func GreedyRedundant(s *velement.Space, initial, candidates []freq.Rect, queries []Query, targetStorage int) (*GreedyResult, error) {
	return greedy(s, initial, candidates, queries, targetStorage, false)
}

// GreedyRedundantPruned is the §7.2.2 variant of Algorithm 2 that, after
// each addition, removes selected elements made obsolete by it (removals
// that do not increase the total processing cost). With the 2^d aggregated
// views as candidates this is the configuration for which the paper argues
// the element method's storage/processing frontier dominates greedy view
// materialisation at every target storage cost.
func GreedyRedundantPruned(s *velement.Space, initial, candidates []freq.Rect, queries []Query, targetStorage int) (*GreedyResult, error) {
	return greedy(s, initial, candidates, queries, targetStorage, true)
}

func greedy(s *velement.Space, initial, candidates []freq.Rect, queries []Query, targetStorage int, prune bool) (*GreedyResult, error) {
	if err := ValidateQueries(s, queries); err != nil {
		return nil, err
	}
	for _, r := range initial {
		if !s.Valid(r) {
			return nil, fmt.Errorf("core: initial element %v is not a view element of the space", r)
		}
	}
	for _, r := range candidates {
		if !s.Valid(r) {
			return nil, fmt.Errorf("core: candidate element %v is not a view element of the space", r)
		}
	}
	ev := NewSetEvaluator(s, initial)
	res := &GreedyResult{
		Initial:        ev.Selected(),
		InitialStorage: ev.Storage(),
		InitialCost:    ev.TotalCost(queries),
	}
	if math.IsInf(res.InitialCost, 1) {
		return nil, fmt.Errorf("core: initial set cannot answer the query population (incomplete)")
	}

	// pool holds candidates not yet selected.
	pool := make([]freq.Rect, 0, len(candidates))
	seen := make(map[freq.Key]bool)
	for _, c := range candidates {
		k := c.Key()
		if seen[k] {
			continue
		}
		seen[k] = true
		pool = append(pool, c)
	}

	cur := res.InitialCost
	for {
		storage := ev.Storage()
		if storage >= targetStorage {
			break
		}
		bestIdx := -1
		bestCost := cur
		for i, c := range pool {
			if c == nil {
				continue
			}
			if ev.isSelected[c.Key()] {
				pool[i] = nil
				continue
			}
			if storage+s.Volume(c) > targetStorage {
				continue
			}
			var probed float64
			ev.WithCandidate(c, func() {
				probed = ev.TotalCost(queries)
			})
			if probed < bestCost {
				bestCost = probed
				bestIdx = i
			}
		}
		if bestIdx < 0 {
			break // no candidate fits and strictly helps
		}
		chosen := pool[bestIdx]
		pool[bestIdx] = nil
		ev.Add(chosen)
		if prune {
			ev.pruneObsolete(queries)
		}
		cur = ev.TotalCost(queries)
		res.Steps = append(res.Steps, GreedyStep{
			Added:   chosen.Clone(),
			Storage: ev.Storage(),
			Cost:    cur,
		})
	}
	res.Final = ev.Selected()
	return res, nil
}

// AllElements returns every view element of the space — the full candidate
// pool for Algorithm 2 on small spaces. It allocates NumElements rects;
// callers on large spaces should restrict the pool instead.
func AllElements(s *velement.Space) []freq.Rect {
	var out []freq.Rect
	s.Elements(func(r freq.Rect) bool {
		out = append(out, r.Clone())
		return true
	})
	return out
}

// GreedyViews runs the paper's comparison method [D] of Experiment 2:
// materialise the data cube, then greedily add whole aggregated views
// (never partial or residual elements) under the same cost model.
func GreedyViews(s *velement.Space, queries []Query, targetStorage int) (*GreedyResult, error) {
	views := s.AggregatedViews()
	return GreedyRedundant(s, []freq.Rect{s.Root()}, views[1:], queries, targetStorage)
}

// PruneObsolete removes selected elements whose removal leaves the total
// processing cost unchanged (the paper's §7.2.2 remark: "add the best view,
// and remove the obsolete view elements"). Two constraints are preserved:
// queries' own rectangles are never pruned while they carry positive
// frequency, and the set always remains a basis of the data cube
// (Definition 8) — the selected set is the stored representation of the
// cube, so it must stay able to reconstruct it. The reduced set and its
// cost are returned; the input slice is not modified.
func PruneObsolete(s *velement.Space, selected []freq.Rect, queries []Query) ([]freq.Rect, float64) {
	ev := NewSetEvaluator(s, selected)
	cost := ev.pruneObsolete(queries)
	return ev.Selected(), cost
}

// pruneObsolete is PruneObsolete on the evaluator's own selected set. Each
// trial removal re-costs only the queries that overlap the removed element.
func (e *SetEvaluator) pruneObsolete(queries []Query) float64 {
	needed := make(map[freq.Key]bool)
	for _, q := range queries {
		if q.Freq > 0 {
			needed[q.Rect.Key()] = true
		}
	}
	root := e.s.Root()
	maxDepths := e.s.MaxDepths()
	wasComplete := freq.Complete(e.base.marks, root, maxDepths)
	cost := e.TotalCost(queries)
	for i := 0; i < len(e.base.marks); {
		if needed[e.base.marks[i].Key()] {
			i++
			continue
		}
		var c float64
		e.without(i, func() { c = e.TotalCost(queries) })
		if c <= cost && (!wasComplete || freq.Complete(e.trial.marks, root, maxDepths)) {
			e.remove(i)
			cost = c
			continue // re-test index i, which now holds the next element
		}
		i++
	}
	return cost
}
