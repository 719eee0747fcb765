package assembly

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"viewcube/internal/core"
	"viewcube/internal/freq"
	"viewcube/internal/haar"
	"viewcube/internal/obs"
	"viewcube/internal/velement"
)

// refPlanner is the Procedure 3 recursion as it stood before core.Proc3:
// every stored element scanned at every descendant of the target, a Plan
// node and its folds built for every candidate, no stopping rule. It is the
// oracle the kernel and both of its readers are held against.
type refPlanner struct {
	space  *velement.Space
	stored []freq.Rect
	memo   map[freq.Key]refEntry
}

type refEntry struct {
	plan *Plan
	cost float64
}

func newRefPlanner(space *velement.Space, stored []freq.Rect) *refPlanner {
	return &refPlanner{space: space, stored: stored, memo: make(map[freq.Key]refEntry)}
}

func (pl *refPlanner) plan(r freq.Rect) (*Plan, float64) {
	k := r.Key()
	if got, ok := pl.memo[k]; ok {
		return got.plan, got.cost
	}
	s := pl.space
	volR := s.Volume(r)
	var best *Plan
	bestCost := math.Inf(1)
	for _, vs := range pl.stored {
		if !vs.Contains(r) {
			continue
		}
		if cost := float64(s.Volume(vs) - volR); cost < bestCost {
			bestCost = cost
			if vs.Equal(r) {
				best = &Plan{Rect: r.Clone(), Kind: PlanStored}
			} else {
				best = &Plan{Rect: r.Clone(), Kind: PlanAggregate, Source: vs.Clone(), Ops: s.Volume(vs) - volR}
			}
		}
	}
	if best != nil && best.Kind == PlanAggregate {
		best.Folds, _ = haar.PathFolds(best.Source, best.Rect)
	}
	for m := 0; m < s.Rank(); m++ {
		p, res, ok := s.Children(r, m)
		if !ok {
			continue
		}
		pPlan, pCost := pl.plan(p)
		rPlan, rCost := pl.plan(res)
		if cost := float64(volR) + pCost + rCost; cost < bestCost {
			bestCost = cost
			best = &Plan{Rect: r.Clone(), Kind: PlanSynthesize, Dim: m, Partial: pPlan, Residual: rPlan,
				Ops: volR + pPlan.Ops + rPlan.Ops}
		}
	}
	pl.memo[k] = refEntry{plan: best, cost: bestCost}
	return best, bestCost
}

// randomSpace draws rank 1–4 and extents 2–32, then halves the largest
// extent until the graph is small enough for the unpruned oracle.
func randomSpace(rng *rand.Rand) *velement.Space {
	shape := make([]int, 1+rng.Intn(4))
	for m := range shape {
		shape[m] = 2 << rng.Intn(5)
	}
	for {
		s := velement.MustSpace(shape...)
		if s.NumElements() <= 6000 {
			return s
		}
		big := 0
		for m := range shape {
			if shape[m] > shape[big] {
				big = m
			}
		}
		shape[big] /= 2
	}
}

func randomElement(s *velement.Space, rng *rand.Rand) freq.Rect {
	r := make(freq.Rect, s.Rank())
	for m := range r {
		depth := rng.Intn(s.MaxDepth(m) + 1)
		r[m] = freq.Node(1<<depth + rng.Intn(1<<depth))
	}
	return r
}

// randomStored draws one of the four kinds of stored set the issue names.
func randomStored(s *velement.Space, rng *rand.Rand, kind int) []freq.Rect {
	if kind == 2 {
		return []freq.Rect{s.Root()}
	}
	set := velement.RandomPacketBasis(s, rng, 0.1+0.8*rng.Float64())
	seen := make(map[freq.Key]bool)
	for _, r := range set {
		seen[r.Key()] = true
	}
	switch kind {
	case 1: // the basis plus random redundant elements
		for n := 1 + rng.Intn(6); n > 0; n-- {
			if r := randomElement(s, rng); !seen[r.Key()] {
				seen[r.Key()] = true
				set = append(set, r)
			}
		}
	case 3: // incomplete: the basis minus some of its elements
		rng.Shuffle(len(set), func(i, j int) { set[i], set[j] = set[j], set[i] })
		set = set[:len(set)-1-rng.Intn((len(set)+1)/2)]
	}
	return set
}

// TestPlannerDifferential holds the Procedure 3 kernel and its two readers
// against the unpruned recursion on random shapes, stored sets and targets:
// same cost (the +Inf case included), reflect.DeepEqual plan trees, and the
// same SetEvaluator.ElementCost with and without a candidate.
func TestPlannerDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	cases, infinite, synthesized := 0, 0, 0
	for round := 0; cases < 2400; round++ {
		s := randomSpace(rng)
		stored := randomStored(s, rng, round%4)
		ref := newRefPlanner(s, stored)
		ev := core.NewSetEvaluator(s, stored)
		cand := randomElement(s, rng)
		refCand := newRefPlanner(s, append(append([]freq.Rect(nil), stored...), cand))
		for i := 0; i < 4; i++ {
			cases++
			target := randomElement(s, rng)
			wantPlan, wantCost := ref.plan(target)
			gotPlan, err := computePlan(s, stored, obs.NewAssemblyMetrics(nil), target)
			if (err != nil) != math.IsInf(wantCost, 1) {
				t.Fatalf("shape %v stored %v target %v: err %v, reference cost %g", s.Shape(), stored, target, err, wantCost)
			}
			if !reflect.DeepEqual(gotPlan, wantPlan) {
				t.Fatalf("shape %v stored %v target %v: plan trees differ\n got %+v\nwant %+v", s.Shape(), stored, target, gotPlan, wantPlan)
			}
			if got := ev.ElementCost(target); got != wantCost {
				t.Fatalf("shape %v stored %v target %v: ElementCost %g, reference %g", s.Shape(), stored, target, got, wantCost)
			}
			_, wantProbe := refCand.plan(target)
			var gotProbe float64
			ev.WithCandidate(cand, func() { gotProbe = ev.ElementCost(target) })
			if gotProbe != wantProbe {
				t.Fatalf("shape %v stored %v +%v target %v: probe cost %g, reference %g", s.Shape(), stored, cand, target, gotProbe, wantProbe)
			}
			if got := ev.ElementCost(target); got != wantCost {
				t.Fatalf("shape %v stored %v target %v: ElementCost after probe %g, reference %g", s.Shape(), stored, target, got, wantCost)
			}
			if math.IsInf(wantCost, 1) {
				infinite++
			} else if wantPlan.Kind == PlanSynthesize {
				synthesized++
			}
		}
	}
	// The draw must exercise what it claims to.
	if infinite < cases/20 || synthesized < cases/20 {
		t.Fatalf("%d cases: only %d infinite and %d synthesized", cases, infinite, synthesized)
	}
}

// TestPlanNodesVisitedMetric pins the planning work the engine reports: one
// kernel node for any target over a root-only store and for a stored one.
func TestPlanNodesVisitedMetric(t *testing.T) {
	s := velement.MustSpace(8, 4, 4)
	rng := rand.New(rand.NewSource(1))
	st, err := MaterializeSet(s, randomCube(rng, 8, 4, 4), []freq.Rect{s.Root()})
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(s, st)
	met := obs.NewAssemblyMetrics(obs.NewRegistry())
	eng.SetMetrics(met)
	for i := 1; i <= 20; i++ {
		target := randomElement(s, rng)
		if i == 20 {
			target = s.Root()
		}
		if _, err := eng.ComputePlan(target); err != nil {
			t.Fatal(err)
		}
		if got := met.NodesVisited.Value(); got != uint64(i) || met.Plans.Value() != uint64(i) {
			t.Fatalf("after %d plans: %d nodes visited, %d plans", i, got, met.Plans.Value())
		}
	}
}

// refPrune is core.PruneObsolete as it stood before it reused one
// evaluator: every trial removal costed from scratch by the reference.
func refPrune(s *velement.Space, selected []freq.Rect, queries []core.Query) ([]freq.Rect, float64) {
	total := func(set []freq.Rect) float64 {
		ref, t := newRefPlanner(s, set), 0.0
		for _, q := range queries {
			if q.Freq != 0 {
				_, c := ref.plan(q.Rect)
				t += q.Freq * c
			}
		}
		return t
	}
	needed := make(map[freq.Key]bool)
	for _, q := range queries {
		if q.Freq > 0 {
			needed[q.Rect.Key()] = true
		}
	}
	set := append([]freq.Rect(nil), selected...)
	wasComplete := freq.Complete(set, s.Root(), s.MaxDepths())
	cost := total(set)
	for i := 0; i < len(set); {
		trial := append(append([]freq.Rect(nil), set[:i]...), set[i+1:]...)
		if c := total(trial); !needed[set[i].Key()] && c <= cost && (!wasComplete || freq.Complete(trial, s.Root(), s.MaxDepths())) {
			set, cost = trial, c
			continue
		}
		i++
	}
	return set, cost
}

// TestPlannerDifferentialPrune holds PruneObsolete's removal probes (which
// re-cost only the queries overlapping the removed element) against that.
func TestPlannerDifferentialPrune(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for round := 0; round < 100; round++ {
		s := randomSpace(rng)
		stored := randomStored(s, rng, []int{0, 1, 1, 3}[round%4])
		queries := make([]core.Query, 1+rng.Intn(5))
		for i := range queries {
			queries[i] = core.Query{Rect: randomElement(s, rng), Freq: float64(rng.Intn(4))}
		}
		wantSet, wantCost := refPrune(s, stored, queries)
		gotSet, gotCost := core.PruneObsolete(s, stored, queries)
		if len(gotSet)+len(wantSet) > 0 && !reflect.DeepEqual(gotSet, wantSet) || gotCost != wantCost {
			t.Fatalf("shape %v stored %v queries %v:\n got %v cost %g\nwant %v cost %g", s.Shape(), stored, queries, gotSet, gotCost, wantSet, wantCost)
		}
	}
}
