package core

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"viewcube/internal/freq"
	"viewcube/internal/velement"
)

// refSelectBasis is Algorithm 1 as it stood before the walker: the
// recurrence evaluated at every element of the graph, C(V) by the plain
// ElementSupportCost, no stopping rule and no symmetry classes.
func refSelectBasis(s *velement.Space, queries []Query) BasisResult {
	type entry struct {
		cost   float64
		choice int
	}
	memo := make(map[freq.Key]entry)
	var solve func(r freq.Rect) float64
	solve = func(r freq.Rect) float64 {
		if e, ok := memo[r.Key()]; ok {
			return e.cost
		}
		e := entry{ElementSupportCost(s, r, queries), -1}
		for m := 0; m < s.Rank(); m++ {
			if p, res, ok := s.Children(r, m); ok {
				if t := solve(p) + solve(res); t < e.cost {
					e = entry{t, m}
				}
			}
		}
		memo[r.Key()] = e
		return e.cost
	}
	cost := solve(s.Root())
	return BasisResult{Basis: s.ExtractBasis(func(r freq.Rect) int { return memo[r.Key()].choice }), Cost: cost}
}

func randomRect(s *velement.Space, rng *rand.Rand) freq.Rect {
	r := make(freq.Rect, s.Rank())
	for m := range r {
		depth := rng.Intn(s.MaxDepth(m) + 1)
		r[m] = freq.Node(1<<depth + rng.Intn(1<<depth))
	}
	return r
}

// TestSelectionEquivalenceRandom holds Algorithm 1 on the walker against the
// unpruned recurrence: same basis in the same order and the same cost to the
// bit, for view populations and for populations of arbitrary elements
// (zero-frequency and duplicate queries included).
func TestSelectionEquivalenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < 400; trial++ {
		shape := make([]int, 1+rng.Intn(4))
		for m := range shape {
			shape[m] = 2 << rng.Intn(5-len(shape)/2)
		}
		s := velement.MustSpace(shape...)
		var queries []Query
		if trial%2 == 0 {
			queries = randomViewQueries(s, rng)
		}
		for n := rng.Intn(6); n > 0 || len(queries) == 0; n-- {
			queries = append(queries, Query{Rect: randomRect(s, rng), Freq: float64(rng.Intn(4)) / 3})
		}
		got, err := SelectBasis(s, queries)
		if err != nil {
			t.Fatal(err)
		}
		if want := refSelectBasis(s, queries); !reflect.DeepEqual(got, want) {
			t.Fatalf("shape %v queries %v:\n got %v cost %v\nwant %v cost %v", shape, queries, got.Basis, got.Cost, want.Basis, want.Cost)
		}
	}
}

// benchSpace and benchQueries are the shape and the 14-view population
// cmd/cubebench optimizes `sales` for on assemble_cold (dimensions product,
// region, day, channel; mask bit m set ⇒ dimension m aggregated).
func benchSpace() *velement.Space { return velement.MustSpace(64, 16, 32, 4) }

func benchQueries(s *velement.Space) []Query {
	masks := []uint{6, 4, 7, 11, 3, 1, 9, 10, 5, 13, 2, 14, 15, 12}
	freqs := []float64{0.21528112633168134, 0.10764056316584067, 0.07176037544389377, 0.053820281582920335,
		0.04305622526633626, 0.035880187721946885, 0.030754446618811618, 0.026910140791460167,
		0.02392012514796459, 0.02152811263316813, 0.0195710114846983, 0.017940093860973443,
		0.016560086640898565, 0.015377223309405809}
	queries := make([]Query, len(masks))
	for i, mask := range masks {
		queries[i] = Query{Rect: s.ViewForMask(mask), Freq: freqs[i]}
	}
	return queries
}

func digest(set []freq.Rect) string {
	return fmt.Sprintf("%d:%x", len(set), sha256.Sum256([]byte(fmt.Sprint(set))))
}

// TestSelectionEquivalence pins Algorithm 1 and pruned Algorithm 2 at the
// benchmark shape to what the commit before the walker (313a09d) selected:
// the basis with its order, its cost, and the budget-2 greedy trajectory
// over the candidate pool adaptive.Reconfigure uses. Costs are float64 bits.
func TestSelectionEquivalence(t *testing.T) {
	s := benchSpace()
	queries := benchQueries(s)
	res, err := SelectBasis(s, queries)
	if err != nil {
		t.Fatal(err)
	}
	if got := digest(res.Basis); got != "141:646946a1d05900b058fb08ade3fb52aba35982ec0b02c3afb94fb1b6841c99ea" {
		t.Fatalf("basis %s", got)
	}
	if got := math.Float64bits(res.Cost); got != 4663995502072363077 {
		t.Fatalf("basis cost %v (bits %d)", res.Cost, got)
	}

	var candidates []freq.Rect
	for _, q := range queries {
		candidates = append(candidates, q.Rect)
	}
	candidates = append(candidates, s.AggregatedViews()...)
	g, err := GreedyRedundantPruned(s, res.Basis, candidates, queries, 2*s.CubeVolume())
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		added   freq.Rect
		storage int
		cost    uint64
	}{
		{freq.Rect{64, 1, 1, 1}, 133120, 4657102675063001221},
		{freq.Rect{1, 16, 32, 1}, 133376, 4654582837298930536},
		{freq.Rect{1, 16, 1, 1}, 141568, 4652220960735633303},
		{freq.Rect{1, 1, 32, 1}, 141568, 4648206840681902729},
		{freq.Rect{64, 16, 1, 1}, 141696, 4645227788416281952},
		{freq.Rect{1, 16, 1, 4}, 143744, 4641427121011618963},
		{freq.Rect{64, 1, 32, 1}, 143808, 4637403765162684378},
		{freq.Rect{1, 1, 32, 4}, 144832, 4633955239473170014},
		{freq.Rect{64, 1, 1, 4}, 145344, 4624630209557607456},
		{freq.Rect{64, 16, 1, 4}, 145376, 4621423269556524978},
		{freq.Rect{64, 16, 32, 1}, 145380, 4616783561429108539},
		{freq.Rect{1, 16, 32, 4}, 145444, 4607556351174293285},
		{freq.Rect{64, 1, 32, 4}, 145460, 4587320501038211127},
		{freq.Rect{64, 16, 32, 4}, 145461, 0},
	}
	if g.InitialStorage != 131072 || math.Float64bits(g.InitialCost) != 4660865465485169759 || len(g.Steps) != len(want) {
		t.Fatalf("initial storage %d cost %v, %d steps", g.InitialStorage, g.InitialCost, len(g.Steps))
	}
	for i, st := range g.Steps {
		if !st.Added.Equal(want[i].added) || st.Storage != want[i].storage || math.Float64bits(st.Cost) != want[i].cost {
			t.Fatalf("step %d: added %v storage %d cost %v (bits %d)", i, st.Added, st.Storage, st.Cost, math.Float64bits(st.Cost))
		}
	}
	if got := digest(g.Final); got != "153:7c61d93178d6abe72f9c0458dd25a30d252e8e32ae8a4a43ef654c148197a81d" {
		t.Fatalf("final set %s", got)
	}
}

// TestPlanNodesVisited pins the work the two DPs do, by the visited counts
// the walker reports.
func TestPlanNodesVisited(t *testing.T) {
	s := benchSpace()
	queries := benchQueries(s)
	rng := rand.New(rand.NewSource(1))

	// Procedure 3: from a root-only store every target is an aggregation of
	// the root (rule 2), and a stored element is read (rule 3): one node.
	res, err := SelectBasis(s, queries)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		k := NewProc3(s, []freq.Rect{s.Root()})
		if d := k.Decide(randomRect(s, rng)); k.Visited() != 1 || d.Dim >= 0 {
			t.Fatalf("root-only store: %d nodes visited, decision %+v", k.Visited(), d)
		}
		stored := res.Basis[rng.Intn(len(res.Basis))]
		k = NewProc3(s, res.Basis)
		if d := k.Decide(stored); k.Visited() != 1 || d.Cost != 0 {
			t.Fatalf("stored element %v: %d nodes visited, decision %+v", stored, k.Visited(), d)
		}
	}

	// Algorithm 1: splits are tried only at elements with non-zero support,
	// and the walk touches a fraction of the graph. Walked per element (as
	// measured before the memo went per class) the stopping rule visits
	// 823 305 of the 1 736 217 elements and splits the 491 337 with non-zero
	// support; those fall into 5 835 symmetry classes, their children into
	// 6 435.
	sel := newSelector(s, queries)
	sel.solve(s.Root())
	if sel.visited != 6435 || sel.expanded != 5835 || sel.visited >= s.NumElements()/2 {
		t.Fatalf("Algorithm 1 visited %d classes and expanded %d of %d elements", sel.visited, sel.expanded, s.NumElements())
	}
	for key, n := range sel.memo {
		if ElementSupportCost(s, key.Rect(), queries) == 0 && (n.cost != 0 || n.dim >= 0) {
			t.Fatalf("%v has zero support but D = %v, split on %d", key.Rect(), n.cost, n.dim)
		}
	}
	// A first-use compile of the product×region×day view from that basis.
	k := NewProc3(s, res.Basis)
	if d := k.Decide(s.ViewForMask(1 << 3)); d.Cost != 281696 || k.Visited() != 7920 {
		t.Fatalf("compile from the basis: cost %v, %d nodes visited", d.Cost, k.Visited())
	}
}
