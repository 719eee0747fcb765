package adaptive

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"viewcube/internal/assembly"
	"viewcube/internal/core"
	"viewcube/internal/freq"
	"viewcube/internal/obs"
	"viewcube/internal/store"
	"viewcube/internal/velement"
)

// selectedSet is the set a reconfiguration for queries must leave stored:
// Algorithm 1's basis, plus pruned Algorithm 2 over the engine's candidate
// pool when the budget leaves room. It returns the basis too.
func selectedSet(t *testing.T, e *gen, queries []core.Query) (target, basis []freq.Rect) {
	t.Helper()
	res, err := core.SelectBasis(e.space, queries)
	if err != nil {
		t.Fatal(err)
	}
	if e.opts.StorageBudget <= e.space.SetVolume(res.Basis) {
		return res.Basis, res.Basis
	}
	g, err := core.GreedyRedundantPruned(e.space, res.Basis, e.greedyCandidates(queries), queries, e.opts.StorageBudget)
	if err != nil {
		t.Fatal(err)
	}
	return g.Final, res.Basis
}

func rectKeys(set []freq.Rect) []string {
	out := make([]string, len(set))
	for i, r := range set {
		out[i] = r.String()
	}
	sort.Strings(out)
	return out
}

// TestMigrationMatchesPerElementAnswer: for random integer-valued cubes, on
// MemStore and FileStore, at budgets 0, 1.5×Vol and 2×Vol, from the root and
// again from the set the first reconfiguration left (which no longer holds
// the root), untraced and traced, the migration stores exactly the selected
// set, and every stored array is bit-identical to what the per-element
// plan and execution over the starting set produces.
func TestMigrationMatchesPerElementAnswer(t *testing.T) {
	rootless := 0
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		shape := make([]int, 2+rng.Intn(3))
		for m := range shape {
			shape[m] = 2 << rng.Intn(3)
		}
		cube := randomCube(rng, shape...)
		s := velement.MustSpace(shape...)
		vol := s.CubeVolume()
		for _, budget := range []int{0, vol * 3 / 2, 2 * vol} {
			for _, file := range []bool{false, true} {
				var st assembly.Store = assembly.NewMemStore()
				if file {
					fs, err := store.Open(t.TempDir(), vol)
					if err != nil {
						t.Fatal(err)
					}
					st = fs
				}
				if err := st.Put(s.Root(), cube.Clone()); err != nil {
					t.Fatal(err)
				}
				e, err := newGen(s, st, Options{StorageBudget: budget})
				if err != nil {
					t.Fatal(err)
				}
				for round := 0; round < 2; round++ {
					// Random elements, never the root, at real-valued weights.
					for i := 0; i < 4; i++ {
						r := s.ViewForMask(uint(1 + rng.Intn(1<<len(shape)-1)))
						if i%2 == 1 {
							r = s.FromLinear(1 + rng.Intn(s.NumElements()-1))
						}
						e.Observe(r, rng.Float64())
					}
					if _, ok := st.Get(s.Root()); !ok {
						rootless++
					}
					ref := assembly.NewMemStore()
					for _, r := range st.Elements() {
						a, _ := st.Get(r)
						if err := ref.Put(r, a.Clone()); err != nil {
							t.Fatal(err)
						}
					}
					target, basis := selectedSet(t, e, e.ObservedQueries())
					want := rectKeys(target)
					// Whether a basis tile has to be stored from the stored
					// root; a rootless set goes to the planner alone.
					_, rooted := ref.Get(s.Root())
					cascades := false
					for _, r := range basis {
						if _, ok := ref.Get(r); !ok && rooted && slices.ContainsFunc(target, r.Equal) {
							cascades = true
						}
					}
					var tr *obs.Trace
					if round == 1 {
						tr = obs.NewTrace("test")
					}
					if _, err := e.Reconfigure(tr.Root()); err != nil {
						t.Fatal(err)
					}
					got := st.Elements()
					if g := rectKeys(got); !slices.Equal(g, want) {
						t.Fatalf("seed %d budget %d file %v round %d: stored %v, want %v", seed, budget, file, round, g, want)
					}
					refEng := assembly.NewEngine(s, ref)
					for _, r := range got {
						a, _ := st.Get(r)
						p, err := refEng.ComputePlan(r)
						if err != nil {
							t.Fatal(err)
						}
						w, err := refEng.Execute(nil, p)
						if err != nil {
							t.Fatal(err)
						}
						for i, v := range w.Data() {
							if math.Float64bits(a.Data()[i]) != math.Float64bits(v) {
								t.Fatalf("seed %d budget %d file %v round %d: %v cell %d = %v, want %v", seed, budget, file, round, r, i, a.Data()[i], v)
							}
						}
					}
					if tr != nil {
						tr.Finish()
						if hasSpan(tr.Tree(), "cascade") != cascades {
							t.Fatalf("seed %d budget %d: cascade span present = %v, want %v", seed, budget, !cascades, cascades)
						}
					}
				}
			}
		}
	}
	if rootless == 0 {
		t.Fatal("no reconfiguration started without the root")
	}
}

func hasSpan(n *obs.Span, name string) bool {
	if n == nil {
		return false
	}
	if n.Name == name {
		return true
	}
	for _, c := range n.Children {
		if hasSpan(c, name) {
			return true
		}
	}
	return false
}
