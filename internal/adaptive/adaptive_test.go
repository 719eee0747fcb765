package adaptive

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"viewcube/internal/assembly"
	"viewcube/internal/freq"
	"viewcube/internal/haar"
	"viewcube/internal/ndarray"
	"viewcube/internal/obs"
	"viewcube/internal/plan"
	"viewcube/internal/velement"
)

func randomCube(r *rand.Rand, shape ...int) *ndarray.Array {
	a := ndarray.New(shape...)
	for i := range a.Data() {
		a.Data()[i] = math.Round(r.Float64() * 50)
	}
	return a
}

// gen is one engine generation as the root package holds it: a store, the
// kernel over it, the plan cache and the workload profile, with the read
// and reselection the root package runs.
type gen struct {
	*Profile
	st assembly.Store
	k  *assembly.Engine
	pl *plan.Planner
}

func newGen(s *velement.Space, st assembly.Store, opts Options) (*gen, error) {
	p, err := NewProfile(s, st.Elements(), opts)
	if err != nil {
		return nil, err
	}
	k := assembly.NewEngine(s, st)
	return &gen{Profile: p, st: st, k: k, pl: plan.NewPlanner(k)}, nil
}

// Query answers element r from the materialised set and records it.
func (g *gen) Query(sp *obs.Span, r freq.Rect) (*ndarray.Array, error) {
	p, err := g.pl.Assembly(sp, r)
	if err != nil {
		return nil, err
	}
	out, err := g.k.Execute(sp, p)
	if err != nil {
		return nil, err
	}
	g.Record(r, p.Ops)
	return out, nil
}

func (g *gen) Reconfigure(sp *obs.Span) (bool, error) { return Reconfigure(sp, g.k, g.pl, g.Profile) }

func (g *gen) AutoReconfigure(sp *obs.Span) (bool, error) {
	return AutoReconfigure(sp, g.k, g.pl, g.Profile)
}

func (g *gen) Elements() []freq.Rect { return g.st.Elements() }

// newEngine builds an engine generation whose store initially holds just
// the cube.
func newEngine(t *testing.T, cube *ndarray.Array, opts Options) (*gen, *velement.Space) {
	t.Helper()
	s := velement.MustSpace(cube.Shape()...)
	st := assembly.NewMemStore()
	if err := st.Put(s.Root(), cube.Clone()); err != nil {
		t.Fatal(err)
	}
	e, err := newGen(s, st, opts)
	if err != nil {
		t.Fatal(err)
	}
	return e, s
}

func TestNewRequiresCompleteStore(t *testing.T) {
	s := velement.MustSpace(4, 4)
	st := assembly.NewMemStore()
	if _, err := newGen(s, st, Options{}); err == nil {
		t.Fatal("want error for empty store")
	}
	if err := st.Put(freq.Rect{2, 1}, ndarray.New(2, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := newGen(s, st, Options{}); err == nil {
		t.Fatal("want error for incomplete store")
	}
}

func TestQueryAnswersCorrectly(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cube := randomCube(rng, 8, 4)
	e, s := newEngine(t, cube, Options{})
	for _, v := range s.AggregatedViews() {
		got, err := e.Query(nil, v)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := haar.ApplyRect(cube, v)
		if !got.Equal(want, 1e-6) {
			t.Fatalf("view %v wrong", v)
		}
	}
	if e.Stats().Queries != 4 {
		t.Fatalf("queries %d, want 4", e.Stats().Queries)
	}
}

func TestQueryInvalidElement(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	e, _ := newEngine(t, randomCube(rng, 4, 4), Options{})
	if _, err := e.Query(nil, freq.Rect{64, 1}); err == nil {
		t.Fatal("want error for invalid element")
	}
}

func TestReconfigureMovesTowardWorkload(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cube := randomCube(rng, 4, 4)
	e, s := newEngine(t, cube, Options{})
	// Hammer one view.
	hot := s.ViewForMask(1) // aggregate dimension 0
	for i := 0; i < 50; i++ {
		if _, err := e.Query(nil, hot); err != nil {
			t.Fatal(err)
		}
	}
	costBefore := e.Stats().LastPlanCost
	if costBefore == 0 {
		t.Fatal("assembling the hot view from the cube should cost > 0")
	}
	changed, err := e.Reconfigure(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Fatal("reconfiguration should change the materialised set")
	}
	// After adaptation the hot view is free.
	if _, err := e.Query(nil, hot); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().LastPlanCost; got != 0 {
		t.Fatalf("post-adaptation plan cost %d, want 0", got)
	}
	// And it still answers every view correctly.
	for _, v := range s.AggregatedViews() {
		got, err := e.Query(nil, v)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := haar.ApplyRect(cube, v)
		if !got.Equal(want, 1e-6) {
			t.Fatalf("view %v wrong after reconfiguration", v)
		}
	}
	// The store must still be a basis of the cube.
	if !freq.Complete(e.Elements(), s.Root(), s.MaxDepths()) {
		t.Fatal("reconfigured store must remain a basis")
	}
	// Non-redundant reselection keeps storage at the cube volume.
	if e.Stats().StorageCells != s.CubeVolume() {
		t.Fatalf("storage %d, want %d", e.Stats().StorageCells, s.CubeVolume())
	}
}

func TestReconfigureNoQueriesIsNoop(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	e, _ := newEngine(t, randomCube(rng, 4, 4), Options{})
	changed, err := e.Reconfigure(nil)
	if err != nil {
		t.Fatal(err)
	}
	if changed {
		t.Fatal("no observations → no change")
	}
}

func TestAutomaticReconfiguration(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cube := randomCube(rng, 4, 4)
	e, s := newEngine(t, cube, Options{ReselectEvery: 10})
	hot := s.ViewForMask(3) // grand total
	for i := 0; i < 25; i++ {
		if _, err := e.Query(nil, hot); err != nil {
			t.Fatal(err)
		}
		// Query never reconfigures itself; the caller drains the due flag
		// at a point where it holds exclusive access.
		if e.ReselectDue() {
			if _, err := e.AutoReconfigure(nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	if e.Stats().Reconfigs == 0 {
		t.Fatal("automatic reconfiguration should have fired")
	}
	if e.Stats().LastPlanCost != 0 {
		t.Fatal("hot view should be free after automatic adaptation")
	}
}

func TestStorageBudgetGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	cube := randomCube(rng, 4, 4)
	s := velement.MustSpace(4, 4)
	st := assembly.NewMemStore()
	if err := st.Put(s.Root(), cube.Clone()); err != nil {
		t.Fatal(err)
	}
	budget := 2 * s.CubeVolume()
	e, err := newGen(s, st, Options{StorageBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	// Two hot views.
	for i := 0; i < 20; i++ {
		if _, err := e.Query(nil, s.ViewForMask(1)); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Query(nil, s.ViewForMask(2)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Reconfigure(nil); err != nil {
		t.Fatal(err)
	}
	if e.Stats().StorageCells > budget {
		t.Fatalf("storage %d exceeds budget %d", e.Stats().StorageCells, budget)
	}
	// Both hot views should now be stored (free).
	for _, mask := range []uint{1, 2} {
		if _, err := e.Query(nil, s.ViewForMask(mask)); err != nil {
			t.Fatal(err)
		}
		if e.Stats().LastPlanCost != 0 {
			t.Fatalf("hot view %d not free after budgeted adaptation", mask)
		}
	}
}

func TestWorkloadShiftWithDecay(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cube := randomCube(rng, 4, 4)
	e, s := newEngine(t, cube, Options{Decay: 0.1})
	first := s.ViewForMask(1)
	second := s.ViewForMask(2)
	for i := 0; i < 30; i++ {
		if _, err := e.Query(nil, first); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Reconfigure(nil); err != nil {
		t.Fatal(err)
	}
	// Shift the workload; decay lets the new view dominate quickly.
	for i := 0; i < 30; i++ {
		if _, err := e.Query(nil, second); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Reconfigure(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Query(nil, second); err != nil {
		t.Fatal(err)
	}
	if e.Stats().LastPlanCost != 0 {
		t.Fatal("after the shift the new hot view should be free")
	}
	// Every view still answers correctly after two migrations.
	for _, v := range s.AggregatedViews() {
		got, err := e.Query(nil, v)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := haar.ApplyRect(cube, v)
		if !got.Equal(want, 1e-6) {
			t.Fatalf("view %v wrong after workload shift", v)
		}
	}
}

func TestObservedQueriesNormalised(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	e, s := newEngine(t, randomCube(rng, 4, 4), Options{})
	for i := 0; i < 3; i++ {
		if _, err := e.Query(nil, s.ViewForMask(1)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Query(nil, s.ViewForMask(3)); err != nil {
		t.Fatal(err)
	}
	qs := e.ObservedQueries()
	if len(qs) != 2 {
		t.Fatalf("%d observed queries, want 2", len(qs))
	}
	sum := 0.0
	for _, q := range qs {
		sum += q.Freq
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("frequencies sum to %g", sum)
	}
}

func TestStateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	cube := randomCube(rng, 4, 4)
	e, s := newEngine(t, cube, Options{})
	e.Observe(s.ViewForMask(1), 5)
	e.Observe(s.ViewForMask(3), 2)
	e.Observe(s.ViewForMask(2), -1) // ignored
	state := e.State()
	if len(state) != 2 {
		t.Fatalf("state %v", state)
	}
	e2, _ := newEngine(t, cube, Options{})
	if err := e2.RestoreState(state); err != nil {
		t.Fatal(err)
	}
	qs := e2.ObservedQueries()
	if len(qs) != 2 {
		t.Fatalf("restored %d queries", len(qs))
	}
	// Reconfigure from restored state materialises the hot view.
	if _, err := e2.Reconfigure(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := e2.Query(nil, s.ViewForMask(1)); err != nil {
		t.Fatal(err)
	}
	if e2.Stats().LastPlanCost != 0 {
		t.Fatal("hot view should be free after restore+reconfigure")
	}
	// Bad ids are rejected.
	if err := e2.RestoreState(map[string]float64{"banana": 1}); err == nil {
		t.Fatal("want error for malformed id")
	}
	if err := e2.RestoreState(map[string]float64{"0-1": 1}); err == nil {
		t.Fatal("want error for zero node")
	}
	if err := e2.RestoreState(map[string]float64{"64-1": 1}); err == nil {
		t.Fatal("want error for out-of-space element")
	}
}

func TestLastTotalCostTracked(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	cube := randomCube(rng, 4, 4)
	e, s := newEngine(t, cube, Options{})
	e.Observe(s.ViewForMask(1), 10)
	if _, err := e.Reconfigure(nil); err != nil {
		t.Fatal(err)
	}
	if e.Stats().LastTotalCost != 0 {
		t.Fatalf("single hot view should reach zero cost, got %g", e.Stats().LastTotalCost)
	}
}

// TestReconfigurePhases: a traced reconfiguration says where its time went —
// select_basis, greedy and migrate child spans under "reconfigure", with the
// migration's plan/execute spans inside migrate — and the same three phases
// land in viewcube_reselection_seconds. Without a storage budget there is no
// greedy phase.
func TestReconfigurePhases(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cube := randomCube(rng, 8, 8, 4)
	for _, c := range []struct {
		budget int
		phases []string
	}{
		{0, []string{"select_basis", "migrate"}},
		{2 * 8 * 8 * 4, []string{"select_basis", "greedy", "migrate"}},
	} {
		e, s := newEngine(t, cube, Options{StorageBudget: c.budget})
		met := obs.NewAdaptiveMetrics(obs.NewRegistry())
		e.SetMetrics(met)
		e.Observe(s.ViewForMask(0b011), 3)
		e.Observe(s.ViewForMask(0b101), 1)
		tr := obs.NewTrace("test")
		if changed, err := e.Reconfigure(tr.Root()); err != nil || !changed {
			t.Fatalf("budget %d: changed=%v err=%v", c.budget, changed, err)
		}
		tr.Finish()
		root := tr.Tree()
		if len(root.Children) != 1 || root.Children[0].Name != "reconfigure" {
			t.Fatalf("budget %d: trace root children %+v", c.budget, root.Children)
		}
		var got []string
		for _, ch := range root.Children[0].Children {
			got = append(got, ch.Name)
			if ch.Name == "migrate" && len(ch.Children) == 0 {
				t.Fatalf("budget %d: migrate span has no plan/execute children", c.budget)
			}
		}
		if !reflect.DeepEqual(got, c.phases) {
			t.Fatalf("budget %d: phases %v, want %v", c.budget, got, c.phases)
		}
		for phase, h := range met.PhaseSeconds {
			want := uint64(0)
			for _, p := range c.phases {
				if p == phase {
					want = 1
				}
			}
			if h.Count() != want {
				t.Fatalf("budget %d: %d samples for phase %s, want %d", c.budget, h.Count(), phase, want)
			}
		}
	}
}
