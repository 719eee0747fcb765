package assembly

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"viewcube/internal/core"
	"viewcube/internal/freq"
	"viewcube/internal/haar"
	"viewcube/internal/ndarray"
	"viewcube/internal/obs"
	"viewcube/internal/velement"
)

// answer plans element r with Procedure 3 and executes the plan.
func answer(eng *Engine, sp *obs.Span, r freq.Rect) (*ndarray.Array, error) {
	p, err := eng.ComputePlan(r)
	if err != nil {
		return nil, err
	}
	return eng.Execute(sp, p)
}

func randomCube(r *rand.Rand, shape ...int) *ndarray.Array {
	a := ndarray.New(shape...)
	for i := range a.Data() {
		a.Data()[i] = math.Round(r.Float64()*100 - 50)
	}
	return a
}

func TestMemStore(t *testing.T) {
	st := NewMemStore()
	r := freq.Rect{2, 1}
	if _, ok := st.Get(r); ok {
		t.Fatal("empty store must miss")
	}
	a := ndarray.New(2, 4)
	if err := st.Put(r, a); err != nil {
		t.Fatal(err)
	}
	if got, ok := st.Get(r); !ok || got != a {
		t.Fatal("Get must return the stored array")
	}
	if st.Cells() != 8 {
		t.Fatalf("cells %d, want 8", st.Cells())
	}
	// Replacement updates accounting.
	if err := st.Put(r, ndarray.New(2, 2)); err != nil {
		t.Fatal(err)
	}
	if st.Cells() != 4 {
		t.Fatalf("cells after replace %d, want 4", st.Cells())
	}
	if err := st.Delete(r); err != nil {
		t.Fatal(err)
	}
	if st.Cells() != 0 || len(st.Elements()) != 0 {
		t.Fatal("delete must empty the store")
	}
	if err := st.Delete(r); err != nil {
		t.Fatal("deleting an absent element is not an error")
	}
}

func TestMemStoreElementsSorted(t *testing.T) {
	st := NewMemStore()
	rects := []freq.Rect{{3, 1}, {1, 2}, {2, 2}}
	for _, r := range rects {
		if err := st.Put(r, ndarray.New(1)); err != nil {
			t.Fatal(err)
		}
	}
	got := st.Elements()
	if len(got) != 3 {
		t.Fatalf("%d elements, want 3", len(got))
	}
	for i := 1; i < len(got); i++ {
		if !less(got[i-1], got[i]) {
			t.Fatal("Elements must be sorted deterministically")
		}
	}
}

func TestMaterializerShapeMismatch(t *testing.T) {
	s := velement.MustSpace(4, 4)
	if _, err := NewMaterializer(s, ndarray.New(4, 8)); err == nil {
		t.Fatal("want error for shape mismatch")
	}
	if _, err := NewMaterializer(s, ndarray.New(4)); err == nil {
		t.Fatal("want error for rank mismatch")
	}
}

func TestMaterializerMatchesDirectCascade(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := velement.MustSpace(8, 4)
	cube := randomCube(rng, 8, 4)
	mat, err := NewMaterializer(s, cube)
	if err != nil {
		t.Fatal(err)
	}
	s.Elements(func(r freq.Rect) bool {
		got, err := mat.Element(r.Clone())
		if err != nil {
			t.Fatal(err)
		}
		want, err := haar.ApplyRect(cube, r)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want, 1e-9) {
			t.Fatalf("%v: materialised element differs from direct cascade", r)
		}
		return true
	})
}

func TestMaterializerRejectsInvalidElement(t *testing.T) {
	s := velement.MustSpace(4, 4)
	mat, _ := NewMaterializer(s, ndarray.New(4, 4))
	if _, err := mat.Element(freq.Rect{16, 1}); err == nil {
		t.Fatal("want error for out-of-space element")
	}
}

func TestMaterializeSetStoresClones(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := velement.MustSpace(4, 4)
	cube := randomCube(rng, 4, 4)
	basis := velement.WaveletBasis(s)
	store, err := MaterializeSet(s, cube, basis)
	if err != nil {
		t.Fatal(err)
	}
	if len(store.Elements()) != len(basis) {
		t.Fatalf("stored %d, want %d", len(store.Elements()), len(basis))
	}
	// Non-expansiveness: a non-redundant basis stores exactly Vol(A) cells.
	if store.Cells() != s.CubeVolume() {
		t.Fatalf("stored cells %d, want %d", store.Cells(), s.CubeVolume())
	}
	// Mutating a stored array must not corrupt the materialiser cache.
	a, _ := store.Get(basis[0])
	a.Fill(12345)
	store2, err := MaterializeSet(s, cube, basis)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := store2.Get(basis[0])
	if b.At(make([]int, s.Rank())...) == 12345 && b.Size() > 1 {
		t.Fatal("stores must not alias each other")
	}
}

func TestEngineAnswersEveryElementFromWaveletBasis(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, shape := range [][]int{{4, 4}, {8, 4, 4}} {
		s := velement.MustSpace(shape...)
		cube := randomCube(rng, shape...)
		store, err := MaterializeSet(s, cube, velement.WaveletBasis(s))
		if err != nil {
			t.Fatal(err)
		}
		eng := NewEngine(s, store)
		s.Elements(func(r freq.Rect) bool {
			got, err := answer(eng, nil, r.Clone())
			if err != nil {
				t.Fatalf("%v: %v", r, err)
			}
			want, _ := haar.ApplyRect(cube, r)
			if !got.Equal(want, 1e-6) {
				t.Fatalf("%v: assembled element differs from direct computation (maxdiff %g)",
					r, got.MaxAbsDiff(want))
			}
			return true
		})
	}
}

func TestEngineAnswerFromCubeOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	s := velement.MustSpace(8, 4)
	cube := randomCube(rng, 8, 4)
	store := NewMemStore()
	if err := store.Put(s.Root(), cube.Clone()); err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(s, store)
	// Every aggregated view must come out exactly right.
	for _, v := range s.AggregatedViews() {
		got, err := answer(eng, nil, v)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := haar.ApplyRect(cube, v)
		if !got.Equal(want, 1e-6) {
			t.Fatalf("view %v wrong", v)
		}
	}
}

func TestEngineIncompleteStore(t *testing.T) {
	s := velement.MustSpace(4, 4)
	store := NewMemStore()
	// Store only one quadrant-ish element; the cube is not reconstructible.
	if err := store.Put(freq.Rect{2, 1}, ndarray.New(2, 4)); err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(s, store)
	if _, err := answer(eng, nil, s.Root()); err == nil {
		t.Fatal("want error for unreachable element")
	}
	if _, err := answer(eng, nil, freq.Rect{99, 1}); err == nil {
		t.Fatal("want error for invalid rectangle")
	}
	// The stored element itself and its descendants remain answerable.
	if _, err := answer(eng, nil, freq.Rect{2, 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := answer(eng, nil, freq.Rect{4, 1}); err != nil {
		t.Fatal(err)
	}
}

func TestPlanKindsAndOps(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := velement.MustSpace(2, 2)
	cube := randomCube(rng, 2, 2)
	// Pedagogical basis {V1,V5,V6}.
	basis := []freq.Rect{{2, 1}, {3, 2}, {3, 3}}
	store, err := MaterializeSet(s, cube, basis)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(s, store)

	// V1 is stored: plan must be a direct read with zero ops.
	p, err := eng.ComputePlan(freq.Rect{2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind != PlanStored || p.Ops != 0 {
		t.Fatalf("stored plan: kind %v ops %d", p.Kind, p.Ops)
	}

	// V2 (total aggregation) aggregates from V1 at cost 1.
	p, err = eng.ComputePlan(freq.Rect{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind != PlanAggregate || p.Ops != 1 {
		t.Fatalf("V2 plan: kind %v ops %d, want aggregate/1", p.Kind, p.Ops)
	}

	// V7 must be synthesised from V2 and V5 at total cost 3 (Table 2).
	p, err = eng.ComputePlan(freq.Rect{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind != PlanSynthesize || p.Ops != 3 {
		t.Fatalf("V7 plan: kind %v ops %d, want synthesize/3", p.Kind, p.Ops)
	}
	if p.Dim != 0 {
		t.Fatalf("V7 synthesis dim %d, want 0", p.Dim)
	}

	for _, k := range []PlanKind{PlanStored, PlanAggregate, PlanSynthesize, PlanKind(9)} {
		if k.String() == "" {
			t.Fatal("PlanKind.String must be non-empty")
		}
	}
}

// Plan costs must agree with the Procedure 3 evaluator of package core for
// the same stored set — the engine executes exactly the modelled plans.
func TestPlanCostMatchesProcedure3(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := velement.MustSpace(4, 4)
		basis := velement.RandomPacketBasis(s, rng, 0.3)
		ev := core.NewSetEvaluator(s, basis)
		store := NewMemStore()
		for _, r := range basis {
			if err := store.Put(r, ndarray.New(s.ElementShape(r)...)); err != nil {
				return false
			}
		}
		eng := NewEngine(s, store)
		ok := true
		s.Elements(func(r freq.Rect) bool {
			want := ev.ElementCost(r)
			plan, err := eng.ComputePlan(r.Clone())
			if err != nil {
				ok = !math.IsInf(want, 1) == false // error iff model says unreachable
				return ok
			}
			if float64(plan.Ops) != want {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// End-to-end property: for a random packet basis and a random cube, every
// aggregated view assembled by the engine equals the directly computed one.
func TestAssemblyCorrectnessProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := velement.MustSpace(4, 8)
		cube := randomCube(rng, 4, 8)
		basis := velement.RandomPacketBasis(s, rng, 0.25)
		store, err := MaterializeSet(s, cube, basis)
		if err != nil {
			return false
		}
		eng := NewEngine(s, store)
		for _, v := range s.AggregatedViews() {
			got, err := answer(eng, nil, v)
			if err != nil {
				return false
			}
			want, _ := haar.ApplyRect(cube, v)
			if !got.Equal(want, 1e-6) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestExecuteMissingStoredElement(t *testing.T) {
	s := velement.MustSpace(2, 2)
	store := NewMemStore()
	eng := NewEngine(s, store)
	// Hand-built plan referencing an element the store does not have.
	p := &Plan{Rect: freq.Rect{1, 1}, Kind: PlanStored}
	if _, err := eng.Execute(nil, p); err == nil {
		t.Fatal("want error for missing stored element")
	}
	p = &Plan{Rect: freq.Rect{2, 1}, Kind: PlanAggregate, Source: freq.Rect{1, 1}}
	if _, err := eng.Execute(nil, p); err == nil {
		t.Fatal("want error for missing aggregation source")
	}
	p = &Plan{Rect: freq.Rect{1, 1}, Kind: PlanKind(42)}
	if _, err := eng.Execute(nil, p); err == nil {
		t.Fatal("want error for unknown plan kind")
	}
}
