package velement

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"viewcube/internal/freq"
)

func TestNewSpaceValidation(t *testing.T) {
	if _, err := NewSpace(nil); err == nil {
		t.Fatal("want error for empty shape")
	}
	if _, err := NewSpace([]int{4, 6}); err == nil {
		t.Fatal("want error for non-power-of-two extent")
	}
	if _, err := NewSpace([]int{4, 0}); err == nil {
		t.Fatal("want error for zero extent")
	}
	s, err := NewSpace([]int{8, 4})
	if err != nil {
		t.Fatal(err)
	}
	if s.Rank() != 2 || s.Dim(0) != 8 || s.MaxDepth(0) != 3 || s.MaxDepth(1) != 2 {
		t.Fatal("space geometry wrong")
	}
	if s.CubeVolume() != 32 {
		t.Fatalf("CubeVolume=%d, want 32", s.CubeVolume())
	}
}

func TestMustSpacePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustSpace must panic on invalid shape")
		}
	}()
	MustSpace(3)
}

func TestValid(t *testing.T) {
	s := MustSpace(4, 2)
	cases := []struct {
		r    freq.Rect
		want bool
	}{
		{freq.Rect{1, 1}, true},
		{freq.Rect{7, 3}, true},  // depth 2 on dim0 (max 2), depth 1 on dim1 (max 1)
		{freq.Rect{8, 1}, false}, // depth 3 exceeds dim0 max
		{freq.Rect{1, 4}, false}, // depth 2 exceeds dim1 max
		{freq.Rect{0, 1}, false}, // zero node
		{freq.Rect{1}, false},    // rank mismatch
	}
	for _, c := range cases {
		if got := s.Valid(c.r); got != c.want {
			t.Errorf("Valid(%v)=%v, want %v", c.r, got, c.want)
		}
	}
}

func TestVolumeAndShape(t *testing.T) {
	s := MustSpace(8, 4)
	if v := s.Volume(s.Root()); v != 32 {
		t.Fatalf("root volume %d, want 32", v)
	}
	// Depth 2 on dim0, depth 1 on dim1: (8/4)·(4/2) = 4 cells.
	r := freq.Rect{5, 3}
	if v := s.Volume(r); v != 4 {
		t.Fatalf("Volume(%v)=%d, want 4", r, v)
	}
	sh := s.ElementShape(r)
	if sh[0] != 2 || sh[1] != 2 {
		t.Fatalf("ElementShape=%v, want [2 2]", sh)
	}
}

func TestNonExpansivenessOfChildren(t *testing.T) {
	// Property 3 at the graph level: children volumes sum to the parent's.
	s := MustSpace(8, 4)
	r := freq.Rect{2, 1}
	p, res, ok := s.Children(r, 1)
	if !ok {
		t.Fatal("should be splittable")
	}
	if s.Volume(p)+s.Volume(res) != s.Volume(r) {
		t.Fatal("children volumes must sum to parent volume")
	}
}

func TestChildrenAtMaxDepth(t *testing.T) {
	s := MustSpace(2, 2)
	leaf := freq.Rect{2, 3}
	if _, _, ok := s.Children(leaf, 0); ok {
		t.Fatal("single-cell interval must not be splittable")
	}
	if s.CanSplit(leaf, 1) {
		t.Fatal("CanSplit wrong at max depth")
	}
}

func TestClassification(t *testing.T) {
	s := MustSpace(4, 4)
	cases := []struct {
		r                 freq.Rect
		agg, inter, resid bool
	}{
		{freq.Rect{1, 1}, true, true, false},  // the cube A
		{freq.Rect{4, 4}, true, true, false},  // grand total
		{freq.Rect{4, 1}, true, true, false},  // S⁰(A)
		{freq.Rect{2, 1}, false, true, false}, // partial only: intermediate
		{freq.Rect{2, 4}, false, true, false}, // intermediate
		{freq.Rect{3, 1}, false, false, true}, // residual stage used
		{freq.Rect{4, 5}, false, false, true}, // node 5 = PR path: residual
	}
	for _, c := range cases {
		if got := s.IsAggregatedView(c.r); got != c.agg {
			t.Errorf("IsAggregatedView(%v)=%v, want %v", c.r, got, c.agg)
		}
		if got := s.IsIntermediate(c.r); got != c.inter {
			t.Errorf("IsIntermediate(%v)=%v, want %v", c.r, got, c.inter)
		}
		if got := s.IsResidual(c.r); got != c.resid {
			t.Errorf("IsResidual(%v)=%v, want %v", c.r, got, c.resid)
		}
	}
}

// TestCountTable1 reproduces Table 1 of the paper exactly.
func TestCountTable1(t *testing.T) {
	cases := []struct {
		d, n               int
		nav, niv, nrv, nve int
	}{
		{2, 256, 4, 81, 261040, 261121},
		{3, 32, 8, 216, 249831, 250047},
		{4, 16, 16, 625, 922896, 923521},
		{5, 8, 32, 1024, 758351, 759375},
		{8, 4, 256, 6561, 5758240, 5764801},
	}
	for _, c := range cases {
		shape := make([]int, c.d)
		for i := range shape {
			shape[i] = c.n
		}
		got := MustSpace(shape...).Count()
		if got.Aggregated != c.nav || got.Intermediate != c.niv ||
			got.Residual != c.nrv || got.Elements != c.nve {
			t.Errorf("d=%d n=%d: got %+v, want av=%d iv=%d rv=%d ve=%d",
				c.d, c.n, got, c.nav, c.niv, c.nrv, c.nve)
		}
		if got.Blocks != got.Intermediate {
			t.Errorf("d=%d n=%d: blocks %d should equal intermediate count %d",
				c.d, c.n, got.Blocks, got.Intermediate)
		}
	}
}

func TestCountMatchesEnumeration(t *testing.T) {
	s := MustSpace(4, 2, 8)
	want := s.Count()
	var got Counts
	s.Elements(func(r freq.Rect) bool {
		got.Elements++
		if s.IsAggregatedView(r) {
			got.Aggregated++
		}
		if s.IsIntermediate(r) {
			got.Intermediate++
		} else {
			got.Residual++
		}
		return true
	})
	if got.Elements != want.Elements || got.Aggregated != want.Aggregated ||
		got.Intermediate != want.Intermediate || got.Residual != want.Residual {
		t.Fatalf("enumerated %+v, closed form %+v", got, want)
	}
}

func TestLinearIndexRoundTrip(t *testing.T) {
	s := MustSpace(4, 2)
	seen := make(map[int]bool)
	s.Elements(func(r freq.Rect) bool {
		idx := s.LinearIndex(r)
		if idx < 0 || idx >= s.NumElements() {
			t.Fatalf("index %d out of range for %v", idx, r)
		}
		if seen[idx] {
			t.Fatalf("duplicate index %d", idx)
		}
		seen[idx] = true
		if !s.FromLinear(idx).Equal(r) {
			t.Fatalf("FromLinear(LinearIndex(%v)) mismatch", r)
		}
		return true
	})
	if len(seen) != s.NumElements() {
		t.Fatalf("enumerated %d elements, want %d", len(seen), s.NumElements())
	}
}

func TestElementsEarlyStop(t *testing.T) {
	s := MustSpace(4, 4)
	count := 0
	s.Elements(func(r freq.Rect) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Fatalf("early stop visited %d, want 5", count)
	}
}

func TestAggregatedViews(t *testing.T) {
	s := MustSpace(4, 8)
	views := s.AggregatedViews()
	if len(views) != 4 {
		t.Fatalf("%d views, want 4", len(views))
	}
	if !views[0].Equal(s.Root()) {
		t.Fatal("mask 0 must be the cube")
	}
	if !views[3].Equal(freq.Rect{4, 8}) {
		t.Fatalf("mask 3 must be the grand total, got %v", views[3])
	}
	// Volumes: cube 32, S⁰ 8, S¹ 4, grand total 1.
	wantVols := []int{32, 8, 4, 1}
	for i, v := range views {
		if !s.IsAggregatedView(v) {
			t.Errorf("view %d not classified as aggregated", i)
		}
		if s.Volume(v) != wantVols[i] {
			t.Errorf("view %d volume %d, want %d", i, s.Volume(v), wantVols[i])
		}
	}
}

func TestSetVolume(t *testing.T) {
	s := MustSpace(2, 2)
	// Pedagogical Table 2: {V1,V5,V6} has storage 4; {V0,V1,V7} has 8.
	v156 := []freq.Rect{{2, 1}, {3, 2}, {3, 3}}
	if got := s.SetVolume(v156); got != 4 {
		t.Fatalf("SetVolume{V1,V5,V6}=%d, want 4", got)
	}
	v017 := []freq.Rect{{1, 1}, {2, 1}, {1, 2}}
	if got := s.SetVolume(v017); got != 8 {
		t.Fatalf("SetVolume{V0,V1,V7}=%d, want 8", got)
	}
}

func TestExtractBasisAlwaysNonRedundantBasis(t *testing.T) {
	f := func(seed int64) bool {
		s := MustSpace(4, 4)
		rng := rand.New(rand.NewSource(seed))
		basis := RandomPacketBasis(s, rng, 0.3)
		return freq.IsNonRedundantBasis(basis, s.Root(), s.MaxDepths())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestExtractBasisPanicsOnBadChooser(t *testing.T) {
	s := MustSpace(2)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for chooser that splits past max depth")
		}
	}()
	s.ExtractBasis(func(r freq.Rect) int { return 0 }) // always split
}

func TestWaveletBasis(t *testing.T) {
	s := MustSpace(4, 4)
	basis := WaveletBasis(s)
	if !freq.IsNonRedundantBasis(basis, s.Root(), s.MaxDepths()) {
		t.Fatal("wavelet basis must be a non-redundant basis")
	}
	if got := s.SetVolume(basis); got != s.CubeVolume() {
		t.Fatalf("wavelet basis volume %d, want n^d = %d", got, s.CubeVolume())
	}
	// 2-D, two levels: 3 subbands per level + final total = 7 elements.
	if len(basis) != 7 {
		t.Fatalf("wavelet basis size %d, want 7", len(basis))
	}
	// Exactly one element (the grand total) is intermediate; the rest are
	// residual (§4.3).
	inter := 0
	for _, r := range basis {
		if s.IsIntermediate(r) {
			inter++
			if !r.Equal(freq.Rect{4, 4}) {
				t.Fatalf("intermediate element %v, want grand total", r)
			}
		}
	}
	if inter != 1 {
		t.Fatalf("%d intermediate elements, want 1", inter)
	}
}

func TestWaveletBasisRectangularCube(t *testing.T) {
	s := MustSpace(8, 2)
	basis := WaveletBasis(s)
	if !freq.IsNonRedundantBasis(basis, s.Root(), s.MaxDepths()) {
		t.Fatal("wavelet basis of a rectangular cube must still tile")
	}
	if got := s.SetVolume(basis); got != s.CubeVolume() {
		t.Fatalf("volume %d, want %d", got, s.CubeVolume())
	}
}

func TestGaussianPyramid(t *testing.T) {
	s := MustSpace(4, 4)
	pyr := GaussianPyramid(s)
	// Levels 0,1,2: volumes 16, 4, 1.
	if len(pyr) != 3 {
		t.Fatalf("pyramid size %d, want 3", len(pyr))
	}
	if s.SetVolume(pyr) != 21 {
		t.Fatalf("pyramid volume %d, want 21", s.SetVolume(pyr))
	}
	for i, r := range pyr {
		if !s.IsIntermediate(r) {
			t.Errorf("pyramid level %d (%v) must be intermediate", i, r)
		}
	}
	if !pyr[0].Equal(s.Root()) || !pyr[2].Equal(freq.Rect{4, 4}) {
		t.Fatal("pyramid must run from cube to grand total")
	}
	// Redundant: the cube alone is already complete, so the set is a basis
	// but not non-redundant.
	if freq.NonRedundant(pyr) {
		t.Fatal("Gaussian pyramid is redundant")
	}
	if !freq.Complete(pyr, s.Root(), s.MaxDepths()) {
		t.Fatal("Gaussian pyramid is complete")
	}
}

func TestViewHierarchy(t *testing.T) {
	s := MustSpace(4, 4)
	vh := ViewHierarchy(s)
	if len(vh) != 4 {
		t.Fatalf("view hierarchy size %d, want 2^d = 4", len(vh))
	}
	// Volume (n+1)^d = 25 for n=4, d=2.
	if s.SetVolume(vh) != 25 {
		t.Fatalf("view hierarchy volume %d, want 25", s.SetVolume(vh))
	}
	if freq.NonRedundant(vh) {
		t.Fatal("view hierarchy is redundant")
	}
}

// Property: any element's volume equals the cube volume times its
// frequency-plane volume (the two geometries agree).
func TestVolumeConsistencyProperty(t *testing.T) {
	s := MustSpace(8, 4, 2)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		idx := rng.Intn(s.NumElements())
		r := s.FromLinear(idx)
		return float64(s.Volume(r)) == float64(s.CubeVolume())*r.FreqVolume()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestNewSpaceLimits pins the envelope freq.Key can identify: a space past
// it must be refused when built, not panic at the first query.
func TestNewSpaceLimits(t *testing.T) {
	if _, err := NewSpace(make([]int, 9)); err == nil || !strings.Contains(err.Error(), "maximum of 8") {
		t.Fatalf("rank 9: err = %v", err)
	}
	if _, err := NewSpace([]int{2, 65536}); err == nil ||
		!strings.Contains(err.Error(), "dimension 1") || !strings.Contains(err.Error(), "32768") {
		t.Fatalf("extent 65536: err = %v", err)
	}
	s, err := NewSpace([]int{MaxExtent, 2, 1, 1, 1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	deepest := s.Root()
	deepest[0] = freq.Node(2*MaxExtent - 1)
	if !s.Valid(deepest) || !deepest.Key().Rect().Equal(deepest) {
		t.Fatalf("the deepest node of a maximal dimension must round-trip through Key")
	}
}
