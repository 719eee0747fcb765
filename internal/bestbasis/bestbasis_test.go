package bestbasis

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"viewcube/internal/freq"
	"viewcube/internal/ndarray"
	"viewcube/internal/velement"
	"viewcube/internal/workload"
)

func TestNonzeroCost(t *testing.T) {
	a, _ := ndarray.NewFrom([]float64{0, 1, -2, 0.001}, 4)
	if got := NonzeroCost(0)(a); got != 3 {
		t.Fatalf("nonzero(0) = %g, want 3", got)
	}
	if got := NonzeroCost(0.01)(a); got != 2 {
		t.Fatalf("nonzero(0.01) = %g, want 2", got)
	}
}

func TestEntropyCost(t *testing.T) {
	// A single spike has zero entropy; a flat array has log(n).
	spike, _ := ndarray.NewFrom([]float64{0, 5, 0, 0}, 4)
	if got := EntropyCost()(spike); got != 0 {
		t.Fatalf("spike entropy %g, want 0", got)
	}
	flat, _ := ndarray.NewFrom([]float64{1, 1, 1, 1}, 4)
	if got := EntropyCost()(flat); math.Abs(got-math.Log(4)) > 1e-12 {
		t.Fatalf("flat entropy %g, want log 4", got)
	}
	zero := ndarray.New(4)
	if got := EntropyCost()(zero); got != 0 {
		t.Fatalf("zero entropy %g, want 0", got)
	}
	if EntropyCost()(spike) >= EntropyCost()(flat) {
		t.Fatal("concentrated energy must cost less")
	}
}

func TestLpCost(t *testing.T) {
	a, _ := ndarray.NewFrom([]float64{0, 3, -4}, 3)
	if got := LpCost(1)(a); got != 7 {
		t.Fatalf("L1 = %g, want 7", got)
	}
	if got := LpCost(2)(a); got != 25 {
		t.Fatalf("L2² = %g, want 25", got)
	}
}

func TestSelectReturnsBasis(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := velement.MustSpace(8, 8)
	cube := workload.SparseCube(rng, 0.1, 50, 8, 8)
	res, err := Select(s, cube, NonzeroCost(0))
	if err != nil {
		t.Fatal(err)
	}
	if !freq.IsNonRedundantBasis(res.Basis, s.Root(), s.MaxDepths()) {
		t.Fatal("best basis must be a non-redundant basis")
	}
	// The cost must match a recomputation over the selected elements.
	total := 0.0
	for _, r := range res.Basis {
		a, err := materializeElement(s, cube, r)
		if err != nil {
			t.Fatal(err)
		}
		total += NonzeroCost(0)(a)
	}
	if math.Abs(total-res.Cost) > 1e-9 {
		t.Fatalf("reported cost %g, recomputed %g", res.Cost, total)
	}
}

// The best basis never stores more nonzeros than either trivial
// alternative: the raw cube ({A} is in the search space) or the wavelet
// basis.
func TestSelectDominatesFixedBases(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := velement.MustSpace(8, 8)
		cube := workload.SparseCube(rng, 0.15, 50, 8, 8)
		cost := NonzeroCost(0)
		res, err := Select(s, cube, cost)
		if err != nil {
			return false
		}
		if res.Cost > cost(cube)+1e-9 {
			return false
		}
		waveletTotal := 0.0
		for _, r := range velement.WaveletBasis(s) {
			a, err := materializeElement(s, cube, r)
			if err != nil {
				return false
			}
			waveletTotal += cost(a)
		}
		return res.Cost <= waveletTotal+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// materializeElement computes one element by its direct operator cascade,
// independent of the package's own Materializer-based path.
func materializeElement(s *velement.Space, cube *ndarray.Array, r freq.Rect) (*ndarray.Array, error) {
	a := cube
	var err error
	for m, node := range r {
		for i := node.Depth() - 1; i >= 0; i-- {
			if node>>uint(i)&1 == 0 {
				a, err = a.PairSum(m)
			} else {
				a, err = a.PairDiff(m)
			}
			if err != nil {
				return nil, err
			}
		}
	}
	return a, nil
}

func TestSparsifyRoundTrip(t *testing.T) {
	a, _ := ndarray.NewFrom([]float64{0, 2, 0, -3, 0, 0, 1, 0}, 8)
	se := Sparsify(freq.Rect{1}, a, 0)
	if se.Nonzeros() != 3 {
		t.Fatalf("nonzeros %d, want 3", se.Nonzeros())
	}
	back, err := se.Dense()
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(a, 0) {
		t.Fatal("sparse round trip lost data")
	}
	// Corrupt offset detection.
	se.Offsets[0] = 99
	if _, err := se.Dense(); err == nil {
		t.Fatal("want error for out-of-range offset")
	}
}

func TestCompressDecompressLossless(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, density := range []float64{0.02, 0.1, 0.5} {
		s := velement.MustSpace(16, 16)
		cube := workload.SparseCube(rng, density, 20, 16, 16)
		comp, err := Compress(s, cube, NonzeroCost(0), 0)
		if err != nil {
			t.Fatal(err)
		}
		back, err := comp.Decompress()
		if err != nil {
			t.Fatal(err)
		}
		if !back.Equal(cube, 1e-9) {
			t.Fatalf("density %g: lossless decompression failed", density)
		}
		if comp.StoredValues() > int(NonzeroCost(0)(cube)) {
			t.Fatalf("density %g: compressed (%d) larger than raw nonzeros (%g)",
				density, comp.StoredValues(), NonzeroCost(0)(cube))
		}
	}
}

func TestCompressConstantCube(t *testing.T) {
	// A constant cube compresses to a single coefficient, the grand total,
	// under either functional: the entropy basis collapses it as well.
	for name, cost := range map[string]CostFn{"nonzero": NonzeroCost(0), "entropy": EntropyCost()} {
		for _, shape := range [][]int{{8, 8}, {16}} {
			s := velement.MustSpace(shape...)
			cube := ndarray.New(shape...)
			cube.Fill(3)
			comp, err := Compress(s, cube, cost, 0)
			if err != nil {
				t.Fatal(err)
			}
			if comp.StoredValues() != 1 {
				t.Fatalf("%s %v: constant cube stored %d values, want 1", name, shape, comp.StoredValues())
			}
			back, err := comp.Decompress()
			if err != nil {
				t.Fatal(err)
			}
			if !back.Equal(cube, 1e-9) {
				t.Fatalf("%s %v: constant cube reconstruction failed", name, shape)
			}
		}
	}
}

func TestCompressBlockStructuredCube(t *testing.T) {
	// Data confined to one quadrant: the best basis should isolate it and
	// beat the wavelet basis.
	s := velement.MustSpace(16, 16)
	rng := rand.New(rand.NewSource(3))
	cube := ndarray.New(16, 16)
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			cube.Set(math.Floor(rng.Float64()*9)+1, i, j)
		}
	}
	comp, err := Compress(s, cube, NonzeroCost(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	raw := int(NonzeroCost(0)(cube)) // 64
	if comp.StoredValues() > raw {
		t.Fatalf("compressed %d values, raw has %d", comp.StoredValues(), raw)
	}
	back, err := comp.Decompress()
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(cube, 1e-9) {
		t.Fatal("reconstruction failed")
	}
}

func TestSelectRejectsShapeMismatch(t *testing.T) {
	s := velement.MustSpace(4, 4)
	if _, err := Select(s, ndarray.New(8, 8), NonzeroCost(0)); err == nil {
		t.Fatal("want error for cube/space mismatch")
	}
}
