package rangeagg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"viewcube/internal/assembly"
	"viewcube/internal/freq"
	"viewcube/internal/haar"
	"viewcube/internal/ndarray"
	"viewcube/internal/velement"
)

func randomCube(r *rand.Rand, shape ...int) *ndarray.Array {
	a := ndarray.New(shape...)
	for i := range a.Data() {
		a.Data()[i] = math.Round(r.Float64()*100 - 50)
	}
	return a
}

func TestDyadicBlocks(t *testing.T) {
	cases := []struct {
		lo, ext int
		want    []Block
	}{
		{0, 8, []Block{{Start: 0, Level: 3}}},
		{0, 5, []Block{{Start: 0, Level: 2}, {Start: 4, Level: 0}}},
		{1, 7, []Block{{Start: 1, Level: 0}, {Start: 2, Level: 1}, {Start: 4, Level: 2}}},
		{3, 3, []Block{{Start: 3, Level: 0}, {Start: 4, Level: 1}}},
		{6, 2, []Block{{Start: 6, Level: 1}}},
		{5, 1, []Block{{Start: 5, Level: 0}}},
		{2, 6, []Block{{Start: 2, Level: 1}, {Start: 4, Level: 2}}},
	}
	for _, c := range cases {
		got := DyadicBlocks(c.lo, c.ext)
		if len(got) != len(c.want) {
			t.Fatalf("DyadicBlocks(%d,%d)=%v, want %v", c.lo, c.ext, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("DyadicBlocks(%d,%d)=%v, want %v", c.lo, c.ext, got, c.want)
			}
		}
	}
	if DyadicBlocks(0, 0) != nil || DyadicBlocks(-1, 3) != nil {
		t.Fatal("degenerate inputs must return nil")
	}
}

// Property: the dyadic decomposition exactly tiles the interval — blocks
// are aligned, contiguous, disjoint, and cover [lo, lo+ext).
func TestDyadicBlocksProperty(t *testing.T) {
	f := func(a, b uint16) bool {
		lo := int(a % 1024)
		ext := int(b%1024) + 1
		blocks := DyadicBlocks(lo, ext)
		cur := lo
		for _, blk := range blocks {
			if blk.Start != cur {
				return false // not contiguous
			}
			if blk.Start%(1<<blk.Level) != 0 {
				return false // not aligned
			}
			cur += blk.Size()
		}
		if cur != lo+ext {
			return false // does not cover
		}
		// Canonical minimality bound: at most 2·log2(hi) + 2 blocks.
		return len(blocks) <= 2*11+2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBoxValidate(t *testing.T) {
	shape := []int{8, 4}
	good := Box{Lo: []int{1, 0}, Ext: []int{3, 4}}
	if err := good.Validate(shape); err != nil {
		t.Fatal(err)
	}
	bad := []Box{
		{Lo: []int{0}, Ext: []int{1}},
		{Lo: []int{-1, 0}, Ext: []int{1, 1}},
		{Lo: []int{0, 0}, Ext: []int{9, 1}},
		{Lo: []int{0, 0}, Ext: []int{1, 0}},
	}
	for _, b := range bad {
		if err := b.Validate(shape); err == nil {
			t.Errorf("Validate(%v) should fail", b)
		}
	}
	if good.Cells() != 12 {
		t.Fatalf("Cells=%d, want 12", good.Cells())
	}
}

func TestRangeSumMatchesDirectScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := velement.MustSpace(16, 8)
	cube := randomCube(rng, 16, 8)
	mat, err := assembly.NewMaterializer(s, cube)
	if err != nil {
		t.Fatal(err)
	}
	q := NewQuerier(s, mat)
	for trial := 0; trial < 100; trial++ {
		lo := []int{rng.Intn(16), rng.Intn(8)}
		ext := []int{1 + rng.Intn(16-lo[0]), 1 + rng.Intn(8-lo[1])}
		box := Box{Lo: lo, Ext: ext}
		got, err := q.RangeSum(box)
		if err != nil {
			t.Fatal(err)
		}
		want, err := DirectScan(cube, box)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-6 {
			t.Fatalf("box %v: range sum %g, want %g", box, got, want)
		}
	}
}

func TestRangeSumFromAssembledElements(t *testing.T) {
	// The querier must also work when intermediate elements are assembled
	// from a materialised basis rather than computed from the cube.
	rng := rand.New(rand.NewSource(2))
	s := velement.MustSpace(8, 8)
	cube := randomCube(rng, 8, 8)
	store, err := assembly.MaterializeSet(s, cube, velement.WaveletBasis(s))
	if err != nil {
		t.Fatal(err)
	}
	eng := assembly.NewEngine(s, store)
	q := NewQuerier(s, engineSource{eng})
	box := Box{Lo: []int{1, 2}, Ext: []int{5, 3}}
	got, err := q.RangeSum(box)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := DirectScan(cube, box)
	if math.Abs(got-want) > 1e-6 {
		t.Fatalf("range sum %g, want %g", got, want)
	}
}

type engineSource struct{ eng *assembly.Engine }

func (e engineSource) Element(r freq.Rect) (*ndarray.Array, error) { return e.eng.Answer(nil, r) }

func TestRangeSumValidation(t *testing.T) {
	s := velement.MustSpace(4, 4)
	mat, _ := assembly.NewMaterializer(s, ndarray.New(4, 4))
	q := NewQuerier(s, mat)
	if _, err := q.RangeSum(Box{Lo: []int{0, 0}, Ext: []int{5, 1}}); err == nil {
		t.Fatal("want error for out-of-bounds box")
	}
}

func TestQuerierCachesElements(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := velement.MustSpace(8, 8)
	cube := randomCube(rng, 8, 8)
	mat, _ := assembly.NewMaterializer(s, cube)
	q := NewQuerier(s, mat)
	box := Box{Lo: []int{1, 1}, Ext: []int{6, 6}}
	if _, err := q.RangeSum(box); err != nil {
		t.Fatal(err)
	}
	first := q.CellsRead
	if _, err := q.RangeSum(box); err != nil {
		t.Fatal(err)
	}
	if q.CellsRead != 2*first {
		t.Fatalf("cells read %d, want %d (same per query)", q.CellsRead, 2*first)
	}
	if len(q.cache) == 0 {
		t.Fatal("querier should have cached elements")
	}
}

func TestBlocksTouchedIsLogarithmic(t *testing.T) {
	// Worst-case box in a 256-wide dimension touches ≤ 2·8 blocks, far
	// fewer than the 254 cells a scan reads.
	box := Box{Lo: []int{1}, Ext: []int{254}}
	if got := BlocksTouched(box); got > 16 {
		t.Fatalf("blocks touched %d, want ≤ 16", got)
	}
	if got := BlocksTouched(box); got >= box.Cells() {
		t.Fatal("dyadic reads must beat the direct scan")
	}
}

func TestPrefixCube(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cube := randomCube(rng, 8, 4, 4)
	pc := NewPrefixCube(cube)
	for trial := 0; trial < 60; trial++ {
		lo := []int{rng.Intn(8), rng.Intn(4), rng.Intn(4)}
		ext := []int{1 + rng.Intn(8-lo[0]), 1 + rng.Intn(4-lo[1]), 1 + rng.Intn(4-lo[2])}
		box := Box{Lo: lo, Ext: ext}
		got, err := pc.RangeSum(box)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := DirectScan(cube, box)
		if math.Abs(got-want) > 1e-6 {
			t.Fatalf("box %v: prefix sum %g, want %g", box, got, want)
		}
	}
	if _, err := pc.RangeSum(Box{Lo: []int{0, 0, 0}, Ext: []int{9, 1, 1}}); err == nil {
		t.Fatal("want error for out-of-bounds box")
	}
}

// Eq. 39–40: partial aggregation commutes with aligned range extraction.
func TestCommutativityOfRangeAndPartial(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cube := randomCube(rng, 16, 4)
	// Range aligned to powers of two on dim 0: [4, 12).
	g, err := cube.SubArray([]int{4, 0}, []int{8, 4})
	if err != nil {
		t.Fatal(err)
	}
	pg, err := haar.Partial(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	pa, err := haar.Partial(cube, 0)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := pa.SubArray([]int{2, 0}, []int{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	if !pg.Equal(g2, 1e-9) {
		t.Fatal("P₁(G(A)) must equal G₂(P₁(A)) for aligned ranges")
	}
}

// Property: range sums over random boxes agree across all three methods.
func TestThreeMethodsAgreeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	s := velement.MustSpace(16, 16)
	cube := randomCube(rng, 16, 16)
	mat, _ := assembly.NewMaterializer(s, cube)
	q := NewQuerier(s, mat)
	pc := NewPrefixCube(cube)
	f := func(a, b, c, d uint8) bool {
		lo := []int{int(a) % 16, int(b) % 16}
		ext := []int{1 + int(c)%(16-lo[0]), 1 + int(d)%(16-lo[1])}
		box := Box{Lo: lo, Ext: ext}
		direct, err := DirectScan(cube, box)
		if err != nil {
			return false
		}
		viaElements, err := q.RangeSum(box)
		if err != nil {
			return false
		}
		viaPrefix, err := pc.RangeSum(box)
		if err != nil {
			return false
		}
		return math.Abs(direct-viaElements) < 1e-6 && math.Abs(direct-viaPrefix) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestDecomposeBoxLegs(t *testing.T) {
	legs := DecomposeBox([]int{1, 0}, []int{6, 8}, []bool{false, true})
	if len(legs) != 2 {
		t.Fatalf("legs %v", legs)
	}
	if legs[0].Keep || len(legs[0].Blocks) != len(DyadicBlocks(1, 6)) {
		t.Fatalf("filtered leg %+v", legs[0])
	}
	if !legs[1].Keep || len(legs[1].Blocks) != 1 {
		t.Fatalf("kept leg %+v", legs[1])
	}
	// Blocks must tile [1,7) exactly.
	covered := 0
	for _, b := range legs[0].Blocks {
		covered += b.Size()
	}
	if covered != 6 {
		t.Fatalf("blocks cover %d cells, want 6", covered)
	}
}

func TestRandomBoxes(t *testing.T) {
	shape := []int{8, 16}
	rng := rand.New(rand.NewSource(4))
	boxes := RandomBoxes(shape, rng, 50)
	if len(boxes) != 50 {
		t.Fatalf("%d boxes, want 50", len(boxes))
	}
	for _, b := range boxes {
		if err := b.Validate(shape); err != nil {
			t.Fatalf("invalid box %v: %v", b, err)
		}
	}
}
