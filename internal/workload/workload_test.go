package workload

import (
	"math"
	"math/rand"
	"testing"

	"viewcube/internal/relation"
	"viewcube/internal/velement"
)

func TestUniformViewPopulation(t *testing.T) {
	s := velement.MustSpace(4, 4, 4)
	rng := rand.New(rand.NewSource(1))
	withRoot := UniformViewPopulation(s, rng, true)
	if len(withRoot) != 8 {
		t.Fatalf("with root: %d queries, want 8", len(withRoot))
	}
	withoutRoot := UniformViewPopulation(s, rng, false)
	if len(withoutRoot) != 7 {
		t.Fatalf("without root: %d queries, want 7", len(withoutRoot))
	}
	sum := 0.0
	for _, q := range withRoot {
		if q.Freq < 0 {
			t.Fatal("negative frequency")
		}
		sum += q.Freq
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("frequencies sum to %g, want 1", sum)
	}
	for _, q := range withoutRoot {
		if q.Rect.Equal(s.Root()) {
			t.Fatal("root must be excluded")
		}
	}
}

func TestUniformPopulationDeterministic(t *testing.T) {
	s := velement.MustSpace(4, 4)
	a := UniformViewPopulation(s, rand.New(rand.NewSource(9)), true)
	b := UniformViewPopulation(s, rand.New(rand.NewSource(9)), true)
	for i := range a {
		if a[i].Freq != b[i].Freq || !a[i].Rect.Equal(b[i].Rect) {
			t.Fatal("same seed must give the same population")
		}
	}
}

func TestZipfViewPopulation(t *testing.T) {
	s := velement.MustSpace(4, 4, 4)
	rng := rand.New(rand.NewSource(2))
	qs := ZipfViewPopulation(s, rng, 1.5, false)
	if len(qs) != 7 {
		t.Fatalf("%d queries, want 7", len(qs))
	}
	sum, max := 0.0, 0.0
	for _, q := range qs {
		sum += q.Freq
		if q.Freq > max {
			max = q.Freq
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("sum %g, want 1", sum)
	}
	// With skew 1.5 over 7 views the top view holds a large share.
	if max < 0.3 {
		t.Fatalf("top frequency %g too small for skew 1.5", max)
	}
	// Zero skew is uniform.
	qs = ZipfViewPopulation(s, rng, 0, true)
	for _, q := range qs {
		if math.Abs(q.Freq-1.0/8) > 1e-12 {
			t.Fatalf("skew 0 must be uniform, got %g", q.Freq)
		}
	}
}

func TestHotSpotPopulation(t *testing.T) {
	s := velement.MustSpace(4, 4)
	rng := rand.New(rand.NewSource(3))
	qs := HotSpotPopulation(s, rng, 2, false)
	if len(qs) != 2 {
		t.Fatalf("%d queries, want 2", len(qs))
	}
	for _, q := range qs {
		if q.Freq != 0.5 {
			t.Fatalf("hot-spot frequency %g, want 0.5", q.Freq)
		}
	}
	if qs[0].Rect.Equal(qs[1].Rect) {
		t.Fatal("hot spots must be distinct")
	}
	// Clamping.
	qs = HotSpotPopulation(s, rng, 100, true)
	if len(qs) != 4 {
		t.Fatalf("clamped population %d, want 4", len(qs))
	}
	qs = HotSpotPopulation(s, rng, 0, true)
	if len(qs) != 1 {
		t.Fatalf("k=0 clamps to 1, got %d", len(qs))
	}
}

func TestRandomCubeAndSparseCube(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := RandomCube(rng, 10, 8, 8)
	for _, v := range c.Data() {
		if v < 0 || v >= 10 || v != math.Floor(v) {
			t.Fatalf("bad cell %g", v)
		}
	}
	sp := SparseCube(rng, 0.1, 10, 32, 32)
	nonzero := 0
	for _, v := range sp.Data() {
		if v != 0 {
			nonzero++
		}
	}
	frac := float64(nonzero) / float64(sp.Size())
	if frac < 0.05 || frac > 0.2 {
		t.Fatalf("sparse density %g out of expected band around 0.1", frac)
	}
}

func TestSalesTable(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	tbl, err := SalesTable(rng, 20, 4, 30, 500)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 500 {
		t.Fatalf("%d rows, want 500", tbl.Len())
	}
	// It must be loadable as a cube.
	cube, enc, err := relation.BuildCube(tbl)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc.Shape) != 3 {
		t.Fatalf("cube rank %d, want 3", len(enc.Shape))
	}
	grand, _ := tbl.GroupBy(nil)
	if math.Abs(cube.Total()-grand[""]) > 1e-9 {
		t.Fatal("cube total disagrees with relation")
	}
	if _, err := SalesTable(rng, 0, 1, 1, 1); err == nil {
		t.Fatal("want error for empty domain")
	}
}

func TestDyadicBlockCube(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, frac := range []float64{1, 0.5, 0.25, 0.0625} {
		cube := DyadicBlockCube(rng, 7, frac, 16, 16)
		nonzero := 0
		for _, v := range cube.Data() {
			if v != 0 {
				if v != 7 {
					t.Fatalf("frac %g: unexpected value %g", frac, v)
				}
				nonzero++
			}
		}
		want := int(frac * 256)
		if nonzero != want {
			t.Fatalf("frac %g: %d nonzeros, want %d", frac, nonzero, want)
		}
	}
	// Tiny fractions clamp at the single-cell block.
	cube := DyadicBlockCube(rng, 3, 1e-9, 4, 4)
	nonzero := 0
	for _, v := range cube.Data() {
		if v != 0 {
			nonzero++
		}
	}
	if nonzero != 1 {
		t.Fatalf("tiny fraction should leave one cell, got %d", nonzero)
	}
}
