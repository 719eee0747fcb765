package assembly

import (
	"math/rand"
	"testing"
	"testing/quick"

	"viewcube/internal/freq"
	"viewcube/internal/haar"
	"viewcube/internal/velement"
)

func TestNodeContributionAgainstOperators(t *testing.T) {
	// For every node of an 8-wide dimension and every coordinate, adding δ
	// at the coordinate must change exactly the predicted element cell by
	// sign·δ.
	rng := rand.New(rand.NewSource(1))
	for node := freq.Node(1); node <= 15; node++ {
		a := randomCube(rng, 8)
		coord := rng.Intn(8)
		before, err := haar.ApplyNode(a, 0, node)
		if err != nil {
			t.Fatal(err)
		}
		// ApplyNode on the root node is the identity and may alias its
		// input; snapshot before mutating.
		before = before.Clone()
		const delta = 5.0
		a.Add(delta, coord)
		after, err := haar.ApplyNode(a, 0, node)
		if err != nil {
			t.Fatal(err)
		}
		local, sign := haar.NodeContribution(node, coord)
		for i := 0; i < after.Dim(0); i++ {
			want := before.At(i)
			if i == local {
				want += float64(sign) * delta
			}
			if after.At(i) != want {
				t.Fatalf("node %v coord %d: cell %d = %g, want %g", node, coord, i, after.At(i), want)
			}
		}
	}
}

func TestCellContributionValidation(t *testing.T) {
	if _, _, err := haar.CellContribution(freq.Rect{1, 1}, []int{0}); err == nil {
		t.Fatal("want error for rank mismatch")
	}
	if _, _, err := haar.CellContribution(freq.Rect{0}, []int{0}); err == nil {
		t.Fatal("want error for zero node")
	}
}

func TestUpdateCellMatchesRematerialization(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := velement.MustSpace(8, 4)
		cube := randomCube(rng, 8, 4)
		basis := velement.RandomPacketBasis(s, rng, 0.3)
		// Also keep a couple of redundant extras in the store.
		set := append(basis, s.Root(), freq.Rect{2, 1})
		st, err := MaterializeSet(s, cube, set)
		if err != nil {
			return false
		}
		// Apply a random update both incrementally and to the cube.
		idx := []int{rng.Intn(8), rng.Intn(4)}
		delta := float64(rng.Intn(19) - 9)
		if err := UpdateCell(s, st, []float64{delta}, idx); err != nil {
			return false
		}
		cube.Add(delta, idx...)
		fresh, err := MaterializeSet(s, cube, set)
		if err != nil {
			return false
		}
		for _, r := range set {
			got, _ := st.Get(r)
			want, _ := fresh.Get(r)
			if !got.Equal(want, 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateCellValidation(t *testing.T) {
	s := velement.MustSpace(4, 4)
	st := NewMemStore()
	if err := UpdateCell(s, st, []float64{1}, []int{0}); err == nil {
		t.Fatal("want error for rank mismatch")
	}
	if err := UpdateCell(s, st, []float64{1}, []int{4, 0}); err == nil {
		t.Fatal("want error for out-of-bounds index")
	}
	if err := UpdateCell(s, st, []float64{0}, []int{0, 0}); err != nil {
		t.Fatal("zero delta must be a no-op")
	}
}

func TestUpdateCellKeepsEngineAnswersExact(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s := velement.MustSpace(8, 8)
	cube := randomCube(rng, 8, 8)
	st, err := MaterializeSet(s, cube, velement.WaveletBasis(s))
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(s, st)
	for step := 0; step < 20; step++ {
		idx := []int{rng.Intn(8), rng.Intn(8)}
		delta := float64(rng.Intn(21) - 10)
		if err := UpdateCell(s, st, []float64{delta}, idx); err != nil {
			t.Fatal(err)
		}
		cube.Add(delta, idx...)
	}
	for _, v := range s.AggregatedViews() {
		got, err := answer(eng, nil, v)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := haar.ApplyRect(cube, v)
		if !got.Equal(want, 1e-6) {
			t.Fatalf("view %v stale after incremental updates", v)
		}
	}
}
