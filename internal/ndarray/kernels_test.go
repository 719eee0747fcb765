package ndarray

import (
	"errors"
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

// naiveFoldK is the stage-at-a-time reference for the fused FoldK kernel:
// stage t (1-based, application order) is a pair difference when bit t−1 of
// signs is set, a pair sum otherwise.
func naiveFoldK(t *testing.T, a *Array, m, k int, signs uint) *Array {
	t.Helper()
	cur := a
	for s := 1; s <= k; s++ {
		var next *Array
		var err error
		if signs>>uint(s-1)&1 == 1 {
			next, err = cur.PairDiff(m)
		} else {
			next, err = cur.PairSum(m)
		}
		if err != nil {
			t.Fatalf("reference stage %d: %v", s, err)
		}
		cur = next
	}
	return cur
}

func TestFoldKMatchesStageAtATime(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	// Random shapes and depths, including the rank-1 and extent-2 edges.
	shapes := [][]int{
		{2}, {8}, {64},
		{2, 2}, {4, 8}, {16, 2, 4},
		{8, 4, 8}, {2, 2, 2, 2},
	}
	for i, shape := range append(shapes, []int{8, 4, 2}) {
		a := randomArray(r, shape...)
		if i == len(shapes) { // the last input: three planes fold as one
			a = randomPlanes(r, 3, shape...)
		}
		for m := range shape {
			maxK := 0
			for n := shape[m]; n%2 == 0; n /= 2 {
				maxK++
			}
			for k := 0; k <= maxK; k++ {
				for trial := 0; trial < 4; trial++ {
					signs := uint(r.Intn(1 << uint(k)))
					want := naiveFoldK(t, a, m, k, signs)
					got, err := a.FoldK(m, k, signs)
					if err != nil {
						t.Fatalf("FoldK(%v, m=%d, k=%d, signs=%#x): %v", shape, m, k, signs, err)
					}
					if !got.SameShape(want) || got.MaxAbsDiff(want) != 0 {
						t.Fatalf("FoldK(%v, m=%d, k=%d, signs=%#x) diverges from stage-at-a-time (max diff %g)",
							shape, m, k, signs, got.MaxAbsDiff(want))
					}
				}
			}
		}
	}
}

// TestFoldKIntoSumsBlocksInOrder pins FoldKInto's arithmetic on real-valued
// cells, where order changes bits: every output cell is its block's slot 0,
// then slots 1, 2, … added or subtracted in turn — whether the folded
// dimension is innermost, has a short run inside it or a long one, and for
// cascades deeper than six stages, with residual stages above the sixth.
func TestFoldKIntoSumsBlocksInOrder(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	for _, k := range []int{4, 7, 8} {
		block := 1 << uint(k)
		for _, shape := range [][]int{{4, block}, {4, block, 2}, {2, block, 8}, {2, block, 32}} {
			a := New(shape...)
			for i := range a.Data() {
				a.Data()[i] = r.NormFloat64() * 1e3
			}
			for _, signs := range []uint{0, 0b1011, uint(block)>>1 | 0b101} {
				got := New(shape[0], 1, a.Cells()/(shape[0]*block))
				if len(shape) == 2 {
					got = New(shape[0], 1)
				}
				if err := a.FoldKInto(1, k, signs, got); err != nil {
					t.Fatal(err)
				}
				inner := a.Stride(1)
				for o := 0; o < shape[0]; o++ {
					for j := 0; j < inner; j++ {
						base := o*block*inner + j
						want := a.Data()[base]
						for b := 1; b < block; b++ {
							if v := a.Data()[base+b*inner]; bits.OnesCount(uint(b)&signs)%2 == 1 {
								want -= v
							} else {
								want += v
							}
						}
						if g := got.Data()[o*inner+j]; math.Float64bits(g) != math.Float64bits(want) {
							t.Fatalf("shape %v k=%d signs %#x cell (%d, %d) = %v, in-order sum %v", shape, k, signs, o, j, g, want)
						}
					}
				}
			}
		}
	}
}

// TestFoldKIntoDeepCascadeAllocatesNothing: folding a 128-value dimension
// (seven stages, as a group-by over 128 products does) computes its signs
// with no table on the heap.
func TestFoldKIntoDeepCascadeAllocatesNothing(t *testing.T) {
	for _, inner := range []int{1, 4, 16} {
		a, dst := New(4, 128, inner), New(4, 1, inner)
		allocs := testing.AllocsPerRun(50, func() {
			if err := a.FoldKInto(1, 7, 0b1000101, dst); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("FoldKInto at k = 7, inner %d: %v allocs, want 0", inner, allocs)
		}
	}
}

func TestFoldKIntoOverwritesDirtyDestination(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	a := randomArray(r, 8, 4)
	want := naiveFoldK(t, a, 0, 2, 0b10)
	dst := New(2, 4)
	dst.Fill(1e9) // must be fully overwritten, no zeroing assumed
	if err := a.FoldKInto(0, 2, 0b10, dst); err != nil {
		t.Fatal(err)
	}
	if dst.MaxAbsDiff(want) != 0 {
		t.Fatalf("FoldKInto left stale destination contents (max diff %g)", dst.MaxAbsDiff(want))
	}
}

func TestIntoKernelsMatchAllocatingVariants(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	a := randomArray(r, 4, 6, 2)
	for m := 0; m < 3; m++ {
		sumWant, err := a.PairSum(m)
		if err != nil {
			t.Fatal(err)
		}
		diffWant, err := a.PairDiff(m)
		if err != nil {
			t.Fatal(err)
		}
		sumGot := New(sumWant.Shape()...)
		diffGot := New(diffWant.Shape()...)
		sumGot.Fill(-7)
		diffGot.Fill(-7)
		if err := a.PairSumInto(m, sumGot); err != nil {
			t.Fatal(err)
		}
		if err := a.PairDiffInto(m, diffGot); err != nil {
			t.Fatal(err)
		}
		if sumGot.MaxAbsDiff(sumWant) != 0 || diffGot.MaxAbsDiff(diffWant) != 0 {
			t.Fatalf("Into kernels diverge from allocating variants on dim %d", m)
		}
		par, err := Interleave(m, sumWant, diffWant)
		if err != nil {
			t.Fatal(err)
		}
		back := New(par.Shape()...)
		back.Fill(3)
		if err := InterleaveInto(m, sumWant, diffWant, back); err != nil {
			t.Fatal(err)
		}
		if back.MaxAbsDiff(par) != 0 {
			t.Fatalf("InterleaveInto diverges from Interleave on dim %d", m)
		}
		if back.MaxAbsDiff(a) != 0 {
			t.Fatalf("perfect reconstruction through Into kernels failed on dim %d", m)
		}
	}
}

func TestFoldErrorCases(t *testing.T) {
	a := New(8, 3)
	if _, err := a.FoldK(1, 1, 0); err == nil {
		t.Fatal("want error: odd extent is not divisible")
	}
	if _, err := a.FoldK(0, 2, 4); err == nil {
		t.Fatal("want error: signs outside k bits")
	}
	if err := a.FoldKInto(0, 1, 0, a); err == nil {
		t.Fatal("want error: aliased destination")
	}
	if err := a.FoldKInto(0, 1, 0, New(3, 3)); err == nil {
		t.Fatal("want error: wrong destination shape")
	}
	if err := a.FoldKInto(0, 1, 0, New(4)); err == nil {
		t.Fatal("want error: wrong destination rank")
	}
	p := New(4, 3)
	if err := InterleaveInto(0, p, New(2, 3), New(8, 3)); err == nil {
		t.Fatal("want error: partial/residual shape mismatch")
	}
	if err := InterleaveInto(0, p, New(4, 3), p); err == nil {
		t.Fatal("want error: interleave destination aliases a child")
	}
	if err := InterleaveInto(0, p, New(4, 3), New(8, 4)); err == nil {
		t.Fatal("want error: wrong interleave destination shape")
	}
	three := NewPlanes(3, 8, 3)
	if err := three.FoldKInto(0, 1, 0, New(4, 3)); !errors.Is(err, ErrShape) {
		t.Fatalf("fold into a one-plane destination: err = %v, want ErrShape", err)
	}
	if err := InterleaveInto(0, NewPlanes(3, 4, 3), NewPlanes(3, 4, 3), New(8, 3)); !errors.Is(err, ErrShape) {
		t.Fatalf("interleave into a one-plane destination: err = %v, want ErrShape", err)
	}
	if err := InterleaveInto(0, NewPlanes(3, 4, 3), New(4, 3), three); !errors.Is(err, ErrShape) {
		t.Fatalf("interleave of children with different planes: err = %v, want ErrShape", err)
	}
}

func TestSubArrayInto(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	a := randomArray(r, 6, 5, 4)
	lo := []int{1, 0, 2}
	ext := []int{3, 5, 2}
	want, err := a.SubArray(lo, ext)
	if err != nil {
		t.Fatal(err)
	}
	dst := New(ext...)
	dst.Fill(99)
	if err := a.SubArrayInto(lo, ext, dst); err != nil {
		t.Fatal(err)
	}
	if dst.MaxAbsDiff(want) != 0 {
		t.Fatal("SubArrayInto diverges from SubArray")
	}
	if err := a.SubArrayInto([]int{0, 0, 0}, []int{7, 5, 4}, New(7, 5, 4)); err == nil {
		t.Fatal("want error: box outside shape")
	}
	if err := a.SubArrayInto(lo, ext, New(3, 5, 1)); err == nil {
		t.Fatal("want error: destination shape mismatch")
	}
}

func TestScratchRecycleRoundTrip(t *testing.T) {
	// A recycled buffer must come back for an equal-class request, fully
	// usable and correctly shaped.
	a, _ := Scratch(4, 8)
	a.Fill(5)
	ndata := a.Data()
	Recycle(a)
	b, hit := Scratch(2, 16) // same cell count, same class
	if !hit {
		// sync.Pool may drop entries across a GC; retry once immediately.
		Recycle(b)
		c, _ := Scratch(4, 8)
		ndata = c.Data()
		Recycle(c)
		b, hit = Scratch(2, 16)
		if !hit {
			t.Skip("scratch pool emptied by GC; cannot observe reuse")
		}
	}
	if b.Rank() != 2 || b.Dim(0) != 2 || b.Dim(1) != 16 || b.Size() != 32 {
		t.Fatalf("leased shape %v size %d, want [2 16] 32", b.Shape(), b.Size())
	}
	if &ndata[0] != &b.Data()[0] {
		t.Fatal("lease did not reuse the recycled backing storage")
	}
	// Stride/indexing behaviour must match a fresh array of that shape.
	b.Set(42, 1, 15)
	if b.Data()[31] != 42 {
		t.Fatal("leased array strides are wrong")
	}
	Recycle(b)
}

func TestScratchStatsCount(t *testing.T) {
	h0, m0 := ScratchStats()
	a, _ := Scratch(16)
	Recycle(a)
	_, hit := Scratch(16)
	h1, m1 := ScratchStats()
	if h1+m1 <= h0+m0 {
		t.Fatal("ScratchStats did not advance")
	}
	_ = hit
}

func TestRecycleIgnoresOddCapacity(t *testing.T) {
	// Arrays whose backing capacity is not an exact power of two must be
	// left to the GC, never pooled (a later lease would over-index).
	odd := New(3)
	Recycle(odd) // must not panic and must not pool
	got, _ := Scratch(4)
	if cap(got.Data()) != 4 {
		t.Fatalf("pool served a buffer with capacity %d for class 4", cap(got.Data()))
	}
	Recycle(got)
}

// randomPlanes is randomArray with planes planes.
func randomPlanes(r *rand.Rand, planes int, shape ...int) *Array {
	a := NewPlanes(planes, shape...)
	for i := range a.Data() {
		a.Data()[i] = math.Round(r.Float64()*200 - 100)
	}
	return a
}

// TestMultiKernelsMatchScalarPerPlane pins the linearity claim the
// measure-vector engine rests on: every kernel over a many-plane array is
// bit-identical to the same kernel applied to each plane alone.
func TestMultiKernelsMatchScalarPerPlane(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const planes = 3
	a := randomPlanes(rng, planes, 4, 8)
	// same checks plane p of got against the one-plane kernel run on plane
	// p of each input.
	same := func(what string, got *Array, kernel func(in []*Array, dst *Array) error, in ...*Array) {
		t.Helper()
		for p := 0; p < planes; p++ {
			own := make([]*Array, len(in))
			for i, x := range in {
				own[i] = x.Plane(p).Clone()
			}
			want := New(got.Shape()...)
			if err := kernel(own, want); err != nil {
				t.Fatal(err)
			}
			for i, v := range want.Data() {
				if g := got.Plane(p).Data()[i]; g != v {
					t.Fatalf("%s plane %d cell %d: %g != %g", what, p, i, g, v)
				}
			}
		}
	}
	for m := 0; m < 2; m++ {
		half := a.Shape()
		half[m] /= 2
		gotS, gotD := NewPlanes(planes, half...), NewPlanes(planes, half...)
		if err := a.PairSumInto(m, gotS); err != nil {
			t.Fatal(err)
		}
		if err := a.PairDiffInto(m, gotD); err != nil {
			t.Fatal(err)
		}
		same("PairSum", gotS, func(in []*Array, dst *Array) error { return in[0].PairSumInto(m, dst) }, a)
		same("PairDiff", gotD, func(in []*Array, dst *Array) error { return in[0].PairDiffInto(m, dst) }, a)
	}
	// FoldK with every sign pattern at depth 2 along dimension 1.
	for signs := uint(0); signs < 4; signs++ {
		got := NewPlanes(planes, 4, 2)
		if err := a.FoldKInto(1, 2, signs, got); err != nil {
			t.Fatal(err)
		}
		same("FoldK", got, func(in []*Array, dst *Array) error { return in[0].FoldKInto(1, 2, signs, dst) }, a)
	}
	p, r := randomPlanes(rng, planes, 4, 4), randomPlanes(rng, planes, 4, 4)
	got := NewPlanes(planes, 4, 8)
	if err := InterleaveInto(1, p, r, got); err != nil {
		t.Fatal(err)
	}
	same("Interleave", got, func(in []*Array, dst *Array) error { return InterleaveInto(1, in[0], in[1], dst) }, p, r)
	lo, ext := []int{1, 2}, []int{2, 4}
	sub := NewPlanes(planes, ext...)
	if err := a.SubArrayInto(lo, ext, sub); err != nil {
		t.Fatal(err)
	}
	same("SubArray", sub, func(in []*Array, dst *Array) error { return in[0].SubArrayInto(lo, ext, dst) }, a)
}

func TestPlanesBasics(t *testing.T) {
	a := NewPlanes(3, 2, 4)
	if a.Planes() != 3 || a.Cells() != 8 || a.Size() != 24 {
		t.Fatalf("planes/cells/size = %d/%d/%d", a.Planes(), a.Cells(), a.Size())
	}
	a.Add(11, 1, 2) // indexing addresses plane 0
	if a.Data()[6] != 11 || a.Plane(0).At(1, 2) != 11 {
		t.Fatal("Add must address plane 0")
	}
	// Planes alias the flat buffer.
	a.Plane(1).Set(-7, 0, 0)
	if a.Data()[8] != -7 {
		t.Fatal("Plane(1) must alias plane 1 of the flat buffer")
	}
	if one := New(2, 4); one.Plane(0) != one || one.Planes() != 1 {
		t.Fatal("a one-plane array must be its own plane 0")
	}
	b := a.Clone()
	if b.Planes() != 3 || b.Data()[8] != -7 {
		t.Fatal("Clone must copy every plane")
	}
	b.Plane(2).Add(1, 0, 0)
	if a.Plane(2).At(0, 0) == b.Plane(2).At(0, 0) {
		t.Fatal("Clone must not share storage")
	}
	if a.SameShape(New(2, 4)) {
		t.Fatal("SameShape must compare plane counts")
	}
}

// TestScratchPlanesRecycle checks the pool round-trip of many-plane leases:
// a recycled buffer is reissued for any request of its size class —
// including a different plane count and rank — correctly shaped and strided.
// Like Scratch, contents are not zeroed.
func TestScratchPlanesRecycle(t *testing.T) {
	// Pool hits cannot be asserted here — sync.Pool deliberately drops
	// items under the race detector — so this checks geometry only.
	a, _ := ScratchPlanes(3, 4, 4)
	if a.Planes() != 3 || a.Cells() != 16 {
		t.Fatalf("leased %d planes of %d cells", a.Planes(), a.Cells())
	}
	Recycle(a)
	c, _ := ScratchPlanes(6, 8)
	if c.Planes() != 6 || c.Cells() != 8 || c.Rank() != 1 {
		t.Fatalf("reshaped to %d×%d rank %d", c.Planes(), c.Cells(), c.Rank())
	}
	for p := 0; p < 6; p++ {
		c.Plane(p).Set(float64(p+1), 7)
	}
	for p := 0; p < 6; p++ {
		if got := c.Data()[p*8+7]; got != float64(p+1) {
			t.Fatalf("plane %d misaligned after reshape: %g", p, got)
		}
	}
	Recycle(c)
}
