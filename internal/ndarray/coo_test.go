package ndarray

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// sparseArray fills about one cell in every with a real, an integer, a
// negative value, −0 or +0.
func sparseArray(r *rand.Rand, every int, shape ...int) *Array {
	a := New(shape...)
	for i := range a.data {
		if r.Intn(every) != 0 {
			continue
		}
		switch r.Intn(5) {
		case 0:
			a.data[i] = r.NormFloat64() * 1e3
		case 1:
			a.data[i] = float64(r.Intn(19) - 9)
		case 2:
			a.data[i] = -r.ExpFloat64()
		case 3:
			a.data[i] = math.Copysign(0, -1)
		}
	}
	return a
}

func sameBits(a, b *Array) bool {
	if !a.SameShape(b) {
		return false
	}
	for i := range a.data {
		if math.Float64bits(a.data[i]) != math.Float64bits(b.data[i]) {
			return false
		}
	}
	return true
}

// TestCooFoldKMatchesDense: over every dimension, depth and sign pattern, the
// COO kernel is bit-identical to the dense kernel, −0 cells included, and a
// dirty destination is fully overwritten.
func TestCooFoldKMatchesDense(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, shape := range [][]int{{16}, {4, 8}, {8, 2, 4}, {2, 4, 2, 8}} {
		for _, every := range []int{8, 3, 1} {
			a := sparseArray(r, every, shape...)
			if every == 1 {
				// Dense fixtures exercise the −0 rule hardest; force the
				// conversion by building the COO by hand.
				a.data[0] = math.Copysign(0, -1)
			}
			c := cooOf(a)
			dense := New(shape...)
			dense.Fill(math.NaN())
			if c.DenseInto(dense); !sameBits(dense, a) {
				t.Fatalf("%v: DenseInto does not round-trip", shape)
			}
			for m := range shape {
				for k := 0; 1<<uint(k) <= shape[m]; k++ {
					for signs := uint(0); signs < 1<<uint(k); signs++ {
						want, err := a.FoldK(m, k, signs)
						if err != nil {
							t.Fatal(err)
						}
						got := New(want.Shape()...)
						got.Fill(math.NaN())
						if err := c.FoldKInto(m, k, signs, got); err != nil {
							t.Fatal(err)
						}
						if !sameBits(got, want) {
							t.Fatalf("%v every=%d m=%d k=%d signs=%#x: COO fold differs from dense\n got  %v\n want %v", shape, every, m, k, signs, got, want)
						}
					}
				}
			}
		}
	}
}

// cooOf builds the COO form of a at any density (ToCoo refuses dense arrays).
func cooOf(a *Array) *Coo {
	c := &Coo{hdr: Array{shape: a.Shape(), strides: computeStrides(a.shape)}, size: len(a.data)}
	for i, v := range a.data {
		if b := math.Float64bits(v); b != 0 {
			c.off, c.val = append(c.off, int32(i)), append(c.val, v)
			if b == negZero {
				c.negZeros++
			}
		}
	}
	return c
}

func TestToCooThreshold(t *testing.T) {
	a := New(8, 8)
	for i := 0; i < 8; i++ {
		a.data[i*8] = float64(i + 1)
	}
	if c := ToCoo(a); c == nil || len(c.off) != 8 || c.Size() != 64 {
		t.Fatalf("one cell in eight: want a COO of 8 nonzeros over 64 cells, got %+v", c)
	}
	a.data[1] = math.Copysign(0, -1) // −0 counts as nonzero
	if c := ToCoo(a); c != nil {
		t.Fatalf("nine cells in 64 held as COO: %d nonzeros", len(c.off))
	}
}

func TestCooFoldErrors(t *testing.T) {
	if ToCoo(New(4, 6)) != nil {
		t.Fatal("an extent of 6 held as COO")
	}
	c := ToCoo(New(4, 8))
	for _, tc := range []struct {
		m, k  int
		signs uint
		dst   *Array
	}{
		{m: 1, k: 4, dst: New(4, 1)},
		{m: 0, k: 1, signs: 2, dst: New(2, 8)},
		{m: 0, k: 1, dst: New(4, 8)},
		{m: 0, k: 1, dst: New(2, 8, 1)},
	} {
		if err := c.FoldKInto(tc.m, tc.k, tc.signs, tc.dst); err == nil {
			t.Errorf("m=%d k=%d signs=%d dst=%v: want an error", tc.m, tc.k, tc.signs, tc.dst.shape)
		}
	}
}

var foldSink *Array

// BenchmarkFoldKSparse is the first fold of an aggregate from a sparse root:
// COO against the dense kernel on a 128×16×64×8 cube, folding an outer
// (dim 0) and the innermost (dim 3) dimension by 2^3. It backs cooDensity:
// at one cell in eight COO folds about as fast as the cheaper dense fold.
func BenchmarkFoldKSparse(b *testing.B) {
	shape := []int{128, 16, 64, 8}
	for _, every := range []int{16, 8, 4} {
		a := New(shape...)
		r := rand.New(rand.NewSource(int64(every)))
		for i := range a.data {
			if r.Intn(every) == 0 {
				a.data[i] = float64(r.Intn(100) + 1)
			}
		}
		c := cooOf(a)
		for _, m := range []int{0, 3} {
			out := shape[m] >> 3
			dstShape := append([]int(nil), shape...)
			dstShape[m] = out
			dst := New(dstShape...)
			b.Run(fmt.Sprintf("density=1/%d/dim=%d/coo", every, m), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if err := c.FoldKInto(m, 3, 5, dst); err != nil {
						b.Fatal(err)
					}
				}
				foldSink = dst
			})
			b.Run(fmt.Sprintf("density=1/%d/dim=%d/dense", every, m), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if err := a.FoldKInto(m, 3, 5, dst); err != nil {
						b.Fatal(err)
					}
				}
				foldSink = dst
			})
		}
	}
}
