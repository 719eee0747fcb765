package ndarray

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// cooDensity: an array is held as its nonzeros when at most one cell in
// cooDensity is nonzero. At 12 bytes per nonzero against 8 per dense cell
// that is at most 3/16 of the dense bytes, and the fold still runs about as
// fast as the cheaper dense fold (BenchmarkFoldKSparse, DESIGN §19).
const cooDensity = 8

const negZero = 1 << 63 // the bits of −0

// Coo is a read-only array held in coordinate form: the ascending row-major
// offsets of its nonzero cells (bits non-zero, so −0 is kept) and their
// values. Nothing mutates a Coo, so readers may share one.
type Coo struct {
	hdr      Array // the logical shape and strides, no cells
	size     int
	off      []int32
	val      []float64
	negZeros int // values that are −0 (see FoldKInto)
}

// ToCoo returns a's nonzeros, or nil when more than one cell in cooDensity is
// nonzero, an offset overflows int32, an extent is not a power of two or a
// has more than one plane.
func ToCoo(a *Array) *Coo {
	if a.Planes() != 1 {
		return nil
	}
	nnz := 0
	for _, v := range a.data {
		if math.Float64bits(v) != 0 {
			nnz++
		}
	}
	if nnz*cooDensity > len(a.data) || len(a.data) > math.MaxInt32 {
		return nil
	}
	for _, n := range a.shape {
		if n&(n-1) != 0 {
			return nil
		}
	}
	c := &Coo{hdr: Array{shape: a.Shape(), strides: computeStrides(a.shape)}, size: len(a.data),
		off: make([]int32, 0, nnz), val: make([]float64, 0, nnz)}
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

// Size returns the logical number of cells, zeros included.
func (c *Coo) Size() int { return c.size }

// Entries returns the ascending row-major offsets of the held cells and
// their values. Callers must not modify either slice.
func (c *Coo) Entries() (off []int32, val []float64) { return c.off, c.val }

// ShapeInto writes a copy of the shape into dst (resliced to length zero).
func (c *Coo) ShapeInto(dst []int) []int { return c.hdr.ShapeInto(dst) }

// DenseInto overwrites dst, which must have c's size, with c's cells.
func (c *Coo) DenseInto(dst *Array) {
	clear(dst.data)
	for i, o := range c.off {
		dst.data[o] = c.val[i]
	}
}

// FoldKInto is Array.FoldKInto over the nonzeros: dst is zeroed and each
// nonzero scattered into its output cell with its sign. Offsets ascend, so
// each output cell takes its sources in the dense kernel's slot order, and
// slot 0 assigns as there. A skipped +0 changes a running sum only when the
// sum is −0: then the cell's slot 0 holds −0 and its other sources are
// zeros, and settleNegZeros redoes the dense kernel's sign of zero. So the
// result is bit-identical to folding the dense array.
func (c *Coo) FoldKInto(m, k int, signs uint, dst *Array) error {
	_, n, inner, err := c.hdr.checkFoldDst(m, k, dst)
	if err != nil || signs >= 1<<uint(k) {
		return fmt.Errorf("%w: cannot fold dim %d of %v by 2^%d with signs %#x into %v", ErrShape, m, c.hdr.shape, k, signs, dst.shape)
	}
	// An offset ((outer·n + i)·inner + j) goes to ((outer·n/2^k + i/2^k)·inner
	// + j) at slot i mod 2^k; extents are powers of two, so shifts split it.
	span := uint32(n * inner)
	spanBits, innerBits := uint(bits.TrailingZeros32(span)), uint(bits.TrailingZeros(uint(inner)))
	out, mask := dst.data, uint32(1)<<uint(k)-1
	clear(out)
	for x, o := range c.off {
		u := uint32(o)
		i := u & (span - 1) >> innerBits
		d := int(u>>spanBits*span>>uint(k)) + int(i>>uint(k))*inner + int(u&uint32(inner-1))
		switch b := uint(i & mask); {
		case b == 0:
			out[d] = c.val[x]
		case parity(b, signs) == 1:
			out[d] -= c.val[x]
		default:
			out[d] += c.val[x]
		}
	}
	if c.negZeros > 0 {
		c.settleNegZeros(n, inner, k, signs, out)
	}
	return nil
}

// settleNegZeros fixes each output cell left −0: its slot 0 is −0 and its
// other held sources entered as "+ −0", but the dense kernel also added the
// skipped +0 sources, and "+ +0" turns −0 into +0. So the cell stays −0 only
// if every plus-signed slot past 0 is held.
func (c *Coo) settleNegZeros(n, inner, k int, signs uint, out []float64) {
	block := 1 << uint(k)
	for x, o := range c.off {
		q := int(o) / inner
		if math.Float64bits(c.val[x]) != negZero || q%block != 0 {
			continue
		}
		d := (q/n*(n/block)+q%n/block)*inner + int(o)%inner
		for b := 1; b < block && math.Float64bits(out[d]) == negZero; b++ {
			_, held := slices.BinarySearch(c.off, int32(int(o)+b*inner))
			if !held && parity(uint(b), signs) == 0 {
				out[d] = 0
			}
		}
	}
}
