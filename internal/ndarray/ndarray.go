// Package ndarray provides a dense, strided, row-major n-dimensional array
// of float64 values. It is the storage substrate for MOLAP data cubes and
// all view elements derived from them.
//
// The package is deliberately minimal: shapes are immutable after creation,
// all data is held in a single contiguous []float64, and every operation
// needed by the Haar partial-aggregation cascade (pairwise folds along one
// dimension, interleaving two halves back into a parent, box extraction,
// axis reductions and prefix sums) is implemented with stride arithmetic so
// that no per-element multi-index materialisation is required on hot paths.
package ndarray

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Array is a dense row-major n-dimensional array of float64.
// The zero value is not usable; construct arrays with New or NewFrom.
//
// An array holds p ≥ 1 planes of its logical shape, plane-major: one
// contiguous slice holds plane 0's cells, then plane 1's, and so on. A
// measure vector [Σv, Σv², Σ1] per cell is three planes. Every Haar operator
// is linear, so it acts on each plane alone, and the per-dimension kernels
// fold every plane with one loop nest: the plane boundaries fall between
// their outer slabs. Indexing (Offset, At, Set, Add) addresses plane 0.
type Array struct {
	shape   []int
	strides []int
	data    []float64
}

// ErrShape reports an invalid or mismatched shape.
var ErrShape = errors.New("ndarray: invalid shape")

// New returns a zero-filled one-plane array with the given shape.
// Every extent must be positive. New panics on an invalid shape because a
// bad shape is always a programming error, never a data error.
func New(shape ...int) *Array { return NewPlanes(1, shape...) }

// NewPlanes returns a zero-filled array of planes planes of the given shape.
func NewPlanes(planes int, shape ...int) *Array {
	n := checkPlanes(planes, shape)
	a := &Array{
		shape: append([]int(nil), shape...),
		data:  make([]float64, n),
	}
	a.strides = computeStrides(a.shape)
	return a
}

// NewFrom wraps data in an array of the given shape. The data slice is used
// directly (not copied); its length must equal the product of the extents.
func NewFrom(data []float64, shape ...int) (*Array, error) {
	n := checkShape(shape)
	if len(data) != n {
		return nil, fmt.Errorf("%w: data length %d does not match shape %v (want %d)", ErrShape, len(data), shape, n)
	}
	a := &Array{
		shape: append([]int(nil), shape...),
		data:  data,
	}
	a.strides = computeStrides(a.shape)
	return a, nil
}

// checkShape returns the cell count of shape, panicking on a bad one. The
// panics format a copy of shape, so a caller's stack shape buffer does not
// escape to the heap through them.
func checkShape(shape []int) int {
	if len(shape) == 0 {
		panic("ndarray: empty shape")
	}
	n := 1
	for _, s := range shape {
		if s <= 0 {
			panic(fmt.Sprintf("ndarray: non-positive extent in shape %v", append([]int(nil), shape...)))
		}
		if n > math.MaxInt/s {
			panic(fmt.Sprintf("ndarray: shape %v overflows int", append([]int(nil), shape...)))
		}
		n *= s
	}
	return n
}

// checkPlanes is checkShape for planes planes: the total scalar count.
func checkPlanes(planes int, shape []int) int {
	n := checkShape(shape)
	if planes <= 0 || n > math.MaxInt/planes {
		panic(fmt.Sprintf("ndarray: %d planes of shape %v", planes, append([]int(nil), shape...)))
	}
	return planes * n
}

func computeStrides(shape []int) []int {
	strides := make([]int, len(shape))
	acc := 1
	for m := len(shape) - 1; m >= 0; m-- {
		strides[m] = acc
		acc *= shape[m]
	}
	return strides
}

// Rank returns the number of dimensions.
func (a *Array) Rank() int { return len(a.shape) }

// Shape returns a copy of the extents.
func (a *Array) Shape() []int { return append([]int(nil), a.shape...) }

// ShapeInto writes a copy of the shape into dst (resliced to length zero)
// and returns it — the allocation-free form of Shape for hot paths that
// reuse a small caller-owned buffer.
func (a *Array) ShapeInto(dst []int) []int { return append(dst[:0], a.shape...) }

// Dim returns the extent of dimension m.
func (a *Array) Dim(m int) int { return a.shape[m] }

// Size returns the total number of scalars: cells times planes.
func (a *Array) Size() int { return len(a.data) }

// Cells returns the number of cells of one plane.
func (a *Array) Cells() int { return a.shape[0] * a.strides[0] }

// Planes returns the number of planes.
func (a *Array) Planes() int { return len(a.data) / a.Cells() }

// Plane returns plane p as a one-plane array sharing a's cells: writes
// through either show in both. A one-plane array is its own plane 0. Never
// Recycle the plane of a multi-plane array.
func (a *Array) Plane(p int) *Array {
	n := a.Cells()
	if p == 0 && len(a.data) == n {
		return a
	}
	return &Array{shape: a.shape, strides: a.strides, data: a.data[p*n : (p+1)*n : (p+1)*n]}
}

// Data returns the backing slice, every plane. Mutating it mutates the array.
func (a *Array) Data() []float64 { return a.data }

// Stride returns the row-major stride of dimension m.
func (a *Array) Stride(m int) int { return a.strides[m] }

// Offset converts a multi-index to a flat offset. It panics if the index has
// the wrong rank or is out of bounds.
func (a *Array) Offset(idx []int) int {
	if len(idx) != len(a.shape) {
		panic(fmt.Sprintf("ndarray: index rank %d does not match array rank %d", len(idx), len(a.shape)))
	}
	off := 0
	for m, i := range idx {
		if i < 0 || i >= a.shape[m] {
			panic(fmt.Sprintf("ndarray: index %v out of bounds for shape %v", idx, a.shape))
		}
		off += i * a.strides[m]
	}
	return off
}

// Index converts a flat offset to a fresh multi-index.
func (a *Array) Index(off int) []int {
	if off < 0 || off >= len(a.data) {
		panic(fmt.Sprintf("ndarray: offset %d out of range [0,%d)", off, len(a.data)))
	}
	idx := make([]int, len(a.shape))
	for m := range a.shape {
		idx[m] = off / a.strides[m]
		off %= a.strides[m]
	}
	return idx
}

// At returns the value at the multi-index.
func (a *Array) At(idx ...int) float64 { return a.data[a.Offset(idx)] }

// Set stores v at the multi-index.
func (a *Array) Set(v float64, idx ...int) { a.data[a.Offset(idx)] = v }

// Add accumulates v into the cell at the multi-index.
func (a *Array) Add(v float64, idx ...int) { a.data[a.Offset(idx)] += v }

// Fill sets every cell to v.
func (a *Array) Fill(v float64) {
	for i := range a.data {
		a.data[i] = v
	}
}

// Clone returns a deep copy.
func (a *Array) Clone() *Array {
	b := NewPlanes(a.Planes(), a.shape...)
	copy(b.data, a.data)
	return b
}

// Total returns the sum of all cells of every plane.
func (a *Array) Total() float64 {
	s := 0.0
	for _, v := range a.data {
		s += v
	}
	return s
}

// Scale multiplies every cell by v in place and returns the receiver.
func (a *Array) Scale(v float64) *Array {
	for i := range a.data {
		a.data[i] *= v
	}
	return a
}

// SameShape reports whether b has exactly the same shape and plane count as
// a.
func (a *Array) SameShape(b *Array) bool {
	if len(a.shape) != len(b.shape) || len(a.data) != len(b.data) {
		return false
	}
	for m := range a.shape {
		if a.shape[m] != b.shape[m] {
			return false
		}
	}
	return true
}

// Equal reports whether the arrays have the same shape and every pair of
// cells differs by at most tol in absolute value.
func (a *Array) Equal(b *Array, tol float64) bool {
	if !a.SameShape(b) {
		return false
	}
	for i := range a.data {
		if math.Abs(a.data[i]-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the largest absolute cell-wise difference between two
// same-shaped arrays. It panics on a shape mismatch.
func (a *Array) MaxAbsDiff(b *Array) float64 {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("ndarray: shape mismatch %v vs %v", a.shape, b.shape))
	}
	max := 0.0
	for i := range a.data {
		if d := math.Abs(a.data[i] - b.data[i]); d > max {
			max = d
		}
	}
	return max
}

// axisSpan decomposes the array around dimension m into
// outer × shape[m] × inner, where inner is the contiguous run length and
// outer the number of such slabs. Every strided per-dimension operation in
// this package is phrased over this decomposition.
func (a *Array) axisSpan(m int) (outer, n, inner int) {
	if m < 0 || m >= len(a.shape) {
		panic(fmt.Sprintf("ndarray: dimension %d out of range for rank %d", m, len(a.shape)))
	}
	n = a.shape[m]
	inner = a.strides[m]
	outer = len(a.data) / (n * inner)
	return outer, n, inner
}

// halvedDst allocates the output array for a pairwise fold along dimension
// m, erroring when the extent is odd.
func (a *Array) halvedDst(m int) (*Array, error) {
	_, n, _ := a.axisSpan(m)
	if n%2 != 0 {
		return nil, fmt.Errorf("%w: dimension %d has odd extent %d", ErrShape, m, n)
	}
	outShape := a.Shape()
	outShape[m] = n / 2
	return NewPlanes(a.Planes(), outShape...), nil
}

// PairFold applies op to each pair of neighbouring slices (2i, 2i+1) along
// dimension m and returns a new array whose extent in dimension m is halved.
// The extent of dimension m must be even. PairFold is the engine behind the
// Haar partial (op = a+b) and residual (op = a−b) aggregation operators;
// the loop nest itself lives in the Into kernels (kernels.go).
func (a *Array) PairFold(m int, op func(x, y float64) float64) (*Array, error) {
	out, err := a.halvedDst(m)
	if err != nil {
		return nil, err
	}
	if err := a.pairFoldInto(m, out, op); err != nil {
		return nil, err
	}
	return out, nil
}

// PairSum returns the Haar partial aggregation along dimension m:
// out[..., i, ...] = a[..., 2i, ...] + a[..., 2i+1, ...] (Eq. 1 of the paper).
// It allocates the result and delegates to PairSumInto.
func (a *Array) PairSum(m int) (*Array, error) {
	out, err := a.halvedDst(m)
	if err != nil {
		return nil, err
	}
	if err := a.PairSumInto(m, out); err != nil {
		return nil, err
	}
	return out, nil
}

// PairDiff returns the Haar residual aggregation along dimension m:
// out[..., i, ...] = a[..., 2i, ...] − a[..., 2i+1, ...] (Eq. 2 of the paper).
// It allocates the result and delegates to PairDiffInto.
func (a *Array) PairDiff(m int) (*Array, error) {
	out, err := a.halvedDst(m)
	if err != nil {
		return nil, err
	}
	if err := a.PairDiffInto(m, out); err != nil {
		return nil, err
	}
	return out, nil
}

// Interleave reconstructs a parent array from its partial (p) and residual
// (r) children along dimension m, inverting PairSum/PairDiff via the perfect
// reconstruction identities (Eq. 3–4 of the paper):
//
//	parent[..., 2i,   ...] = (p + r) / 2
//	parent[..., 2i+1, ...] = (p − r) / 2
//
// p and r must have identical shapes.
func Interleave(m int, p, r *Array) (*Array, error) {
	if !p.SameShape(r) {
		return nil, fmt.Errorf("%w: partial shape %v does not match residual shape %v", ErrShape, p.shape, r.shape)
	}
	outer, n, inner := p.axisSpan(m)
	outShape := p.Shape()
	outShape[m] = 2 * n
	out := NewPlanes(p.Planes(), outShape...)
	ps, rs, dst := p.data, r.data, out.data
	for o := 0; o < outer; o++ {
		sBase := o * n * inner
		dBase := o * 2 * n * inner
		for i := 0; i < n; i++ {
			s := sBase + i*inner
			x := dBase + 2*i*inner
			y := x + inner
			for j := 0; j < inner; j++ {
				pv, rv := ps[s+j], rs[s+j]
				dst[x+j] = (pv + rv) / 2
				dst[y+j] = (pv - rv) / 2
			}
		}
	}
	return out, nil
}

// SumAxis totally aggregates dimension m in one pass, returning an array
// whose extent in dimension m is 1. It is the reference ("direct")
// aggregation used to verify the Haar cascade.
func (a *Array) SumAxis(m int) *Array {
	outer, n, inner := a.axisSpan(m)
	outShape := a.Shape()
	outShape[m] = 1
	out := NewPlanes(a.Planes(), outShape...)
	src, dst := a.data, out.data
	for o := 0; o < outer; o++ {
		sBase := o * n * inner
		dBase := o * inner
		for i := 0; i < n; i++ {
			s := sBase + i*inner
			for j := 0; j < inner; j++ {
				dst[dBase+j] += src[s+j]
			}
		}
	}
	return out
}

// PrefixSumAxis replaces the array contents, in place, with running sums
// along dimension m. Cascading it over every dimension yields the prefix-sum
// cube of Ho et al. used as a range-query baseline.
func (a *Array) PrefixSumAxis(m int) {
	outer, n, inner := a.axisSpan(m)
	d := a.data
	for o := 0; o < outer; o++ {
		base := o * n * inner
		for i := 1; i < n; i++ {
			prev := base + (i-1)*inner
			cur := base + i*inner
			for j := 0; j < inner; j++ {
				d[cur+j] += d[prev+j]
			}
		}
	}
}

// SubArray copies the axis-aligned box [lo, lo+ext) of every plane into a
// new array of shape ext. It implements the range-extraction operator G of
// §6.
func (a *Array) SubArray(lo, ext []int) (*Array, error) {
	if len(lo) != len(a.shape) || len(ext) != len(a.shape) {
		return nil, fmt.Errorf("%w: box rank does not match array rank %d", ErrShape, len(a.shape))
	}
	for m := range ext {
		if ext[m] <= 0 {
			return nil, fmt.Errorf("%w: box lo=%v ext=%v outside shape %v", ErrShape, lo, ext, a.shape)
		}
	}
	out := NewPlanes(a.Planes(), ext...)
	if err := a.SubArrayInto(lo, ext, out); err != nil {
		return nil, err
	}
	return out, nil
}

// BoxSum returns the sum of the cells in the axis-aligned box [lo, lo+ext).
// It is the direct-scan reference for range-aggregation queries.
func (a *Array) BoxSum(lo, ext []int) (float64, error) {
	for m := range lo {
		if lo[m] < 0 || ext[m] <= 0 || lo[m]+ext[m] > a.shape[m] {
			return 0, fmt.Errorf("%w: box lo=%v ext=%v outside shape %v", ErrShape, lo, ext, a.shape)
		}
	}
	sum := 0.0
	idx := make([]int, len(ext))
	total := 1
	for _, e := range ext {
		total *= e
	}
	for c := 0; c < total; c++ {
		src := 0
		for m := range idx {
			src += (lo[m] + idx[m]) * a.strides[m]
		}
		sum += a.data[src]
		incIndex(idx, ext)
	}
	return sum, nil
}

// incIndex advances idx through the row-major order of shape, wrapping to
// all zeros after the last index.
func incIndex(idx, shape []int) {
	for m := len(idx) - 1; m >= 0; m-- {
		idx[m]++
		if idx[m] < shape[m] {
			return
		}
		idx[m] = 0
	}
}

// Each calls fn for every cell with its multi-index and value, in row-major
// order. The index slice is reused between calls; fn must not retain it.
func (a *Array) Each(fn func(idx []int, v float64)) {
	idx := make([]int, len(a.shape))
	for off := range a.data {
		fn(idx, a.data[off])
		incIndex(idx, a.shape)
	}
}

// Map replaces every cell with fn(cell) in place and returns the receiver.
func (a *Array) Map(fn func(v float64) float64) *Array {
	for i, v := range a.data {
		a.data[i] = fn(v)
	}
	return a
}

// String renders small arrays for debugging; large arrays are summarised.
func (a *Array) String() string {
	const limit = 64
	var b strings.Builder
	fmt.Fprintf(&b, "ndarray%v", a.shape)
	if len(a.data) > limit {
		fmt.Fprintf(&b, "{%d cells, total=%g}", len(a.data), a.Total())
		return b.String()
	}
	b.WriteString("{")
	for i, v := range a.data {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%g", v)
	}
	b.WriteString("}")
	return b.String()
}
