// Package rangeagg implements the range-aggregation queries of §6 of Smith
// et al. (PODS 1998).
//
// A range is an embedded sub-cube G(A) = A[x0:w0, …] (Eq. 35) and the
// range-aggregation is the SUM over it (Eq. 36). Because range extraction
// commutes with partial aggregation for 2^k-aligned ranges (Eq. 37–40),
// any range decomposes per dimension into O(log n) maximal aligned dyadic
// blocks, and the sum over each product of blocks is a single cell of an
// intermediate view element (the Gaussian pyramid of §4.3). A range-SUM
// therefore touches Π_m O(log n_m) cells instead of the Π_m w_m cells a
// direct scan reads.
//
// The package provides the dyadic decomposition, a Querier that answers
// range sums from any source of view elements, and two baselines: direct
// scan and the prefix-sum cube of Ho et al. [9].
package rangeagg

import (
	"fmt"
	"math/bits"

	"viewcube/internal/freq"
	"viewcube/internal/ndarray"
	"viewcube/internal/velement"
)

// Box is an axis-aligned range: the half-open box [Lo, Lo+Ext) in data
// coordinates (the position X and size W of Eq. 35).
type Box struct {
	Lo  []int
	Ext []int
}

// Validate checks the box against a cube shape.
func (b Box) Validate(shape []int) error {
	if len(b.Lo) != len(shape) || len(b.Ext) != len(shape) {
		return fmt.Errorf("rangeagg: box rank does not match cube rank %d", len(shape))
	}
	for m := range shape {
		if b.Lo[m] < 0 || b.Ext[m] <= 0 || b.Lo[m]+b.Ext[m] > shape[m] {
			return fmt.Errorf("rangeagg: box lo=%v ext=%v outside shape %v", b.Lo, b.Ext, shape)
		}
	}
	return nil
}

// Cells returns the number of cells the box covers.
func (b Box) Cells() int {
	n := 1
	for _, e := range b.Ext {
		n *= e
	}
	return n
}

// Block is one maximal aligned dyadic block [Start, Start+2^Level) on a
// single dimension: Start is a multiple of 2^Level. It is the unit of the
// §6 range decomposition (one cell of an intermediate view element).
type Block struct {
	Start int
	Level int
}

// Size returns the block length 2^Level.
func (b Block) Size() int { return 1 << b.Level }

// DyadicBlocks decomposes the 1-D interval [lo, lo+ext) into the canonical
// minimal sequence of maximal aligned dyadic blocks. For an interval inside
// a domain of size n it produces at most 2·log2(n) blocks.
func DyadicBlocks(lo, ext int) []Block {
	if ext <= 0 || lo < 0 {
		return nil
	}
	var out []Block
	cur, end := lo, lo+ext
	for cur < end {
		// Largest power of two that both aligns with cur and fits.
		k := bits.TrailingZeros(uint(cur))
		if cur == 0 {
			k = bits.Len(uint(end)) // unconstrained by alignment
		}
		for (1 << k) > end-cur {
			k--
		}
		out = append(out, Block{Start: cur, Level: k})
		cur += 1 << k
	}
	return out
}

// Leg is the range decomposition of one dimension: either the dyadic block
// list of a filtered dimension, or a whole-axis read of a kept (grouped)
// dimension.
type Leg struct {
	Dim    int
	Keep   bool    // kept dimension: read whole slabs, never decomposed
	Blocks []Block // dyadic blocks (one placeholder block when Keep)
}

// DecomposeBox splits a box into per-dimension legs. keep may be nil (no
// grouped dimensions). Kept dimensions get one placeholder block; the
// querier reads whole slabs along them.
func DecomposeBox(lo, ext []int, keep []bool) []Leg {
	legs := make([]Leg, len(lo))
	for m := range lo {
		if keep != nil && keep[m] {
			legs[m] = Leg{Dim: m, Keep: true, Blocks: []Block{{Start: 0, Level: 0}}}
			continue
		}
		legs[m] = Leg{Dim: m, Blocks: DyadicBlocks(lo[m], ext[m])}
	}
	return legs
}

// ElementSource supplies materialised view elements. Both
// assembly.Materializer (compute from the cube) and an adapter around
// assembly.Engine (assemble from a store) satisfy it.
type ElementSource interface {
	Element(r freq.Rect) (*ndarray.Array, error)
}

// Querier answers range-SUM queries from the intermediate view elements of
// one-plane cubes, caching each element it touches. It is the §6
// reproduction, not a serving path, and is not safe for concurrent use.
type Querier struct {
	space *velement.Space
	src   ElementSource
	cache map[freq.Key]*ndarray.Array

	// CellsRead counts element cells read across all queries — the
	// operational cost that §6 argues is logarithmic per dimension.
	CellsRead int
}

// NewQuerier returns a range querier over the space, fetching intermediate
// elements from src on demand.
func NewQuerier(space *velement.Space, src ElementSource) *Querier {
	return &Querier{space: space, src: src, cache: make(map[freq.Key]*ndarray.Array)}
}

// element returns the intermediate view element whose per-dimension
// all-partial depth is levels[m] (the Gaussian-pyramid member P_k).
func (q *Querier) element(depths []int) (*ndarray.Array, error) {
	r := make(freq.Rect, len(depths))
	for m, k := range depths {
		r[m] = freq.Node(1 << uint(k))
	}
	if a, ok := q.cache[r.Key()]; ok {
		return a, nil
	}
	a, err := q.src.Element(r)
	if err != nil {
		return nil, err
	}
	q.cache[r.Key()] = a
	return a, nil
}

// RangeSum computes the SUM over the box via the dyadic decomposition: one
// element-cell read per product of per-dimension blocks.
func (q *Querier) RangeSum(box Box) (float64, error) {
	shape := q.space.Shape()
	if err := box.Validate(shape); err != nil {
		return 0, err
	}
	d := len(shape)
	// One leg of dyadic blocks per dimension (§6 decomposition).
	legs := DecomposeBox(box.Lo, box.Ext, nil)
	// Iterate over the cartesian product of per-dimension blocks. The
	// element is chosen by the block levels; the cell by the block starts.
	idx := make([]int, d)
	depths := make([]int, d)
	cell := make([]int, d)
	sum := 0.0
	for {
		for m := 0; m < d; m++ {
			b := legs[m].Blocks[idx[m]]
			// P_k sums aligned runs of 2^k cells, so a block of size
			// 2^Level is one cell — at index Start >> Level — of the
			// intermediate element at partial-path depth Level.
			depths[m] = b.Level
			cell[m] = b.Start >> uint(b.Level)
		}
		el, err := q.element(depths)
		if err != nil {
			return 0, err
		}
		sum += el.At(cell...)
		q.CellsRead++
		// Advance the product iterator.
		m := d - 1
		for ; m >= 0; m-- {
			idx[m]++
			if idx[m] < len(legs[m].Blocks) {
				break
			}
			idx[m] = 0
		}
		if m < 0 {
			return sum, nil
		}
	}
}

// BlocksTouched returns the number of element cells a box's decomposition
// reads: Π_m #blocks(m). It is the §6 cost estimate.
func BlocksTouched(box Box) int {
	n := 1
	for m := range box.Lo {
		n *= len(DyadicBlocks(box.Lo[m], box.Ext[m]))
	}
	return n
}

// DirectScan answers the range sum by scanning the cube — the baseline the
// paper's intermediate-element method is compared against.
func DirectScan(cube *ndarray.Array, box Box) (float64, error) {
	return cube.BoxSum(box.Lo, box.Ext)
}

// PrefixCube is the prefix-sum cube of Ho et al. [9]: after one O(Vol(A))
// preprocessing pass, any range sum is an alternating-sign combination of
// 2^d corner cells.
type PrefixCube struct {
	ps *ndarray.Array
}

// NewPrefixCube builds the prefix-sum cube from the data cube.
func NewPrefixCube(cube *ndarray.Array) *PrefixCube {
	ps := cube.Clone()
	for m := 0; m < ps.Rank(); m++ {
		ps.PrefixSumAxis(m)
	}
	return &PrefixCube{ps: ps}
}

// RangeSum answers the range sum from 2^d corner lookups by
// inclusion–exclusion.
func (p *PrefixCube) RangeSum(box Box) (float64, error) {
	if err := box.Validate(p.ps.Shape()); err != nil {
		return 0, err
	}
	d := p.ps.Rank()
	idx := make([]int, d)
	sum := 0.0
	for mask := 0; mask < 1<<uint(d); mask++ {
		sign := 1.0
		skip := false
		for m := 0; m < d; m++ {
			if mask&(1<<uint(m)) != 0 {
				// Low corner: index lo−1; a −1 index means the term is zero.
				if box.Lo[m] == 0 {
					skip = true
					break
				}
				idx[m] = box.Lo[m] - 1
				sign = -sign
			} else {
				idx[m] = box.Lo[m] + box.Ext[m] - 1
			}
		}
		if skip {
			continue
		}
		sum += sign * p.ps.At(idx...)
	}
	return sum, nil
}
