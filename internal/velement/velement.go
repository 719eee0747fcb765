// Package velement models the view element graph of §4 of Smith et al.
// (PODS 1998) for a concrete data-cube shape.
//
// A Space binds the abstract frequency-plane geometry of package freq to a
// cube whose dimension m has extent n_m = 2^k_m: it knows each dimension's
// maximum decomposition depth, the data-cell volume of every element, the
// classification of elements into aggregated views / intermediate /
// residual (Definitions 1–4), the closed-form element counts of Eq. 17–20
// (Table 1), and a mixed-radix linearisation of the graph.
package velement

import (
	"fmt"
	"math/bits"

	"viewcube/internal/freq"
)

// Space is the view element graph geometry for one cube shape. It is
// immutable and safe for concurrent use.
type Space struct {
	shape  []int // n_m, each a power of two
	depths []int // k_m = log2 n_m
	nodes  []int // per-dimension frequency-tree node count, 2·n_m − 1
	volume int   // Π n_m, the cube's cell count
	total  int   // N_ve = Π (2·n_m − 1), may be large but fits int here
}

// MaxExtent bounds a dimension (and freq.MaxRank the rank) of the cubes a
// Space can model: freq.Key, which identifies elements in every store, cache
// and memo, packs freq.MaxRank nodes of 16 bits, and a dimension of extent n
// has nodes up to 2n−1.
const MaxExtent = 1 << 15

// NewSpace returns the view element space for a cube with the given shape.
// Every extent must be a power of two (the paper's standing assumption
// n_m = 2^k_m) no larger than MaxExtent, and the rank at most freq.MaxRank.
func NewSpace(shape []int) (*Space, error) {
	if len(shape) == 0 {
		return nil, fmt.Errorf("velement: empty shape")
	}
	if len(shape) > freq.MaxRank {
		return nil, fmt.Errorf("velement: %d dimensions exceed the supported maximum of %d", len(shape), freq.MaxRank)
	}
	s := &Space{
		shape:  append([]int(nil), shape...),
		depths: make([]int, len(shape)),
		nodes:  make([]int, len(shape)),
		volume: 1,
		total:  1,
	}
	for m, n := range shape {
		if n <= 0 || n&(n-1) != 0 {
			return nil, fmt.Errorf("velement: dimension %d extent %d is not a power of two", m, n)
		}
		if n > MaxExtent {
			return nil, fmt.Errorf("velement: dimension %d extent %d exceeds the supported maximum of %d", m, n, MaxExtent)
		}
		s.depths[m] = bits.Len(uint(n)) - 1
		s.nodes[m] = 2*n - 1
		s.volume *= n
		s.total *= s.nodes[m]
	}
	return s, nil
}

// MustSpace is NewSpace for shapes known to be valid at compile time.
func MustSpace(shape ...int) *Space {
	s, err := NewSpace(shape)
	if err != nil {
		panic(err)
	}
	return s
}

// Rank returns the cube dimensionality d.
func (s *Space) Rank() int { return len(s.shape) }

// Shape returns a copy of the cube extents.
func (s *Space) Shape() []int { return append([]int(nil), s.shape...) }

// Dim returns the extent n_m of dimension m.
func (s *Space) Dim(m int) int { return s.shape[m] }

// MaxDepth returns k_m = log2 n_m, the depth at which dimension m's
// frequency intervals reach single cells.
func (s *Space) MaxDepth(m int) int { return s.depths[m] }

// MaxDepths returns a copy of all per-dimension maximum depths.
func (s *Space) MaxDepths() []int { return append([]int(nil), s.depths...) }

// CubeVolume returns the cube's cell count Vol(A) = Π n_m.
func (s *Space) CubeVolume() int { return s.volume }

// Root returns the rectangle of the undecomposed data cube A.
func (s *Space) Root() freq.Rect { return freq.NewRect(len(s.shape)) }

// Valid reports whether r identifies a view element of this space: correct
// rank and every per-dimension node within that dimension's depth bound.
func (s *Space) Valid(r freq.Rect) bool {
	if len(r) != len(s.shape) {
		return false
	}
	for m, n := range r {
		if n == 0 || n.Depth() > s.depths[m] {
			return false
		}
	}
	return true
}

// Volume returns the data-cell volume of the view element: Π n_m / 2^depth.
// Each partial or residual stage halves the extent of its dimension
// (non-expansiveness, Eq. 12).
func (s *Space) Volume(r freq.Rect) int {
	v := 1
	for m, n := range r {
		v *= s.shape[m] >> n.Depth()
	}
	return v
}

// ElementShape returns the array shape of the materialised view element.
func (s *Space) ElementShape(r freq.Rect) []int {
	out := make([]int, len(r))
	for m, n := range r {
		out[m] = s.shape[m] >> n.Depth()
	}
	return out
}

// CanSplit reports whether the element can be decomposed further along
// dimension m (its interval has not yet reached single-cell depth).
func (s *Space) CanSplit(r freq.Rect, m int) bool {
	return r[m].Depth() < s.depths[m]
}

// Children returns the partial and residual children of r along dimension
// m, and ok=false if the element cannot be split on m.
func (s *Space) Children(r freq.Rect, m int) (p, res freq.Rect, ok bool) {
	if !s.CanSplit(r, m) {
		return nil, nil, false
	}
	return r.Child(m, false), r.Child(m, true), true
}

// IsAggregatedView reports whether the element is one of the 2^d classical
// aggregated views (Definition 1): per dimension either no aggregation
// (root interval) or total aggregation (the all-partial leaf).
func (s *Space) IsAggregatedView(r freq.Rect) bool {
	for m, n := range r {
		if n != freq.Root && n != freq.Node(s.shape[m]) {
			return false
		}
	}
	return true
}

// IsIntermediate reports whether the element is an intermediate view
// element (Definition 4): produced by partial aggregations only, i.e.
// every per-dimension node lies on the all-partial path.
func (s *Space) IsIntermediate(r freq.Rect) bool {
	for _, n := range r {
		if !n.OnPartialPath() {
			return false
		}
	}
	return true
}

// IsResidual reports whether the element is a residual view element
// (Definition 3): some stage of its generation used a residual aggregation.
func (s *Space) IsResidual(r freq.Rect) bool { return !s.IsIntermediate(r) }

// Counts holds the closed-form view element graph sizes of Eq. 17–20.
type Counts struct {
	Elements     int // N_ve = Π (2·n_m − 1), Eq. 17
	Aggregated   int // N_av = 2^d, Eq. 18
	Intermediate int // N_iv = Π (log2 n_m + 1), Eq. 19
	Residual     int // N_rv = N_ve − N_iv, Eq. 20
	Blocks       int // N_b = Π (log2 n_m + 1), §4.1 (equal to N_iv)
}

// Count returns the element counts for this space (reproduces Table 1).
func (s *Space) Count() Counts {
	c := Counts{Elements: s.total, Aggregated: 1 << len(s.shape), Intermediate: 1, Blocks: 1}
	for _, k := range s.depths {
		c.Intermediate *= k + 1
		c.Blocks *= k + 1
	}
	c.Residual = c.Elements - c.Intermediate
	return c
}

// NumElements returns N_ve for this space.
func (s *Space) NumElements() int { return s.total }

// LinearIndex maps a view element to a unique integer in [0, NumElements())
// via mixed-radix positional encoding of its per-dimension node indices
// (923,521 values for the paper's Experiment 1 cube).
func (s *Space) LinearIndex(r freq.Rect) int {
	idx := 0
	for m, n := range r {
		idx = idx*s.nodes[m] + int(n) - 1
	}
	return idx
}

// FromLinear inverts LinearIndex.
func (s *Space) FromLinear(idx int) freq.Rect {
	r := make(freq.Rect, len(s.shape))
	for m := len(s.shape) - 1; m >= 0; m-- {
		r[m] = freq.Node(idx%s.nodes[m] + 1)
		idx /= s.nodes[m]
	}
	return r
}

// Elements calls fn for every view element of the space in linear-index
// order, stopping early if fn returns false. The rectangle passed to fn is
// reused between calls; fn must clone it to retain it.
func (s *Space) Elements(fn func(r freq.Rect) bool) {
	r := make(freq.Rect, len(s.shape))
	for m := range r {
		r[m] = 1
	}
	for {
		if !fn(r) {
			return
		}
		// Mixed-radix increment over node values 1..nodes[m].
		m := len(r) - 1
		for ; m >= 0; m-- {
			if int(r[m]) < s.nodes[m] {
				r[m]++
				break
			}
			r[m] = 1
		}
		if m < 0 {
			return
		}
	}
}

// AggregatedViews returns all 2^d aggregated views, ordered by the bitmask
// of totally aggregated dimensions (bit m set ⇒ dimension m aggregated).
// Index 0 is the data cube itself; index 2^d−1 is the grand total.
func (s *Space) AggregatedViews() []freq.Rect {
	d := len(s.shape)
	out := make([]freq.Rect, 1<<d)
	for mask := 0; mask < 1<<d; mask++ {
		out[mask] = s.ViewForMask(uint(mask))
	}
	return out
}

// ViewForMask returns the aggregated view that totally aggregates exactly
// the dimensions whose bit is set in mask.
func (s *Space) ViewForMask(mask uint) freq.Rect {
	r := make(freq.Rect, len(s.shape))
	for m := range r {
		if mask&(1<<uint(m)) != 0 {
			r[m] = freq.Node(s.shape[m]) // all-partial leaf: total aggregation
		} else {
			r[m] = freq.Root
		}
	}
	return r
}

// SetVolume returns the summed data-cell volume of a set of elements. The
// relative storage cost of §7.2.2 is SetVolume / CubeVolume.
func (s *Space) SetVolume(set []freq.Rect) int {
	v := 0
	for _, r := range set {
		v += s.Volume(r)
	}
	return v
}

// ExtractBasis implements Procedure 2: starting from the root element,
// choose(r) either names a dimension to split (0 ≤ m < d, must be
// splittable) or returns −1 to terminate at r. The marked terminal
// elements form a non-redundant view element basis by construction.
// ExtractBasis panics if choose names an unsplittable dimension, since that
// is a defect in the chooser, not in the data.
func (s *Space) ExtractBasis(choose func(r freq.Rect) int) []freq.Rect {
	var out []freq.Rect
	var walk func(r freq.Rect)
	walk = func(r freq.Rect) {
		m := choose(r)
		if m < 0 {
			out = append(out, r)
			return
		}
		p, res, ok := s.Children(r, m)
		if !ok {
			panic(fmt.Sprintf("velement: chooser split unsplittable dimension %d of %v", m, r))
		}
		walk(p)
		walk(res)
	}
	walk(s.Root())
	return out
}
