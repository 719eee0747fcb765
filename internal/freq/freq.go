// Package freq implements the frequency-plane geometry of the view element
// framework (§4.2 of Smith et al., PODS 1998).
//
// Every view element of a data cube corresponds to a dyadic rectangle in the
// d-dimensional frequency plane: the product of one dyadic interval per
// dimension. Each dyadic interval is a node of a binary tree over the
// frequency axis of that dimension — the root covers [0,1); a node's
// partial-aggregation child covers its lower half and its
// residual-aggregation child covers its upper half (Eq. 21–23).
//
// Nodes are identified by their heap index: root = 1, the partial child of
// node v is 2v and the residual child is 2v+1. This numbering makes depth,
// containment and intersection pure integer bit operations, so the geometry
// is exact — no floating-point frequency coordinates are ever needed.
package freq

import (
	"fmt"
	"math/bits"
)

// Node is the heap index of a dyadic interval in one dimension's frequency
// tree. The zero value is invalid; Root (1) covers the whole axis [0,1).
// A node at depth k covers [offset/2^k, (offset+1)/2^k) where
// offset = node − 2^k.
type Node uint32

// Root is the whole-axis interval [0,1): the undecomposed dimension.
const Root Node = 1

// Depth returns the depth of the node in its frequency tree (root = 0).
// Each unit of depth corresponds to one application of the first partial or
// residual aggregation operator along that dimension.
func (v Node) Depth() int {
	if v == 0 {
		panic("freq: zero Node is invalid")
	}
	return bits.Len32(uint32(v)) - 1
}

// Partial returns the partial-aggregation child P₁ (lower frequency half).
func (v Node) Partial() Node { return 2 * v }

// Residual returns the residual-aggregation child R₁ (upper frequency half).
func (v Node) Residual() Node { return 2*v + 1 }

// Parent returns the parent interval; the root is its own parent.
func (v Node) Parent() Node {
	if v <= 1 {
		return Root
	}
	return v / 2
}

// IsResidualChild reports whether v is the residual (upper-half) child of
// its parent.
func (v Node) IsResidualChild() bool { return v > 1 && v&1 == 1 }

// OnPartialPath reports whether v lies on the all-partial path from the
// root, i.e. it was produced exclusively by partial aggregations. Elements
// whose every per-dimension node is on the partial path are the paper's
// intermediate view elements (Definition 4).
func (v Node) OnPartialPath() bool {
	return v != 0 && v&(v-1) == 0 // exactly the powers of two: 1, 2, 4, ...
}

// Interval returns the dyadic interval covered by v as the exact rational
// [num/den, (num+1)/den) with den = 2^Depth.
func (v Node) Interval() (num, den uint32) {
	k := v.Depth()
	den = 1 << k
	num = uint32(v) - den
	return num, den
}

// Contains reports whether interval v contains (or equals) interval w.
// In the heap numbering, v is an ancestor-or-equal of w exactly when
// truncating w to v's depth yields v.
func (v Node) Contains(w Node) bool {
	dv, dw := v.Depth(), w.Depth()
	if dv > dw {
		return false
	}
	return w>>(dw-dv) == v
}

// Nested reports whether one of the intervals contains the other, and if so
// returns the deeper (smaller) of the two. Dyadic intervals are either
// nested or disjoint — there is no partial overlap — which is why the
// intersection of two view elements is always itself a view element (their
// largest common descendant, Eq. 26).
func Nested(v, w Node) (deeper Node, ok bool) {
	switch {
	case v.Contains(w):
		return w, true
	case w.Contains(v):
		return v, true
	default:
		return 0, false
	}
}

// Disjoint reports whether the two intervals do not overlap.
func Disjoint(v, w Node) bool {
	_, ok := Nested(v, w)
	return !ok
}

// Width returns the frequency-axis width 2^-Depth of the interval.
func (v Node) Width() float64 { return 1 / float64(uint32(1)<<v.Depth()) }

// String renders the node as its interval, e.g. "5=[1/4,2/4)".
func (v Node) String() string {
	if v == 0 {
		return "invalid"
	}
	num, den := v.Interval()
	return fmt.Sprintf("%d=[%d/%d,%d/%d)", uint32(v), num, den, num+1, den)
}

// Rect is a dyadic rectangle in the d-dimensional frequency plane: one
// dyadic interval per dimension. A Rect is the frequency-plane shadow of a
// view element; its per-dimension depths record how many partial/residual
// aggregation stages produced the element.
type Rect []Node

// NewRect returns the root rectangle (the whole frequency plane — the data
// cube itself) for a d-dimensional cube.
func NewRect(d int) Rect {
	r := make(Rect, d)
	for m := range r {
		r[m] = Root
	}
	return r
}

// Clone returns a copy of the rectangle.
func (r Rect) Clone() Rect { return append(Rect(nil), r...) }

// Equal reports whether the rectangles are identical.
func (r Rect) Equal(s Rect) bool {
	if len(r) != len(s) {
		return false
	}
	for m := range r {
		if r[m] != s[m] {
			return false
		}
	}
	return true
}

// Child returns a copy of r with dimension m replaced by its partial
// (residual=false) or residual (residual=true) child.
func (r Rect) Child(m int, residual bool) Rect {
	c := r.Clone()
	if residual {
		c[m] = r[m].Residual()
	} else {
		c[m] = r[m].Partial()
	}
	return c
}

// Contains reports whether r contains (or equals) s in every dimension.
// A view element can be produced from another by a pure aggregation cascade
// exactly when its rectangle is contained this way (the paper's one-way
// "descendant" relation generalised to all dimensions at once).
func (r Rect) Contains(s Rect) bool {
	if len(r) != len(s) {
		return false
	}
	for m := range r {
		if !r[m].Contains(s[m]) {
			return false
		}
	}
	return true
}

// Intersect returns the intersection rectangle of r and s and whether it is
// non-empty (Eq. 24). Because dyadic intervals are nested-or-disjoint, the
// intersection is exact: per dimension it is the deeper of the two
// intervals.
func (r Rect) Intersect(s Rect) (Rect, bool) {
	if len(r) != len(s) {
		panic(fmt.Sprintf("freq: rank mismatch %d vs %d", len(r), len(s)))
	}
	out := make(Rect, len(r))
	for m := range r {
		deeper, ok := Nested(r[m], s[m])
		if !ok {
			return nil, false
		}
		out[m] = deeper
	}
	return out, true
}

// Overlaps reports whether the rectangles intersect: nested in every
// dimension. It allocates nothing — the selection and planning kernels call
// it once per stored element per top-level target.
func (r Rect) Overlaps(s Rect) bool {
	if len(r) != len(s) {
		panic(fmt.Sprintf("freq: rank mismatch %d vs %d", len(r), len(s)))
	}
	for m := range r {
		if Disjoint(r[m], s[m]) {
			return false
		}
	}
	return true
}

// FreqVolume returns the exact frequency-plane volume Π 2^-depth_m of the
// rectangle. It is a (negative) power of two, hence exact in float64.
func (r Rect) FreqVolume() float64 {
	v := 1.0
	for _, n := range r {
		v *= n.Width()
	}
	return v
}

// TotalDepth returns the sum of per-dimension depths: the number of
// aggregation stages separating the element from the data cube.
func (r Rect) TotalDepth() int {
	d := 0
	for _, n := range r {
		d += n.Depth()
	}
	return d
}

// String renders the rectangle as a product of intervals.
func (r Rect) String() string {
	s := ""
	for m, n := range r {
		if m > 0 {
			s += "×"
		}
		s += n.String()
	}
	return s
}

// Key returns a compact comparable key for use in maps. It supports
// rectangles of rank ≤ 8 with per-dimension node indices < 2^16, which
// covers every cube in this reproduction (Table 1 tops out at d=8, n=256,
// i.e. nodes < 512). Key panics outside that envelope.
func (r Rect) Key() Key {
	if len(r) > MaxRank {
		panic("freq: Key supports rank ≤ 8")
	}
	var k Key
	k.rank = uint8(len(r))
	for m, n := range r {
		if n >= 1<<16 {
			panic("freq: Key supports node indices < 2^16")
		}
		k.nodes[m] = uint16(n)
	}
	return k
}

// MaxRank is the largest rectangle rank a Key can identify.
const MaxRank = 8

// Key is a comparable, allocation-free identifier for a Rect.
type Key struct {
	nodes [MaxRank]uint16
	rank  uint8
}

// Rect reconstructs the rectangle identified by the key.
func (k Key) Rect() Rect {
	r := make(Rect, k.rank)
	for m := range r {
		r[m] = Node(k.nodes[m])
	}
	return r
}
