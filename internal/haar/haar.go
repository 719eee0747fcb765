// Package haar implements the partial and residual aggregation operators of
// §3 of Smith et al. (PODS 1998): the multi-dimensional extension of the
// two-tap Haar filter bank.
//
// The first partial aggregation P₁ᵐ sums neighbouring pairs along dimension
// m and subsamples by two (Eq. 1); the residual R₁ᵐ takes differences
// (Eq. 2). The pair satisfies perfect reconstruction (Eq. 3–4),
// non-expansiveness (Eq. 13), distributivity (Eq. 7–8) and separability
// (Eq. 14). Cascading P₁ᵐ log2(n_m) times yields the total aggregation Sᵐ
// (Eq. 15); cascading over every dimension yields the grand total (Eq. 16).
//
// The package also maps frequency-tree nodes (package freq) to operator
// cascades: a node's root-to-node path spells exactly the P/R sequence that
// materialises the corresponding view element from the cube.
package haar

import (
	"fmt"
	"math/bits"

	"viewcube/internal/freq"
	"viewcube/internal/ndarray"
)

// Partial applies the first partial aggregation P₁ᵐ along dimension m.
func Partial(a *ndarray.Array, m int) (*ndarray.Array, error) {
	return a.PairSum(m)
}

// Residual applies the first residual aggregation R₁ᵐ along dimension m.
func Residual(a *ndarray.Array, m int) (*ndarray.Array, error) {
	return a.PairDiff(m)
}

// Reconstruct synthesises the parent of the partial child p and residual
// child r along dimension m via the perfect reconstruction identities.
func Reconstruct(m int, p, r *ndarray.Array) (*ndarray.Array, error) {
	return ndarray.Interleave(m, p, r)
}

// A Fold is one fused same-dimension cascade: K consecutive P/R stages on
// dimension Dim collapsed into a single ndarray.FoldK pass. Bit t−1 of
// Signs marks the t-th stage (in application order) as a residual; clear
// bits are partials.
type Fold struct {
	Dim   int
	K     int
	Signs uint
}

// NodeFold returns the fused cascade that applies the root-to-node path of
// the frequency-tree node along dimension m: stage t of the cascade is the
// t-th path step, a residual exactly when the corresponding path bit is 1.
func NodeFold(m int, node freq.Node) Fold {
	depth := node.Depth()
	var signs uint
	for t := 1; t <= depth; t++ {
		if node>>uint(depth-t)&1 == 1 {
			signs |= 1 << uint(t-1)
		}
	}
	return Fold{Dim: m, K: depth, Signs: signs}
}

// PathFolds returns the fused per-dimension cascades that carry the view
// element `from` down to its descendant `to` (the aggregation legs of
// Eq. 28), one Fold per dimension whose node deepens. `from` must contain
// `to`.
func PathFolds(from, to freq.Rect) ([]Fold, error) {
	if !from.Contains(to) {
		return nil, fmt.Errorf("haar: %v does not contain %v", from, to)
	}
	folds := make([]Fold, 0, len(from))
	for m := range from {
		rel := to[m].Depth() - from[m].Depth()
		if rel == 0 {
			continue
		}
		// The relative path is the low rel bits of to[m], read MSB first;
		// stage t therefore reads bit rel−t.
		var signs uint
		for t := 1; t <= rel; t++ {
			if to[m]>>uint(rel-t)&1 == 1 {
				signs |= 1 << uint(t-1)
			}
		}
		folds = append(folds, Fold{Dim: m, K: rel, Signs: signs})
	}
	return folds, nil
}

// ApplyFolds runs a sequence of fused cascades over a, ping-ponging through
// pooled scratch buffers: every intermediate is leased from ndarray.Scratch
// and recycled as soon as the next fold has consumed it. The result is a
// caller-owned array (itself pool-leased; the caller may Recycle it when
// done) — except when folds is empty, in which case a itself is returned.
// a is never recycled.
func ApplyFolds(a *ndarray.Array, folds []Fold) (*ndarray.Array, error) {
	cur := a
	for _, f := range folds {
		block := 1 << uint(f.K)
		if f.K < 0 || cur.Dim(f.Dim)%block != 0 {
			if cur != a {
				ndarray.Recycle(cur)
			}
			return nil, fmt.Errorf("haar: dimension %d extent %d is not divisible by 2^%d", f.Dim, cur.Dim(f.Dim), f.K)
		}
		outShape := cur.Shape()
		outShape[f.Dim] /= block
		dst, _ := ndarray.ScratchPlanes(cur.Planes(), outShape...)
		err := cur.FoldKInto(f.Dim, f.K, f.Signs, dst)
		if cur != a {
			ndarray.Recycle(cur)
		}
		if err != nil {
			ndarray.Recycle(dst)
			return nil, err
		}
		cur = dst
	}
	return cur, nil
}

// PartialK applies P₁ᵐ in cascade k times (the k-th partial aggregation
// Pₖᵐ, Eq. 8), fused into a single strided pass. The extent of dimension m
// must be divisible by 2^k. For k ≥ 1 the result is a caller-owned
// (pool-leased) array; k = 0 returns a itself.
func PartialK(a *ndarray.Array, m, k int) (*ndarray.Array, error) {
	if k == 0 {
		return a, nil
	}
	if k < 0 {
		return nil, fmt.Errorf("haar: PartialK requires k ≥ 0, got %d", k)
	}
	return ApplyFolds(a, []Fold{{Dim: m, K: k}})
}

// ResidualK applies Rₖᵐ = R₁ᵐ ∘ P₁ᵐ^(k−1): k−1 partial stages followed by
// one residual stage (Eq. 7), fused into a single strided pass. k must be
// at least 1. The result is a caller-owned (pool-leased) array.
func ResidualK(a *ndarray.Array, m, k int) (*ndarray.Array, error) {
	if k < 1 {
		return nil, fmt.Errorf("haar: ResidualK requires k ≥ 1, got %d", k)
	}
	return ApplyFolds(a, []Fold{{Dim: m, K: k, Signs: 1 << uint(k-1)}})
}

// TotalAxis totally aggregates dimension m by cascading P₁ᵐ log2(n_m)
// times (Eq. 15). The extent of dimension m must be a power of two.
func TotalAxis(a *ndarray.Array, m int) (*ndarray.Array, error) {
	n := a.Dim(m)
	if n&(n-1) != 0 {
		return nil, fmt.Errorf("haar: dimension %d extent %d is not a power of two", m, n)
	}
	return PartialK(a, m, bits.Len(uint(n))-1)
}

// Total totally aggregates every dimension in dims, in order (Eq. 16). The
// separability property guarantees the result is order-independent.
// Intermediates are recycled; the result is caller-owned unless no
// dimension needed aggregating, in which case it is a itself.
func Total(a *ndarray.Array, dims ...int) (*ndarray.Array, error) {
	cur := a
	for _, m := range dims {
		next, err := TotalAxis(cur, m)
		if err != nil {
			if cur != a {
				ndarray.Recycle(cur)
			}
			return nil, err
		}
		if next != cur && cur != a {
			ndarray.Recycle(cur)
		}
		cur = next
	}
	return cur, nil
}

// ApplyNode applies, along dimension m, the cascade of partial and residual
// aggregations spelled by the root-to-node path of the frequency-tree node:
// each 0 bit is a partial stage, each 1 bit a residual stage — fused into a
// single strided pass. The extent of dimension m must be divisible by
// 2^depth(node). The result is caller-owned (pool-leased) unless the path
// is empty, in which case it is a itself.
func ApplyNode(a *ndarray.Array, m int, node freq.Node) (*ndarray.Array, error) {
	if node == 0 {
		return nil, fmt.Errorf("haar: invalid zero node")
	}
	f := NodeFold(m, node)
	if f.K == 0 {
		return a, nil
	}
	out, err := ApplyFolds(a, []Fold{f})
	if err != nil {
		return nil, fmt.Errorf("haar: node %v cascade on dim %d: %w", node, m, err)
	}
	return out, nil
}

// ApplyRect materialises the view element identified by the frequency
// rectangle from the array, applying each dimension's fused cascade in turn
// (separability, Property 4, makes the order immaterial). Intermediates are
// recycled; the result is caller-owned unless every node is the root, in
// which case it is a itself.
func ApplyRect(a *ndarray.Array, r freq.Rect) (*ndarray.Array, error) {
	if len(r) != a.Rank() {
		return nil, fmt.Errorf("haar: rect rank %d does not match array rank %d", len(r), a.Rank())
	}
	folds := make([]Fold, 0, len(r))
	for m, node := range r {
		if node == 0 {
			return nil, fmt.Errorf("haar: invalid zero node on dim %d", m)
		}
		if f := NodeFold(m, node); f.K > 0 {
			folds = append(folds, f)
		}
	}
	return ApplyFolds(a, folds)
}

// ApplyPath applies the cascade that carries the view element `from` down
// to its descendant `to` (both frequency rectangles; `from` must contain
// `to`). It is the aggregation step Fₐ,ₗ of Eq. 28: the input array holds
// the element `from`, the output holds the element `to`. Each dimension's
// leg runs as one fused pass; intermediates are recycled. The result is
// caller-owned unless from equals to, in which case it is a itself.
func ApplyPath(a *ndarray.Array, from, to freq.Rect) (*ndarray.Array, error) {
	folds, err := PathFolds(from, to)
	if err != nil {
		return nil, err
	}
	out, err := ApplyFolds(a, folds)
	if err != nil {
		return nil, fmt.Errorf("haar: path %v→%v: %w", from, to, err)
	}
	return out, nil
}

// levels returns the block extents at each decomposition level: the full
// shape first, then each dimension with extent ≥ 2 halved per level, until
// every extent is 1. Every extent must be a power of two.
func levels(shape []int) [][]int {
	for m, n := range shape {
		if n <= 0 || n&(n-1) != 0 {
			panic(fmt.Sprintf("haar: dimension %d extent %d is not a power of two", m, n))
		}
	}
	var out [][]int
	ext := append([]int(nil), shape...)
	for {
		any := false
		for _, n := range ext {
			if n >= 2 {
				any = true
			}
		}
		if !any {
			return out
		}
		out = append(out, append([]int(nil), ext...))
		for m := range ext {
			if ext[m] >= 2 {
				ext[m] /= 2
			}
		}
	}
}

// Transform performs the full multi-dimensional Haar wavelet decomposition
// of a copy of the array: on every level it splits the current low-pass
// block jointly on all dimensions whose extent at that level is ≥ 2,
// storing partial sums in the lower half and residuals in the upper half of
// each dimension. The result is the standard packed subband layout whose
// coefficients are the wavelet-basis view elements of §4.3 (unnormalised:
// pure sums and differences, matching the paper's operators). Every extent
// must be a power of two; Transform panics otherwise. Use Inverse to undo.
func Transform(a *ndarray.Array) *ndarray.Array {
	out := a.Clone()
	buf, idx := axisScratch(a)
	for _, ext := range levels(a.Shape()) {
		// Axis passes on distinct dimensions commute (tensor-product
		// structure), so a fixed increasing order is fine.
		for m := range ext {
			if ext[m] >= 2 {
				haarAxisInPlace(out, m, ext, false, buf, idx)
			}
		}
	}
	recycleAxisScratch(buf)
	return out
}

// Inverse undoes Transform, returning a reconstructed copy.
func Inverse(a *ndarray.Array) *ndarray.Array {
	out := a.Clone()
	buf, idx := axisScratch(a)
	lv := levels(a.Shape())
	for li := len(lv) - 1; li >= 0; li-- {
		ext := lv[li]
		for m := range ext {
			if ext[m] >= 2 {
				haarAxisInPlace(out, m, ext, true, buf, idx)
			}
		}
	}
	recycleAxisScratch(buf)
	return out
}

// axisScratch leases the per-transform working state: one pooled line
// buffer sized to the largest extent (shared by every axis pass) and the
// line-start index vector. A nil buffer means no axis will ever need one.
func axisScratch(a *ndarray.Array) (buf *ndarray.Array, idx []int) {
	maxN := 0
	for _, n := range a.Shape() {
		if n > maxN {
			maxN = n
		}
	}
	if maxN >= 2 {
		buf, _ = ndarray.Scratch(maxN)
	}
	return buf, make([]int, a.Rank())
}

func recycleAxisScratch(buf *ndarray.Array) {
	if buf != nil {
		ndarray.Recycle(buf)
	}
}

// haarAxisInPlace performs one forward (inverse=false) or inverse
// (inverse=true) Haar split along dimension m of the leading ext-shaped
// block of a. Forward: low half ← pairwise sums, high half ← pairwise
// differences. Inverse: the perfect-reconstruction identities. lineBuf and
// lineIdx are caller-provided working state (see axisScratch), reused
// across axis passes; lineBuf must hold at least ext[m] cells.
func haarAxisInPlace(a *ndarray.Array, m int, ext []int, inverse bool, lineBuf *ndarray.Array, lineIdx []int) {
	n := ext[m]
	half := n / 2
	buf := lineBuf.Data()[:n]
	data := a.Data()
	stride := a.Stride(m)
	// Iterate over all line starts within the ext block.
	idx := lineIdx
	for q := range idx {
		idx[q] = 0
	}
	for {
		// Compute base offset of this line (idx[m] is forced to 0).
		base := 0
		for q := range idx {
			if q == m {
				continue
			}
			base += idx[q] * a.Stride(q)
		}
		if !inverse {
			for i := 0; i < half; i++ {
				x := data[base+2*i*stride]
				y := data[base+(2*i+1)*stride]
				buf[i] = x + y
				buf[half+i] = x - y
			}
		} else {
			for i := 0; i < half; i++ {
				p := data[base+i*stride]
				r := data[base+(half+i)*stride]
				buf[2*i] = (p + r) / 2
				buf[2*i+1] = (p - r) / 2
			}
		}
		for i := 0; i < n; i++ {
			data[base+i*stride] = buf[i]
		}
		// Advance idx through all dims except m, bounded by ext.
		q := a.Rank() - 1
		for ; q >= 0; q-- {
			if q == m {
				continue
			}
			idx[q]++
			if idx[q] < ext[q] {
				break
			}
			idx[q] = 0
		}
		if q < 0 {
			return
		}
	}
}
