package ndarray

import (
	"fmt"
	"math"
	"math/bits"
)

// This file holds the destination-passing ("Into") variants of the pairwise
// Haar kernels plus the fused multi-stage kernel FoldK. The allocating
// entry points in ndarray.go (PairSum, PairDiff, PairFold, Interleave) are
// thin wrappers over these: allocate the output, then run the Into kernel.
// Destination passing is what lets the execution layer (package assembly)
// run entire plan trees out of a recycled scratch-buffer pool, allocating
// only the final result.
//
// Every Into kernel fully overwrites dst, so destinations leased from the
// scratch pool (Scratch) need no zeroing.

// checkFoldDst verifies that dst can hold the result of folding dimension m
// of a by 2^k, and returns the axis decomposition of a.
func (a *Array) checkFoldDst(m, k int, dst *Array) (outer, n, inner int, err error) {
	outer, n, inner = a.axisSpan(m)
	block := 1 << uint(k)
	if k < 0 || n%block != 0 {
		return 0, 0, 0, fmt.Errorf("%w: dimension %d extent %d is not divisible by 2^%d", ErrShape, m, n, k)
	}
	if dst == a {
		return 0, 0, 0, fmt.Errorf("%w: fold destination must not alias the source", ErrShape)
	}
	// A Coo's header holds no cells and stands for one plane.
	if planes := max(a.Planes(), 1); dst.Planes() != planes {
		return 0, 0, 0, fmt.Errorf("%w: destination has %d planes, source %d", ErrShape, dst.Planes(), planes)
	}
	if len(dst.shape) != len(a.shape) {
		return 0, 0, 0, fmt.Errorf("%w: destination rank %d does not match source rank %d", ErrShape, len(dst.shape), len(a.shape))
	}
	for q := range a.shape {
		want := a.shape[q]
		if q == m {
			want = n / block
		}
		if dst.shape[q] != want {
			return 0, 0, 0, fmt.Errorf("%w: destination shape %v cannot hold dim-%d fold by 2^%d of %v", ErrShape, dst.shape, m, k, a.shape)
		}
	}
	return outer, n, inner, nil
}

// PairSumInto writes the Haar partial aggregation along dimension m into
// dst: dst[..., i, ...] = a[..., 2i, ...] + a[..., 2i+1, ...] (Eq. 1).
// dst must have a's shape with dimension m halved and must not alias a.
// dst is fully overwritten. The loop is kept branch-free: it is the
// innermost operator of every cascade.
func (a *Array) PairSumInto(m int, dst *Array) error {
	outer, n, inner, err := a.checkFoldDst(m, 1, dst)
	if err != nil {
		return err
	}
	src, out := a.data, dst.data
	for o := 0; o < outer; o++ {
		sBase := o * n * inner
		dBase := o * (n / 2) * inner
		for i := 0; i < n/2; i++ {
			x := sBase + 2*i*inner
			y := x + inner
			d := dBase + i*inner
			for j := 0; j < inner; j++ {
				out[d+j] = src[x+j] + src[y+j]
			}
		}
	}
	return nil
}

// PairDiffInto writes the Haar residual aggregation along dimension m into
// dst: dst[..., i, ...] = a[..., 2i, ...] − a[..., 2i+1, ...] (Eq. 2).
// Same shape contract as PairSumInto; dst is fully overwritten.
func (a *Array) PairDiffInto(m int, dst *Array) error {
	outer, n, inner, err := a.checkFoldDst(m, 1, dst)
	if err != nil {
		return err
	}
	src, out := a.data, dst.data
	for o := 0; o < outer; o++ {
		sBase := o * n * inner
		dBase := o * (n / 2) * inner
		for i := 0; i < n/2; i++ {
			x := sBase + 2*i*inner
			y := x + inner
			d := dBase + i*inner
			for j := 0; j < inner; j++ {
				out[d+j] = src[x+j] - src[y+j]
			}
		}
	}
	return nil
}

// pairFoldInto is the generic pairwise fold behind PairFold: one loop nest
// shared by every op. The specialised sum/diff kernels above keep their own
// branch-free bodies because the closure call dominates on the hot path.
func (a *Array) pairFoldInto(m int, dst *Array, op func(x, y float64) float64) error {
	outer, n, inner, err := a.checkFoldDst(m, 1, dst)
	if err != nil {
		return err
	}
	src, out := a.data, dst.data
	for o := 0; o < outer; o++ {
		sBase := o * n * inner
		dBase := o * (n / 2) * inner
		for i := 0; i < n/2; i++ {
			x := sBase + 2*i*inner
			y := x + inner
			d := dBase + i*inner
			for j := 0; j < inner; j++ {
				out[d+j] = op(src[x+j], src[y+j])
			}
		}
	}
	return nil
}

// InterleaveInto reconstructs a parent from its partial (p) and residual
// (r) children along dimension m, writing into dst (the perfect
// reconstruction identities, Eq. 3–4). p and r must have identical shapes;
// dst must have their shape with dimension m doubled and must alias neither
// child. dst is fully overwritten.
func InterleaveInto(m int, p, r, dst *Array) error {
	if !p.SameShape(r) {
		return fmt.Errorf("%w: partial shape %v × %d planes does not match residual shape %v × %d", ErrShape, p.shape, p.Planes(), r.shape, r.Planes())
	}
	if dst == p || dst == r {
		return fmt.Errorf("%w: interleave destination must not alias a child", ErrShape)
	}
	if dst.Planes() != p.Planes() {
		return fmt.Errorf("%w: destination has %d planes, children %d", ErrShape, dst.Planes(), p.Planes())
	}
	outer, n, inner := p.axisSpan(m)
	if len(dst.shape) != len(p.shape) {
		return fmt.Errorf("%w: destination rank %d does not match child rank %d", ErrShape, len(dst.shape), len(p.shape))
	}
	for q := range p.shape {
		want := p.shape[q]
		if q == m {
			want = 2 * n
		}
		if dst.shape[q] != want {
			return fmt.Errorf("%w: destination shape %v cannot hold dim-%d interleave of %v", ErrShape, dst.shape, m, p.shape)
		}
	}
	ps, rs, out := p.data, r.data, dst.data
	if inner == 1 { // m is innermost: the pairs are adjacent
		out = out[:2*len(ps)]
		for t, pv := range ps {
			rv := rs[t]
			out[2*t] = (pv + rv) / 2
			out[2*t+1] = (pv - rv) / 2
		}
		return nil
	}
	for o := 0; o < outer; o++ {
		sBase := o * n * inner
		dBase := o * 2 * n * inner
		for i := 0; i < n; i++ {
			s := sBase + i*inner
			x := dBase + 2*i*inner
			y := x + inner
			for j := 0; j < inner; j++ {
				pv, rv := ps[s+j], rs[s+j]
				out[x+j] = (pv + rv) / 2
				out[y+j] = (pv - rv) / 2
			}
		}
	}
	return nil
}

// FoldK collapses a k-deep same-dimension partial/residual cascade into a
// single strided pass over dimension m. Bit t−1 of signs marks the t-th
// cascade stage (in application order) as a residual (difference); a clear
// bit is a partial (sum). Because every stage is linear with ±1 taps, the
// whole cascade is one signed block reduction: each output cell combines
// its 2^k consecutive source neighbours
//
//	out[..., i, ...] = Σ_{b<2^k} sign(b) · a[..., i·2^k + b, ...],
//	sign(b) = (−1)^popcount(b & signs),
//
// reading the input once instead of once per stage — ~N+N/2^k cells of
// memory traffic for the whole cascade versus ~2N·k stage at a time.
// The extent of dimension m must be divisible by 2^k and signs must fit in
// k bits. k = 0 (with signs 0) degenerates to a copy.
func (a *Array) FoldK(m, k int, signs uint) (*Array, error) {
	outShape := a.Shape()
	outShape[m] >>= uint(k)
	if outShape[m] == 0 || a.shape[m]%(1<<uint(k)) != 0 {
		return nil, fmt.Errorf("%w: dimension %d extent %d is not divisible by 2^%d", ErrShape, m, a.shape[m], k)
	}
	out := NewPlanes(a.Planes(), outShape...)
	if err := a.FoldKInto(m, k, signs, out); err != nil {
		return nil, err
	}
	return out, nil
}

// parity is 1 when source slot b of a fold block enters with a minus sign:
// the parity of the residual stages (set bits of signs) that see it as the
// second element of a pair. It is computed inline, so no cascade depth needs
// a table.
func parity(b, signs uint) int { return bits.OnesCount(b&signs) & 1 }

// signed is v with the sign slot b of a fold block gives it: its sign bit
// flipped when parity(b, signs) is 1. Adding it is bit for bit subtracting
// v (IEEE 754 defines x − y as x + (−y)), without a branch.
func signed(v float64, b, signs uint) float64 {
	return math.Float64frombits(math.Float64bits(v) ^ uint64(parity(b, signs))<<63)
}

// FoldKInto is FoldK with a caller-provided destination: dst must have a's
// shape with dimension m divided by 2^k and must not alias a. dst is fully
// overwritten.
func (a *Array) FoldKInto(m, k int, signs uint, dst *Array) error {
	outer, n, inner, err := a.checkFoldDst(m, k, dst)
	if err != nil {
		return err
	}
	block := 1 << uint(k)
	if signs >= uint(block) {
		return fmt.Errorf("%w: signs %#x does not fit in %d cascade stages", ErrShape, signs, k)
	}
	out := dst.data[:outer*(n/block)*inner]
	switch {
	case inner == 1:
		foldRuns(out, a.data, block, signs)
	case inner <= 8:
		foldShortRuns(out, a.data, inner, block, signs)
	default:
		foldLongRuns(out, a.data, inner, block, signs)
	}
	return nil
}

// The three FoldKInto kernels fold src, a sequence of blocks of block
// slots each, into out, one output cell per slot offset within a block
// (inner of them). Each output cell is its block's slot 0 — which always
// enters positively (bit parity of 0 is even), so out needs no zeroing —
// then slots 1, 2, … added or subtracted in turn, as parity says.

// foldRuns is the kernel for inner = 1 (m is innermost): each block is a
// contiguous run.
func foldRuns(out, src []float64, block int, signs uint) {
	for t := range out {
		run := src[t*block : (t+1)*block]
		acc := run[0]
		if signs == 0 {
			for _, v := range run[1:] {
				acc += v
			}
		} else {
			for b := 1; b < len(run); b++ {
				acc += signed(run[b], uint(b), signs)
			}
		}
		out[t] = acc
	}
}

// foldShortRuns is the kernel for 1 < inner ≤ 8: each output cell sums its
// strided block in a register.
func foldShortRuns(out, src []float64, inner, block int, signs uint) {
	for t := range len(out) / inner {
		blk, row := src[t*block*inner:(t+1)*block*inner], out[t*inner:(t+1)*inner]
		for j := range row {
			acc := blk[j]
			if signs == 0 {
				for s := j + inner; s < len(blk); s += inner {
					acc += blk[s]
				}
			} else {
				for b, s := 1, j+inner; s < len(blk); b, s = b+1, s+inner {
					acc += signed(blk[s], uint(b), signs)
				}
			}
			row[j] = acc
		}
	}
}

// foldLongRuns is the kernel for inner > 8: each slot's run of inner cells
// is added to, or subtracted from, the output row at once.
func foldLongRuns(out, src []float64, inner, block int, signs uint) {
	for t := range len(out) / inner {
		row, blk := out[t*inner:(t+1)*inner], src[t*block*inner:(t+1)*block*inner]
		copy(row, blk[:inner])
		for b := 1; b < block; b++ {
			run := blk[b*inner : (b+1)*inner]
			if parity(uint(b), signs) == 1 {
				for j, v := range run {
					row[j] -= v
				}
			} else {
				for j, v := range run {
					row[j] += v
				}
			}
		}
	}
}

// SubArrayInto copies the axis-aligned box [lo, lo+ext) of every plane into
// dst, which must have shape ext and a's plane count. dst is fully
// overwritten. It is the reusable-buffer form of SubArray for callers that
// extract many same-shaped slabs.
func (a *Array) SubArrayInto(lo, ext []int, dst *Array) error {
	if len(lo) != len(a.shape) || len(ext) != len(a.shape) {
		return fmt.Errorf("%w: box rank does not match array rank %d", ErrShape, len(a.shape))
	}
	for m := range lo {
		if lo[m] < 0 || ext[m] <= 0 || lo[m]+ext[m] > a.shape[m] {
			return fmt.Errorf("%w: box lo=%v ext=%v outside shape %v", ErrShape, lo, ext, a.shape)
		}
		if len(dst.shape) != len(ext) || dst.shape[m] != ext[m] {
			return fmt.Errorf("%w: destination shape %v does not match box extents %v", ErrShape, dst.shape, ext)
		}
	}
	planes, n, cells := a.Planes(), dst.Cells(), a.Cells()
	if dst.Planes() != planes {
		return fmt.Errorf("%w: destination has %d planes, source %d", ErrShape, dst.Planes(), planes)
	}
	idx := make([]int, len(ext))
	for p := 0; p < planes; p++ {
		in, out := a.data[p*cells:(p+1)*cells], dst.data[p*n:(p+1)*n]
		for off := range out {
			src := 0
			for m := range idx {
				src += (lo[m] + idx[m]) * a.strides[m]
			}
			out[off] = in[src]
			incIndex(idx, ext)
		}
	}
	return nil
}
