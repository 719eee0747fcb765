package ndarray

import (
	"fmt"
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
	// neg[b] is whether source slot b enters with a minus sign: the parity
	// of the residual stages that see it as the second element of a pair.
	// Cascades deeper than 6 stages are rare; the fixed buffer keeps the
	// common case off the heap.
	var negBuf [64]bool
	var neg []bool
	if block <= len(negBuf) {
		neg = negBuf[:block]
	} else {
		neg = make([]bool, block)
	}
	for b := 1; b < block; b++ {
		neg[b] = bits.OnesCount(uint(b)&signs)%2 == 1
	}
	src, out := a.data, dst.data
	nOut := n / block
	switch {
	case inner == 1: // m is innermost: each block is a contiguous run
		out, neg := out[:outer*nOut], neg[1:]
		for t := range out {
			run := src[t*block : (t+1)*block]
			acc := run[0]
			if signs == 0 {
				for _, v := range run[1:] {
					acc += v
				}
			} else {
				for b, v := range run[1:] {
					if neg[b] {
						acc -= v
					} else {
						acc += v
					}
				}
			}
			out[t] = acc
		}
		return nil
	case inner <= 8: // short runs: each output cell sums its block in a register
		for t := range outer * nOut {
			blk, row := src[t*block*inner:(t+1)*block*inner], out[t*inner:(t+1)*inner]
			for j := range row {
				acc := blk[j]
				if signs == 0 {
					for s := j + inner; s < len(blk); s += inner {
						acc += blk[s]
					}
				} else {
					for b, s := 1, j+inner; s < len(blk); b, s = b+1, s+inner {
						if neg[b] {
							acc -= blk[s]
						} else {
							acc += blk[s]
						}
					}
				}
				row[j] = acc
			}
		}
		return nil
	}
	for o := 0; o < outer; o++ {
		sBase := o * n * inner
		dBase := o * nOut * inner
		for i := 0; i < nOut; i++ {
			d := dBase + i*inner
			s0 := sBase + i*block*inner
			// Slot 0 always enters positively (bit parity of 0 is even);
			// it initialises the accumulator so dst needs no zeroing.
			for j := 0; j < inner; j++ {
				out[d+j] = src[s0+j]
			}
			for b := 1; b < block; b++ {
				s := s0 + b*inner
				if neg[b] {
					for j := 0; j < inner; j++ {
						out[d+j] -= src[s+j]
					}
				} else {
					for j := 0; j < inner; j++ {
						out[d+j] += src[s+j]
					}
				}
			}
		}
	}
	return nil
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
