package ndarray

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Scratch-buffer pool. Cascade execution is allocation-bound: every stage
// of every query wants a transient array that dies as soon as the next
// stage has consumed it. The pool recycles those arrays (header, shape and
// strides slices, and the float64 backing store) across queries, so
// steady-state execution allocates only the buffers a caller keeps.
//
// Buffers are size-classed by the next power of two of their cell count:
// a leased array's backing slice has capacity exactly 1<<class, sliced to
// the requested length. Cube extents are powers of two throughout this
// system, so in practice almost every lease lands exactly on its class and
// wastes nothing.
//
// Ownership rules (see DESIGN §10): Scratch transfers ownership to the
// caller; the array behaves exactly like a fresh New until the owner calls
// Recycle, which transfers ownership to the pool. After Recycle the caller
// must not touch the array again — not even to read — because a concurrent
// lease may already be overwriting it. Never Recycle an array that anything
// else can still reach (a store, a cache, a query result somebody holds).
// Leased contents are undefined; pair Scratch only with kernels that fully
// overwrite their destination (the Into kernels, copy).

// maxScratchClass bounds pooled buffers at 2^27 cells (1 GiB of float64);
// larger requests are served by plain allocation and dropped on Recycle.
const maxScratchClass = 27

var (
	scratchPools  [maxScratchClass + 1]sync.Pool
	scratchHits   atomic.Uint64
	scratchMisses atomic.Uint64
)

// scratchClass returns the size-class exponent for n cells and whether n is
// poolable.
func scratchClass(n int) (int, bool) {
	if n <= 0 {
		return 0, false
	}
	c := bits.Len(uint(n - 1)) // ceil(log2 n); 0 for n=1
	return c, c <= maxScratchClass
}

// Scratch leases a one-plane array of the given shape from the pool,
// reporting whether the lease was served by a recycled buffer (hit) or by a
// fresh allocation (miss). The contents are undefined — the caller must
// fully overwrite them. The caller owns the result: keep it forever, or hand
// it back with Recycle.
func Scratch(shape ...int) (*Array, bool) { return ScratchPlanes(1, shape...) }

// ScratchPlanes is Scratch for an array of planes planes: one buffer, sized
// and pooled by its total scalar count.
func ScratchPlanes(planes int, shape ...int) (*Array, bool) {
	n := checkPlanes(planes, shape)
	c, poolable := scratchClass(n)
	if poolable {
		if v := scratchPools[c].Get(); v != nil {
			a := v.(*Array)
			a.data = a.data[:n]
			a.shape = append(a.shape[:0], shape...)
			a.strides = stridesInto(a.strides[:0], a.shape)
			scratchHits.Add(1)
			return a, true
		}
	}
	scratchMisses.Add(1)
	a := &Array{shape: append([]int(nil), shape...)}
	if poolable {
		a.data = make([]float64, n, 1<<uint(c))
	} else {
		a.data = make([]float64, n)
	}
	a.strides = computeStrides(a.shape)
	return a, false
}

// stridesInto computes row-major strides into dst (resliced, reusing its
// capacity).
func stridesInto(dst []int, shape []int) []int {
	for range shape {
		dst = append(dst, 0)
	}
	acc := 1
	for m := len(shape) - 1; m >= 0; m-- {
		dst[m] = acc
		acc *= shape[m]
	}
	return dst
}

// Recycle returns an array's storage to the scratch pool. It accepts any
// array — leased or fresh — whose backing capacity is exactly a pool class
// (always true for power-of-two cell counts, the common case here); others
// are silently left to the garbage collector. The caller must own a
// exclusively and must not use it after the call; under the race detector
// a pooled array is filled with NaN, so a use after Recycle shows.
func Recycle(a *Array) {
	if a == nil {
		return
	}
	cap_ := cap(a.data)
	c, poolable := scratchClass(cap_)
	if !poolable || cap_ != 1<<uint(c) {
		return
	}
	a.data = a.data[:cap_]
	poison(a.data)
	scratchPools[c].Put(a)
}

// ScratchStats returns the cumulative process-wide lease counts: hits were
// served from recycled buffers, misses allocated. Their ratio is the
// steady-state allocation saving of the execution path.
func ScratchStats() (hits, misses uint64) {
	return scratchHits.Load(), scratchMisses.Load()
}
