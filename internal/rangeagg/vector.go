package rangeagg

import (
	"fmt"
	"sync"

	"viewcube/internal/freq"
	"viewcube/internal/ndarray"
	"viewcube/internal/obs"
	"viewcube/internal/plan"
	"viewcube/internal/rescache"
	"viewcube/internal/velement"
)

// MultiElementSource supplies materialised measure-vector view elements —
// the vector analogue of ElementSource (context-carrying by construction;
// pass a nil x for untraced calls).
type MultiElementSource interface {
	ElementMulti(x *obs.ExecCtx, r freq.Rect) (*ndarray.MultiArray, error)
}

// VecQuerier answers range aggregations over a measure-vector cube from
// intermediate vector elements: one §6 dyadic decomposition, one pyramid
// walk, w accumulators. Component c of its result is bit-identical to what
// the scalar Querier computes over component c alone (same blocks, same
// cells, same addition order), which is what lets the vector engine replace
// per-component scalar range paths without changing a single answered
// value. Concurrency mirrors Querier: the element cache is epoch-keyed with
// singleflight misses.
type VecQuerier struct {
	space *velement.Space
	src   MultiElementSource
	width int

	cache *rescache.Cache[freq.Key, *ndarray.MultiArray]

	mu sync.Mutex // guards CellsRead

	// CellsRead counts logical element cells fetched across all queries
	// (each carrying width components).
	CellsRead int

	met *obs.RangeMetrics
}

// NewVecQuerier returns a vector range querier over the space.
func NewVecQuerier(space *velement.Space, src MultiElementSource, width int) *VecQuerier {
	return &VecQuerier{
		space: space, src: src, width: width,
		cache: rescache.New[freq.Key, *ndarray.MultiArray](unbounded),
		met:   obs.NewRangeMetrics(nil),
	}
}

// SetMetrics attaches registered instruments; nil restores the no-op set.
func (q *VecQuerier) SetMetrics(m *obs.RangeMetrics) {
	if m == nil {
		m = obs.NewRangeMetrics(nil)
	}
	q.met = m
}

// Reset bumps the cache epoch, dropping every cached element.
func (q *VecQuerier) Reset() { q.cache.Invalidate() }

// element returns the intermediate vector element at the per-dimension
// partial depths, cached per epoch with coalesced misses.
func (q *VecQuerier) element(x *obs.ExecCtx, depths []int) (*ndarray.MultiArray, error) {
	r := make(freq.Rect, len(depths))
	for m, k := range depths {
		r[m] = freq.Node(1 << uint(k))
	}
	a, _, err := q.cache.GetOrCompute(r.Key(), func() (*ndarray.MultiArray, error) {
		var sp *obs.Span
		if x.Tracing() {
			sp = x.Start("element " + r.String())
			defer sp.End()
		}
		a, err := q.src.ElementMulti(x.Under(sp), r)
		if err != nil {
			return nil, err
		}
		q.met.ElementMiss.Inc()
		sp.SetAttr("cells", int64(a.Cells()))
		sp.SetAttr("measure_width", int64(a.Width()))
		return a, nil
	})
	return a, err
}

// RangeVecCtx computes the component-wise SUM vector over the box via the
// dyadic decomposition, writing one accumulator per component into out
// (len(out) must equal the width). A non-nil x records a "range_sum" span.
func (q *VecQuerier) RangeVecCtx(x *obs.ExecCtx, box Box, out []float64) error {
	shape := q.space.Shape()
	if len(out) != q.width {
		return fmt.Errorf("rangeagg: out width %d, want %d", len(out), q.width)
	}
	if err := box.Validate(shape); err != nil {
		return err
	}
	q.met.RangeQueries.Inc()
	sp := x.Start("range_sum")
	sp.SetAttr("box_cells", int64(box.Cells()))
	sp.SetAttr("measure_width", int64(q.width))
	defer sp.End()
	x = x.Under(sp)
	d := len(shape)
	legs := plan.DecomposeBox(box.Lo, box.Ext, nil)
	idx := make([]int, d)
	depths := make([]int, d)
	cell := make([]int, d)
	for c := range out {
		out[c] = 0
	}
	read := 0
	for {
		for m := 0; m < d; m++ {
			b := legs[m].Blocks[idx[m]]
			depths[m] = b.Level
			cell[m] = b.Start >> uint(b.Level)
		}
		el, err := q.element(x, depths)
		if err != nil {
			return err
		}
		// One offset computation serves every component plane: the planes
		// share shape and strides by construction.
		off := el.Component(0).Offset(cell)
		data, cells := el.Data(), el.Cells()
		for c := 0; c < q.width; c++ {
			out[c] += data[c*cells+off]
		}
		read++
		m := d - 1
		for ; m >= 0; m-- {
			idx[m]++
			if idx[m] < len(legs[m].Blocks) {
				break
			}
			idx[m] = 0
		}
		if m < 0 {
			break
		}
	}
	q.met.CellsRead.Add(uint64(read))
	q.mu.Lock()
	q.CellsRead += read
	q.mu.Unlock()
	sp.SetAttr("cells_read", int64(read))
	return nil
}

// GroupedRangeVecCtx answers the grouped "dice" query over the vector cube:
// a vector per group cell, kept dimensions at full extent, filtered
// dimensions collapsed. The result is freshly allocated and caller-owned.
// Accumulation order per component matches GroupedRangeSumCtx exactly.
func (q *VecQuerier) GroupedRangeVecCtx(x *obs.ExecCtx, box Box, keep []bool) (*ndarray.MultiArray, error) {
	shape := q.space.Shape()
	if len(keep) != len(shape) {
		return nil, fmt.Errorf("rangeagg: keep mask rank %d, want %d", len(keep), len(shape))
	}
	if err := box.Validate(shape); err != nil {
		return nil, err
	}
	d := len(shape)
	outShape := make([]int, d)
	for m := 0; m < d; m++ {
		if keep[m] {
			if box.Lo[m] != 0 || box.Ext[m] != shape[m] {
				return nil, fmt.Errorf("rangeagg: kept dimension %d must be unfiltered (box %v)", m, box)
			}
			outShape[m] = shape[m]
			continue
		}
		outShape[m] = 1
	}
	legs := plan.DecomposeBox(box.Lo, box.Ext, keep)
	out := ndarray.NewMulti(q.width, outShape...)
	read := 0

	slab, _ := ndarray.ScratchMulti(q.width, outShape...)
	defer ndarray.RecycleMulti(slab)

	idx := make([]int, d)
	depths := make([]int, d)
	lo := make([]int, d)
	ext := make([]int, d)
	for {
		for m := 0; m < d; m++ {
			if keep[m] {
				depths[m] = 0
				lo[m] = 0
				ext[m] = shape[m]
				continue
			}
			b := legs[m].Blocks[idx[m]]
			depths[m] = b.Level
			lo[m] = b.Start >> uint(b.Level)
			ext[m] = 1
		}
		el, err := q.element(x, depths)
		if err != nil {
			return nil, err
		}
		if err := el.SubArrayInto(lo, ext, slab); err != nil {
			return nil, err
		}
		// Plane-major accumulation: within each component plane the order is
		// exactly the scalar grouped path's order.
		dst := out.Data()
		for i, v := range slab.Data() {
			dst[i] += v
		}
		read += slab.Cells()

		m := d - 1
		for ; m >= 0; m-- {
			if keep[m] {
				continue
			}
			idx[m]++
			if idx[m] < len(legs[m].Blocks) {
				break
			}
			idx[m] = 0
		}
		if m < 0 {
			q.mu.Lock()
			q.CellsRead += read
			q.mu.Unlock()
			return out, nil
		}
	}
}
