package assembly

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"

	"viewcube/internal/freq"
	"viewcube/internal/haar"
	"viewcube/internal/ndarray"
	"viewcube/internal/obs"
)

// One kernel reads every plan (DESIGN §6, §10): a range sum, a grouped
// range and the assembly of a whole element (Execute) are all contractions
// of the stored elements the plan reads. A range sum over the box B of the
// element a plan produces is linear in the stored elements:
//
//	Σ_B A = Σ_S ⟨Synthᵀ_S 1_B, S⟩
//
// and the adjoint is separable per dimension, so instead of assembling
// anything the contraction walks the plan once, carrying one weight vector
// per summed dimension down from the indicator of the box:
//
//   - synthesize on a summed dimension pushes the weights down with the
//     adjoint of (p ± r)/2: w_P[j] = (w[2j] + w[2j+1])/2 and
//     w_R[j] = (w[2j] − w[2j+1])/2; a child whose weights are all zero
//     contributes nothing and is skipped;
//   - synthesize on a kept dimension contracts both children and joins them
//     with InterleaveInto;
//   - aggregate from a stored S lifts the weights through the fold:
//     w_S[i·2^K + b] = sign(b)·w[i]; kept dimensions are folded after the
//     contraction (FoldKInto);
//   - a stored leaf sums the cells whose weights are all non-zero into an
//     array over the kept dimensions. An element held as its nonzeros is
//     contracted over them and never densified.
//
// The cost is Σ_S Π_m nnz(w_m) cells, and nothing is cached between queries.
//
// Assembling element r is the contraction whose box is all of r and which
// keeps every dimension of extent > 1: every summed dimension is a single
// cell weighted 1. Two cases then need no weights at all. A stored leaf
// with nothing summed is its own contraction, so a synthesis interleaves
// the stored arrays in place. An aggregate whose summed dimensions are all
// single cells weighted 1 is its source folded whole (FoldKInto), the last
// fold writing straight into the destination.
//
// Exactness: weights are dyadic (k/2^L), so on integer cells every product
// and partial sum is a multiple of 2^-L, L the summed depth of the partially
// covered dimensions. While bound·(L+1)·2^(L+1) ≤ 2^53 (bound ≥ Σ|v| of
// every plane) each partial sum is exactly representable and the plain
// float accumulation is exact. Past it, a range sum accumulates each product
// split by FMA into a TwoSum pair (exact), and a grouped sum answers each
// group as such a range.

// Work is what one contraction read.
type Work struct {
	Elements int // stored elements contracted
	Cells    int // cells contracted (held nonzeros, for an element held sparse)
}

// wvec is a weight vector held as its nonzeros: ascending positions and
// their values. full marks the all-ones vector over a whole axis.
type wvec struct {
	idx  []int32
	val  []float64
	full bool
}

func (w *wvec) reset()               { w.idx, w.val, w.full = w.idx[:0], w.val[:0], false }
func (w *wvec) add(i int, v float64) { w.idx, w.val = append(w.idx, int32(i)), append(w.val, v) }
func (w *wvec) empty() bool          { return len(w.idx) == 0 }

// indicator sets w to 1 on [lo, lo+ext) of an axis of n cells.
func (w *wvec) indicator(lo, ext, n int) {
	w.reset()
	for i := lo; i < lo+ext; i++ {
		w.add(i, 1)
	}
	w.full = ext == n
}

// grow empties w and makes room for n entries, which the caller writes by
// index and then trims.
func (w *wvec) grow(n int) {
	w.reset()
	if cap(w.idx) < n {
		w.idx, w.val = make([]int32, 0, n), make([]float64, 0, n)
	}
	w.idx, w.val = w.idx[:n], w.val[:n]
}

// dimState is one summed dimension's weight storage, reused across queries:
// per depth the weights of the partial and the residual child, the box
// indicator, the lifted weights of an aggregate leaf and a dense lookup
// (zero outside the nonzeros) for sparse leaves.
type dimState struct {
	n         int    // the axis extent the buffers are sized for
	part, res []wvec // per depth
	ones      []wvec // per depth: the all-ones vector, so a whole axis pushes in O(1)
	box, lift wvec
	lookup    []float64
}

// sumDim is one summed dimension of the element a leaf contracts.
type sumDim struct {
	stride int
	w      *wvec
}

// weights is the current weight vector of each summed dimension.
type weights [freq.MaxRank]*wvec

// contraction is the per-query state; pooled, so steady-state queries
// allocate nothing.
type contraction struct {
	e      *Engine
	sp     *obs.Span // the current span: new spans nest under it; nil untraced
	rank   int
	planes int // value planes; accumulators of an exact sum hold two per plane
	exact  bool
	keep   [freq.MaxRank]bool
	dims   [freq.MaxRank]dimState
	w      weights   // the weights at the node being contracted
	summed []sumDim  // a leaf's summed dimensions, in order
	koff   []int     // a leaf's source offset of each output cell
	toff   []int     // a leaf's gathered terms: source offsets
	tw     []float64 // and weights
	// assemble marks Execute's contraction: it counts plan nodes, modelled
	// ops and cells read on the assembly metrics and, while traced, records
	// one span per plan node (sp is the open one).
	assemble bool
	// inOrder keeps a leaf's terms in the order contractSparse adds them:
	// set for the root, the one element a store may hold sparse, whose
	// dense and sparse forms must agree bit for bit on any cells.
	inOrder bool
	work    Work
}

var contractions = sync.Pool{New: func() any { return new(contraction) }}

// ContractRange sums, per plane, the cells of the box [lo, lo+ext) of the
// element p produces into out, one value per plane, by contracting the
// stored elements p reads. bound must be at least Σ|v| of every plane of the
// cube (it decides the exact accumulation; +Inf always takes it).
func (e *Engine) ContractRange(sp *obs.Span, p *Plan, lo, ext []int, bound float64, out []float64) (Work, error) {
	var none [freq.MaxRank]bool
	keep := none[:min(len(lo), freq.MaxRank)]
	if err := e.checkBox(p.Rect, lo, ext, keep); err != nil {
		return Work{}, err
	}
	c := e.contraction(sp, p.Rect, len(out), keep)
	defer c.release()
	c.exact = !fastExact(bound, c.summedDepth(p.Rect, lo, ext))
	err := c.rangeInto(p, lo, ext, out)
	return c.work, err
}

// ContractGrouped sums the box [lo, lo+ext) of the element p produces,
// grouped by the kept dimensions: the result has the element's extent on
// kept dimensions (which the box must cover whole), 1 elsewhere, and planes
// planes. It is pool-leased and owned by the caller.
func (e *Engine) ContractGrouped(sp *obs.Span, p *Plan, lo, ext []int, keep []bool, planes int, bound float64) (*ndarray.Array, Work, error) {
	if err := e.checkBox(p.Rect, lo, ext, keep); err != nil {
		return nil, Work{}, err
	}
	c := e.contraction(sp, p.Rect, planes, keep)
	defer c.release()
	if fastExact(bound, c.summedDepth(p.Rect, lo, ext)) {
		c.start(p.Rect, lo, ext)
		out, err := c.result(p)
		return out, c.work, err
	}
	var shapeBuf [freq.MaxRank]int
	out := c.lease(planes, c.keptShape(p.Rect, shapeBuf[:]))
	if err := c.groupedExact(p, lo, ext, out); err != nil {
		ndarray.Recycle(out)
		return nil, Work{}, err
	}
	return out, c.work, nil
}

// Execute runs a plan and returns the element it produces: the
// contraction of the stored elements it reads over the whole element,
// keeping every dimension of extent > 1. The result is pool-leased and
// owned by the caller. Under a span (nil means untraced), an "execute" child
// holds one span per plan node, whose "ops" attributes sum to the plan's cost.
func (e *Engine) Execute(sp *obs.Span, p *Plan) (*ndarray.Array, error) {
	e.met.Executions.Inc()
	r := p.Rect
	if !e.space.Valid(r) {
		return nil, fmt.Errorf("assembly: %v is not a view element of the space", r)
	}
	var keepBuf [freq.MaxRank]bool
	var loBuf, extBuf [freq.MaxRank]int
	keep, ext := keepBuf[:len(r)], extBuf[:len(r)]
	for m := range r {
		ext[m] = e.space.Dim(m) >> r[m].Depth()
		keep[m] = ext[m] > 1
	}
	// Every operand of a whole element leases by its children's planes.
	if sp != nil { // the name costs a Sprintf per dimension: traced queries only
		sp = sp.Start("execute " + r.String())
		sp.SetAttr("total_ops", int64(p.Ops))
		defer sp.End()
	}
	c := e.contraction(sp, r, 0, keep)
	defer c.release()
	c.assemble = true
	c.start(r, loBuf[:len(r)], ext)
	out, err := c.result(p)
	if err == nil && out.Planes() > 1 {
		sp.SetAttr("measure_width", int64(out.Planes()))
	}
	return out, err
}

// checkBox validates a box and keep mask against element r's shape. Its
// errors format copies of lo and ext, so the caller's bounds never escape
// and can live on its stack.
func (e *Engine) checkBox(r freq.Rect, lo, ext []int, keep []bool) error {
	if !e.space.Valid(r) || len(lo) != len(r) || len(ext) != len(r) || len(keep) != len(r) {
		return fmt.Errorf("assembly: box rank %d does not match element %v", len(lo), r)
	}
	for m := range r {
		n := e.space.Dim(m) >> r[m].Depth()
		if lo[m] < 0 || ext[m] <= 0 || lo[m]+ext[m] > n {
			return fmt.Errorf("assembly: box lo=%v ext=%v outside element %v", slices.Clone(lo), slices.Clone(ext), r)
		}
		if keep[m] && ext[m] != n {
			return fmt.Errorf("assembly: kept dimension %d must be unfiltered (box lo=%v ext=%v)", m, slices.Clone(lo), slices.Clone(ext))
		}
	}
	return nil
}

func (e *Engine) contraction(sp *obs.Span, r freq.Rect, planes int, keep []bool) *contraction {
	c := contractions.Get().(*contraction)
	c.e, c.sp, c.rank, c.planes, c.exact, c.work = e, sp, len(r), planes, false, Work{}
	for m := range r {
		c.keep[m] = keep[m]
		if d, n := &c.dims[m], e.space.Dim(m); d.n != n {
			depths := e.space.MaxDepth(m) + 1
			d.n, d.part, d.res, d.ones = n, make([]wvec, depths), make([]wvec, depths), make([]wvec, depths)
			for k := range d.ones {
				d.ones[k].indicator(0, n>>k, n>>k)
			}
		}
	}
	return c
}

// release returns c to the pool, holding no engine or trace.
func (c *contraction) release() {
	c.e, c.sp, c.w, c.assemble = nil, nil, weights{}, false
	contractions.Put(c)
}

// summedDepth is L of the exactness condition: the depth of the summed
// dimensions the box covers only in part.
func (c *contraction) summedDepth(r freq.Rect, lo, ext []int) int {
	L := 0
	for m := range r {
		if n := c.e.space.Dim(m) >> r[m].Depth(); !c.keep[m] && ext[m] != n {
			L += bits.Len(uint(n)) - 1
		}
	}
	return L
}

// fastExact reports whether the plain float accumulation is exact on
// integer cells of total magnitude at most bound (see above).
func fastExact(bound float64, L int) bool {
	return bound*float64(L+1)*math.Ldexp(1, L+1) <= 1<<53
}

// start loads the box indicators as the weights of element r.
func (c *contraction) start(r freq.Rect, lo, ext []int) {
	c.w = weights{}
	for m := 0; m < c.rank; m++ {
		d, k := &c.dims[m], r[m].Depth()
		switch {
		case c.keep[m]:
		case ext[m] == d.n>>k:
			c.w[m] = &d.ones[k]
		default:
			d.box.indicator(lo[m], ext[m], d.n>>k)
			c.w[m] = &d.box
		}
	}
}

// rangeInto contracts p over the box with nothing kept.
func (c *contraction) rangeInto(p *Plan, lo, ext []int, out []float64) error {
	var shapeBuf [freq.MaxRank]int
	dst := c.lease(c.planes*c.accPerPlane(), c.keptShape(p.Rect, shapeBuf[:]))
	defer ndarray.Recycle(dst)
	c.start(p.Rect, lo, ext)
	if err := c.node(p, dst, true); err != nil {
		return err
	}
	d := dst.Data()
	for q := range out {
		out[q] = d[q]
		if c.exact {
			out[q] = d[q] + d[c.planes+q]
		}
	}
	return nil
}

// groupedExact answers each group as an exact range sum: the box narrowed
// to the group's cell on every kept dimension.
func (c *contraction) groupedExact(p *Plan, lo, ext []int, out *ndarray.Array) error {
	var loBuf, extBuf [freq.MaxRank]int
	glo, gext := loBuf[:c.rank], extBuf[:c.rank]
	copy(glo, lo)
	copy(gext, ext)
	var keptBuf [freq.MaxRank]bool
	kept := keptBuf[:c.rank]
	copy(kept, c.keep[:c.rank])
	for m := range kept {
		if kept[m] {
			gext[m] = 1
			c.keep[m] = false
		}
	}
	c.exact = true
	cells, data := out.Cells(), out.Data()
	sums := make([]float64, c.planes)
	for g := 0; g < cells; g++ {
		rest := g
		for m := c.rank - 1; m >= 0; m-- {
			if kept[m] {
				glo[m], rest = rest%ext[m], rest/ext[m]
			}
		}
		if err := c.rangeInto(p, glo, gext, sums); err != nil {
			return err
		}
		for q, v := range sums {
			data[q*cells+g] = v
		}
	}
	return nil
}

// keptShape writes into buf the shape of r's contraction: r's extent on
// kept dimensions, 1 elsewhere.
func (c *contraction) keptShape(r freq.Rect, buf []int) []int {
	buf = buf[:c.rank]
	for m := range buf {
		buf[m] = 1
		if c.keep[m] {
			buf[m] = c.e.space.Dim(m) >> r[m].Depth()
		}
	}
	return buf
}

// lease takes a scratch array from the pool, counting the hit or miss on
// the assembly metrics. Its contents are undefined.
func (c *contraction) lease(planes int, shape []int) *ndarray.Array {
	a, hit := ndarray.ScratchPlanes(planes, shape...)
	if hit {
		c.e.met.PoolHits.Inc()
	} else {
		c.e.met.PoolMisses.Inc()
	}
	return a
}

// node adds the contraction of the element p produces into dst, laid out
// over p's kept dimensions. fresh reports that dst's contents are undefined:
// the node overwrites it instead of adding.
func (c *contraction) node(p *Plan, dst *ndarray.Array, fresh bool) error {
	switch p.Kind {
	case PlanStored:
		return c.contractStored(p.Rect, dst, fresh)
	case PlanAggregate:
		_, err := c.aggregate(p, dst, fresh)
		return err
	case PlanSynthesize:
		m := p.Dim
		if c.keep[m] {
			out, err := c.synthesizeKept(p)
			if err == nil {
				if fresh {
					copy(dst.Data(), out.Data())
				} else {
					addInto(dst, out)
				}
				ndarray.Recycle(out)
			}
			return err
		}
		d, w := &c.dims[m], c.w[m]
		k := p.Partial.Rect[m].Depth()
		wp, wr := &d.part[k], &d.res[k]
		if w.full { // ones push down to ones, and the residual drops out
			wp = &d.ones[k]
			wr.reset()
		} else {
			push(w, wp, wr)
		}
		var err error
		if !wp.empty() {
			c.w[m] = wp
			err = c.node(p.Partial, dst, fresh)
			fresh = false
		}
		if !wr.empty() && err == nil {
			c.w[m] = wr
			err = c.node(p.Residual, dst, fresh)
			fresh = false
		}
		if fresh {
			clear(dst.Data())
		}
		c.w[m] = w
		return err
	default:
		return fmt.Errorf("assembly: unknown plan kind %v", p.Kind)
	}
}

// push writes the adjoint of synthesis on one dimension: the weights of the
// partial and residual children of an element weighted by w.
func push(w, part, res *wvec) {
	idx, val := w.idx, w.val[:len(w.idx)]
	part.grow(len(idx))
	res.grow(len(idx))
	pi, pv, ri, rv := part.idx, part.val, res.idx, res.val
	np, nr := 0, 0
	for i := 0; i < len(idx); {
		j := int(idx[i] >> 1)
		var a, b float64
		if idx[i]&1 == 0 {
			a = val[i]
			i++
			if i < len(idx) && int(idx[i]) == 2*j+1 {
				b = val[i]
				i++
			}
		} else {
			b = val[i]
			i++
		}
		if s := (a + b) / 2; s != 0 {
			pi[np], pv[np] = int32(j), s
			np++
		}
		if d := (a - b) / 2; d != 0 {
			ri[nr], rv[nr] = int32(j), d
			nr++
		}
	}
	part.idx, part.val = pi[:np], pv[:np]
	res.idx, res.val = ri[:nr], rv[:nr]
}

// enter accounts plan node p of an assembly on the metrics and, while
// traced, opens its span and makes it the parent of what the node reads.
// The returned func ends the span.
func (c *contraction) enter(p *Plan) func() {
	met, ops, name := c.e.met, p.Ops, ""
	switch p.Kind {
	case PlanStored:
		met.StoredNodes.Inc()
	case PlanAggregate:
		met.AggregateNodes.Inc()
	case PlanSynthesize:
		met.SynthesizeNodes.Inc()
		ops -= p.Partial.Ops + p.Residual.Ops
	}
	met.OpsModeled.Add(uint64(ops))
	if c.sp == nil {
		return func() {}
	}
	switch p.Kind {
	case PlanStored:
		name = "stored " + p.Rect.String()
	case PlanAggregate:
		name = "aggregate " + p.Rect.String() + " from " + p.Source.String()
	default:
		name = fmt.Sprintf("synthesize %s dim=%d", p.Rect.String(), p.Dim)
	}
	sp, parent := c.sp.Start(name), c.sp
	if p.Kind != PlanStored {
		sp.SetAttr("ops", int64(ops))
	}
	c.sp = sp
	return func() {
		sp.End()
		c.sp = parent
	}
}

// synthesizeKept contracts both children of a synthesis on a kept dimension
// and joins them by perfect reconstruction into a lease.
func (c *contraction) synthesizeKept(p *Plan) (*ndarray.Array, error) {
	part, ownPart, err := c.operand(p.Partial)
	if err != nil {
		return nil, err
	}
	if ownPart {
		defer ndarray.Recycle(part)
	}
	res, ownRes, err := c.operand(p.Residual)
	if err != nil {
		return nil, err
	}
	if ownRes {
		defer ndarray.Recycle(res)
	}
	var shapeBuf [freq.MaxRank]int
	shape := part.ShapeInto(shapeBuf[:0])
	shape[p.Dim] *= 2
	out := c.lease(part.Planes(), shape)
	if err := ndarray.InterleaveInto(p.Dim, part, res, out); err != nil {
		ndarray.Recycle(out)
		return nil, err
	}
	return out, nil
}

// result is the contraction of the element p produces as a lease the
// caller keeps: a stored element's own array comes back copied.
func (c *contraction) result(p *Plan) (*ndarray.Array, error) {
	out, owned, err := c.operand(p)
	if err == nil && !owned {
		out, err = c.cascade(out, false, nil, true, nil, true)
	}
	return out, err
}

// operand returns the contraction of the element p produces as an array
// over p's kept dimensions, and whether the caller owns it. With nothing
// summed (unit) a stored element is its own contraction: the store's array
// itself, or a CloningStore's private copy. An assembly's plan is unit all
// the way down, so only range contractions reach node from here.
func (c *contraction) operand(p *Plan) (*ndarray.Array, bool, error) {
	if !c.unit(p.Rect) && (p.Kind != PlanSynthesize || !c.keep[p.Dim]) {
		var shapeBuf [freq.MaxRank]int
		dst := c.lease(c.planes*c.accPerPlane(), c.keptShape(p.Rect, shapeBuf[:]))
		if err := c.node(p, dst, true); err != nil {
			ndarray.Recycle(dst)
			return nil, false, err
		}
		return dst, true, nil
	}
	if c.assemble {
		defer c.enter(p)()
	}
	var out *ndarray.Array
	var err error
	switch p.Kind {
	case PlanSynthesize:
		out, err = c.synthesizeKept(p)
	case PlanAggregate:
		out, err = c.aggregate(p, nil, true)
	case PlanStored:
		a, coo, err := c.whole(p.Rect)
		if err != nil || coo == nil {
			return a, c.e.cloning, err
		}
		// Its cells, negative zeros included: a contraction would add them to +0.
		var shapeBuf [freq.MaxRank]int
		out = c.lease(1, coo.ShapeInto(shapeBuf[:0]))
		coo.DenseInto(out)
	default:
		err = fmt.Errorf("assembly: unknown plan kind %v", p.Kind)
	}
	return out, true, err
}

// unit reports whether every summed dimension is a single cell of element
// r weighted 1, so that r's contraction is r itself laid out over the kept
// dimensions. It holds throughout Execute.
func (c *contraction) unit(r freq.Rect) bool {
	for m := 0; m < c.rank; m++ {
		if w := c.w[m]; !c.keep[m] && (len(w.idx) != 1 || w.val[0] != 1 || c.e.space.Dim(m)>>r[m].Depth() != 1) {
			return false
		}
	}
	return !c.exact
}

// read fetches stored element r: as its nonzeros (coo) when a MemStore
// holds it so, else as an array, a CloningStore's private copy when
// e.cloning. An assembly counts every cell, zeros included, as read.
func (c *contraction) read(r freq.Rect) (a *ndarray.Array, coo *ndarray.Coo, err error) {
	ok := false
	if ms, isMem := c.e.store.(*MemStore); isMem {
		a, coo, ok = ms.read(r)
	} else {
		a, ok = c.e.get(c.sp, r)
	}
	if !ok {
		return nil, nil, fmt.Errorf("assembly: plan references %v but it is not stored", r)
	}
	if c.assemble {
		size := 0
		if coo != nil {
			size = coo.Size()
		} else {
			size = a.Size()
		}
		c.e.met.CellsRead.Add(uint64(size))
		c.sp.SetAttr("cells", int64(size))
	}
	return a, coo, nil
}

// whole reads stored element r to be contracted whole, counting it and its
// cells (held nonzeros, if held sparse) on the work.
func (c *contraction) whole(r freq.Rect) (*ndarray.Array, *ndarray.Coo, error) {
	a, coo, err := c.read(r)
	switch {
	case err != nil:
		return nil, nil, err
	case coo != nil:
		offs, _ := coo.Entries()
		c.work.Cells += len(offs)
	default:
		c.work.Cells += a.Cells()
	}
	c.work.Elements++
	return a, coo, nil
}

func addInto(dst, src *ndarray.Array) {
	d := dst.Data()
	for i, v := range src.Data() {
		d[i] += v
	}
}

// aggregate contracts the stored ancestor of an aggregate node: weights on
// summed fold dimensions are lifted to the ancestor's resolution, kept fold
// dimensions are folded after the contraction. With nothing summed the
// ancestor is folded whole. A nil dst asks for the result as a lease.
func (c *contraction) aggregate(p *Plan, dst *ndarray.Array, fresh bool) (*ndarray.Array, error) {
	folds := p.Folds
	if folds == nil {
		var err error
		if folds, err = haar.PathFolds(p.Source, p.Rect); err != nil {
			return nil, err
		}
	}
	if len(folds) == 0 {
		return nil, fmt.Errorf("assembly: aggregate %v from itself", p.Rect)
	}
	if c.unit(p.Rect) {
		a, coo, err := c.whole(p.Source)
		if err != nil {
			return nil, err
		}
		own := c.e.cloning
		if coo != nil { // the first fold reads the nonzeros
			var shapeBuf [freq.MaxRank]int
			shape, f := coo.ShapeInto(shapeBuf[:0]), folds[0]
			shape[f.Dim] = max(shape[f.Dim]>>uint(f.K), 1)
			a, folds, own = c.lease(1, shape), folds[1:], true
			if err := coo.FoldKInto(f.Dim, f.K, f.Signs, a); err != nil {
				ndarray.Recycle(a)
				return nil, err
			}
		}
		return c.cascade(a, own, folds, true, dst, fresh)
	}
	keptFolds, at := false, c.w
	defer func() { c.w = at }()
	for _, f := range folds {
		if c.keep[f.Dim] {
			keptFolds = true
			continue
		}
		d := &c.dims[f.Dim]
		if c.w[f.Dim].full && f.Signs == 0 { // a sum of ones is ones
			c.w[f.Dim] = &d.ones[p.Source[f.Dim].Depth()]
			continue
		}
		lift(c.w[f.Dim], f, &d.lift)
		c.w[f.Dim] = &d.lift
	}
	if !keptFolds {
		return dst, c.contractStored(p.Source, dst, fresh)
	}
	var shapeBuf [freq.MaxRank]int
	cur := c.lease(dst.Planes(), c.keptShape(p.Source, shapeBuf[:]))
	if err := c.contractStored(p.Source, cur, true); err != nil {
		ndarray.Recycle(cur)
		return nil, err
	}
	return c.cascade(cur, true, folds, false, dst, fresh)
}

// cascade applies folds — all of them, or those on kept dimensions — to
// cur, owned by the caller when own, and adds the result into dst, the
// last fold writing straight into a fresh one; a nil dst gets the result
// as a lease.
func (c *contraction) cascade(cur *ndarray.Array, own bool, folds []haar.Fold, all bool, dst *ndarray.Array, fresh bool) (*ndarray.Array, error) {
	var err error
	last := -1
	for i, f := range folds {
		if all || c.keep[f.Dim] {
			last = i
		}
	}
	var shapeBuf [freq.MaxRank]int
	for i, f := range folds[:last+1] {
		if err != nil || !all && !c.keep[f.Dim] {
			continue
		}
		if cur.Dim(f.Dim)%(1<<uint(f.K)) != 0 {
			err = fmt.Errorf("assembly: stored extent %d on dim %d is not divisible by 2^%d", cur.Dim(f.Dim), f.Dim, f.K)
			continue
		}
		next := dst
		if i < last || !fresh || dst == nil {
			shape := cur.ShapeInto(shapeBuf[:0])
			shape[f.Dim] >>= uint(f.K)
			next = c.lease(cur.Planes(), shape)
		}
		err = cur.FoldKInto(f.Dim, f.K, f.Signs, next)
		if own {
			ndarray.Recycle(cur)
		}
		cur, own = next, next != dst
	}
	switch {
	case err != nil:
	case dst == nil && own:
		return cur, nil
	case dst == nil: // nothing folded: the stored array itself
		dst = c.lease(cur.Planes(), cur.ShapeInto(shapeBuf[:0]))
		copy(dst.Data(), cur.Data())
	case cur == dst:
	case fresh:
		copy(dst.Data(), cur.Data())
	default:
		addInto(dst, cur)
	}
	if own {
		ndarray.Recycle(cur)
	}
	if err != nil {
		return nil, err
	}
	return dst, nil
}

// lift writes the weights of a fold's source: w_S[i·2^K + b] = sign(b)·w[i],
// the sign that of source slot b in the fold.
func lift(w *wvec, f haar.Fold, out *wvec) {
	out.reset()
	block := 1 << uint(f.K)
	for t, i := range w.idx {
		v, base := w.val[t], int(i)<<uint(f.K)
		for b := 0; b < block; b++ {
			if bits.OnesCount(uint(b)&f.Signs)&1 == 1 {
				out.add(base+b, -v)
			} else {
				out.add(base+b, v)
			}
		}
	}
}

// contractStored adds the contraction of stored element r under the current
// weights into dst, which has r's extent on kept dimensions.
func (c *contraction) contractStored(r freq.Rect, dst *ndarray.Array, fresh bool) error {
	a, coo, err := c.read(r)
	switch {
	case err != nil:
		return err
	case coo != nil:
		return c.contractSparse(coo, dst, fresh)
	}
	if c.e.cloning {
		defer ndarray.Recycle(a) // a private copy, read once
	}
	if a.Planes()*c.accPerPlane() != dst.Planes() {
		return fmt.Errorf("assembly: contracting %d planes of %v into %d", a.Planes(), r, dst.Planes())
	}
	if fresh {
		clear(dst.Data())
	}
	// The summed dimensions in order, and the source offset of each output
	// cell: dst is laid out row-major over the kept dimensions. A summed
	// dimension with one weight folds into the start (weight products are
	// exact, so their order is immaterial).
	c.summed, c.koff = c.summed[:0], append(c.koff[:0], 0)
	base, wp, cells, w := 0, 1.0, 1, &c.w
	for m := 0; m < c.rank; m++ {
		switch {
		case c.keep[m]:
		case len(w[m].idx) == 0:
			return nil
		case len(w[m].idx) == 1:
			base += int(w[m].idx[0]) * a.Stride(m)
			wp *= w[m].val[0]
		default:
			c.summed = append(c.summed, sumDim{stride: a.Stride(m), w: w[m]})
			cells *= len(w[m].idx)
		}
	}
	for m := c.rank - 1; m >= 0; m-- { // innermost first: it varies fastest
		if n, k := a.Dim(m), len(c.koff); c.keep[m] && n > 1 {
			for j := 1; j < n; j++ {
				for _, o := range c.koff[:k] {
					c.koff = append(c.koff, o+j*a.Stride(m))
				}
			}
			cells *= n
		}
	}
	c.work.Elements++
	c.work.Cells += cells
	c.inOrder = a.Cells() == c.e.space.CubeVolume()
	if sd := c.summed; !c.inOrder && len(sd) > 1 {
		// Any order sums exactly here: loop innermost over the longest
		// weight vector, so the odometer steps least.
		long := len(sd) - 1
		for i := range sd {
			if len(sd[i].w.idx) > len(sd[long].w.idx) {
				long = i
			}
		}
		sd[long], sd[len(sd)-1] = sd[len(sd)-1], sd[long]
	}
	src, out, n, on := a.Data(), dst.Data(), a.Cells(), dst.Cells()
	for q := range a.Planes() {
		plane := src[q*n : (q+1)*n]
		if c.exact {
			acc := [2]float64{out[q], out[c.planes+q]}
			c.denseExact(0, plane, base, wp, &acc)
			out[q], out[c.planes+q] = acc[0], acc[1]
		} else {
			c.dense(plane, base, wp, out[q*on:(q+1)*on])
		}
	}
	return nil
}

// accPerPlane is how many accumulators a plane takes: two for an exact sum,
// its TwoSum pair (hi, lo).
func (c *contraction) accPerPlane() int {
	if c.exact {
		return 2
	}
	return 1
}

// dense walks the summed dimensions in row-major order from the cell at
// base, wp the weight so far. With nothing kept it sums the terms w·v into
// out[0]; with kept dimensions it gathers the terms and spreads them over
// every kept output cell. Either way an output cell takes its terms in the
// row-major order of the summed dimensions when c.inOrder, as contractSparse
// adds them: an element held sparse agrees bit for bit.
func (c *contraction) dense(src []float64, base int, wp float64, out []float64) {
	sd, koff := c.summed, c.koff
	if len(sd) == 0 {
		for k, o := range koff {
			out[k] += float64(wp * src[base+o])
		}
		return
	}
	grouped := len(koff) > 1
	c.toff, c.tw = c.toff[:0], c.tw[:0]
	// An odometer over the outer summed dimensions: pos, base and weight per
	// level; the innermost dimension is the loop below.
	var pos [freq.MaxRank]int
	var bases [freq.MaxRank]int
	var wps [freq.MaxRank]float64
	bases[0], wps[0] = base, wp
	inner := &sd[len(sd)-1]
	for level := 0; level >= 0; {
		for ; level < len(sd)-1; level++ {
			d := &sd[level]
			t := pos[level]
			bases[level+1] = bases[level] + int(d.w.idx[t])*d.stride
			wps[level+1] = float64(wps[level] * d.w.val[t])
			pos[level+1] = 0
		}
		b, w0 := bases[level], wps[level]
		switch {
		case grouped:
			for t, j := range inner.w.idx {
				c.toff = append(c.toff, b+int(j)*inner.stride)
				c.tw = append(c.tw, float64(w0*inner.w.val[t]))
			}
		case c.inOrder:
			out[0] = dot(out[0], w0, inner, src[b:])
		default:
			out[0] += dotPairs(w0, inner, src[b:])
		}
		for level--; level >= 0; level-- {
			if pos[level]++; pos[level] < len(sd[level].w.idx) {
				break
			}
		}
	}
	if !grouped {
		return
	}
	toff, tw := c.toff, c.tw[:len(c.toff)]
	for k, o := range koff {
		s := src[o:]
		if c.inOrder {
			acc := out[k]
			for t, off := range toff {
				acc += float64(tw[t] * s[off])
			}
			out[k] = acc
			continue
		}
		var a, b, c2, d float64
		t := 0
		for ; t+3 < len(toff); t += 4 {
			a += tw[t] * s[toff[t]]
			b += tw[t+1] * s[toff[t+1]]
			c2 += tw[t+2] * s[toff[t+2]]
			d += tw[t+3] * s[toff[t+3]]
		}
		for ; t < len(toff); t++ {
			a += tw[t] * s[toff[t]]
		}
		out[k] += (a + b) + (c2 + d)
	}
}

// dot adds to acc the terms of one summed row, in order.
func dot(acc, wp float64, d *sumDim, src []float64) float64 {
	idx, val, stride := d.w.idx, d.w.val[:len(d.w.idx)], d.stride
	if stride == 1 {
		for t, j := range idx {
			acc += float64(float64(wp*val[t]) * src[j])
		}
		return acc
	}
	for t, j := range idx {
		acc += float64(float64(wp*val[t]) * src[int(j)*stride])
	}
	return acc
}

// dotPairs is one summed row's terms, w times the sum of two running
// halves: on integer cells within the exactness bound every order sums
// exactly, and the two chains overlap.
func dotPairs(w float64, d *sumDim, src []float64) float64 {
	idx, val, stride := d.w.idx, d.w.val[:len(d.w.idx)], d.stride
	var a, b float64
	t := 0
	for ; t+1 < len(idx); t += 2 {
		a += val[t] * src[int(idx[t])*stride]
		b += val[t+1] * src[int(idx[t+1])*stride]
	}
	if t < len(idx) {
		a += val[t] * src[int(idx[t])*stride]
	}
	return w * (a + b)
}

// denseExact is dense with nothing kept, accumulating every term into a
// TwoSum pair (see addExact).
func (c *contraction) denseExact(level int, src []float64, base int, wp float64, acc *[2]float64) {
	if len(c.summed) == 0 {
		addExact(acc, wp, src[base])
		return
	}
	d := &c.summed[level]
	for t, j := range d.w.idx {
		w := float64(wp * d.w.val[t]) // dyadic: exact
		if level == len(c.summed)-1 {
			addExact(acc, w, src[base+int(j)*d.stride])
		} else {
			c.denseExact(level+1, src, base+int(j)*d.stride, w, acc)
		}
	}
}

// addExact adds the product w·s to the pair acc = (hi, lo): the product is
// split by FMA into its rounded value and its exact error, the rounded value
// enters hi by TwoSum and both errors enter lo. On integer cells every term
// is a multiple of the finest weight, so lo sums exactly and hi + lo is the
// exact sum.
func addExact(acc *[2]float64, w, s float64) {
	p := w * s
	e := math.FMA(w, s, -p)
	hi := acc[0] + p
	bp := hi - acc[0]
	err := (acc[0] - (hi - bp)) + (p - bp)
	acc[0] = hi
	acc[1] += err + e
}

// contractSparse is contractStored over an element held as its nonzeros:
// each offset splits into coordinates by shifts and masks (extents are
// powers of two), and its term enters its output cell as dense adds it.
func (c *contraction) contractSparse(coo *ndarray.Coo, dst *ndarray.Array, fresh bool) error {
	if c.planes*c.accPerPlane() != dst.Planes() {
		return fmt.Errorf("assembly: contracting a one-plane sparse element into %d planes", dst.Planes())
	}
	if fresh {
		clear(dst.Data())
	}
	var shapeBuf [freq.MaxRank]int
	shape := coo.ShapeInto(shapeBuf[:0])
	// Each dimension a term depends on: where its coordinate sits in an
	// offset, and a dense weight lookup (summed) or its output stride (kept).
	// An all-ones summed dimension or a one-cell kept one changes no term and
	// is left out; weight products are exact, so their order is immaterial.
	type field struct {
		pos    uint
		mask   int32
		stride int
		lookup []float64
	}
	var sums, kept [freq.MaxRank]field
	ns, nk, pos := 0, 0, uint(0)
	for m := c.rank - 1; m >= 0; m-- {
		n := shape[m]
		f := field{pos: pos, mask: int32(n - 1)}
		pos += uint(bits.TrailingZeros(uint(n)))
		switch w, d := c.w[m], &c.dims[m]; {
		case c.keep[m] && n > 1:
			f.stride = dst.Stride(m)
			kept[nk] = f
			nk++
		case !c.keep[m] && !w.full:
			if len(d.lookup) < n {
				d.lookup = make([]float64, n)
			}
			for t, i := range w.idx {
				d.lookup[i] = w.val[t]
			}
			f.lookup = d.lookup
			sums[ns] = f
			ns++
		}
	}
	defer func() { // leave every lookup all zeros again
		for _, f := range sums[:ns] {
			clear(f.lookup)
		}
	}()
	offs, vals := coo.Entries()
	if w := c.w[0]; !c.keep[0] && !w.full {
		// Offsets ascend, so the outermost dimension's weights bound the
		// nonzeros worth visiting to one run.
		at := pos - uint(bits.TrailingZeros(uint(shape[0])))
		first, last := w.idx[0], w.idx[len(w.idx)-1]
		lo := sort.Search(len(offs), func(i int) bool { return offs[i]>>at >= first })
		hi := sort.Search(len(offs), func(i int) bool { return offs[i]>>at > last })
		offs, vals = offs[lo:hi], vals[lo:hi]
	}
	c.work.Elements++
	c.work.Cells += len(offs)
	// A term outside the box has weight zero and adds ±0, which changes no
	// sum that started at +0: no branch on it.
	out := dst.Data()
	switch {
	case c.exact:
		acc := [2]float64{out[0], out[1]}
		for t, off := range offs {
			wp := 1.0
			for _, f := range sums[:ns] {
				wp *= f.lookup[off>>f.pos&f.mask]
			}
			addExact(&acc, wp, vals[t])
		}
		out[0], out[1] = acc[0], acc[1]
	case ns == 1 && nk == 0: // the common range: one filtered dimension
		f, sum := &sums[0], out[0]
		for t, off := range offs {
			sum += float64(f.lookup[off>>f.pos&f.mask] * vals[t])
		}
		out[0] = sum
	default:
		for t, off := range offs {
			wp, do := 1.0, 0
			for _, f := range sums[:ns] {
				wp *= f.lookup[off>>f.pos&f.mask]
			}
			for _, f := range kept[:nk] {
				do += int(off>>f.pos&f.mask) * f.stride
			}
			out[do] += float64(wp * vals[t])
		}
	}
	return nil
}
