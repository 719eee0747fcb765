package viewcube

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"

	"viewcube/internal/adaptive"
	"viewcube/internal/assembly"
	"viewcube/internal/freq"
	"viewcube/internal/ndarray"
	"viewcube/internal/obs"
	"viewcube/internal/plan"
	"viewcube/internal/store"
)

// Workload is an anticipated query population: aggregated views (or any
// view elements) with relative access frequencies. Frequencies are
// normalised when the workload is applied.
type Workload struct {
	cube    *Cube
	entries []workloadEntry
}

type workloadEntry struct {
	rect freq.Rect
	freq float64
}

// NewWorkload returns an empty workload for this cube.
func (c *Cube) NewWorkload() *Workload { return &Workload{cube: c} }

// Add records an element with a relative access frequency.
func (w *Workload) Add(e Element, frequency float64) error {
	if !w.cube.Valid(e) {
		return fmt.Errorf("viewcube: invalid element %v", e)
	}
	if frequency <= 0 {
		return fmt.Errorf("viewcube: frequency must be positive, got %g", frequency)
	}
	w.entries = append(w.entries, workloadEntry{rect: e.rect.Clone(), freq: frequency})
	return nil
}

// AddViewKeeping is a convenience: Add(ViewKeeping(keep...), frequency).
func (w *Workload) AddViewKeeping(frequency float64, keep ...string) error {
	e, err := w.cube.ViewKeeping(keep...)
	if err != nil {
		return err
	}
	return w.Add(e, frequency)
}

// Len returns the number of workload entries.
func (w *Workload) Len() int { return len(w.entries) }

// EngineOptions configures an Engine.
type EngineOptions struct {
	// StorageBudget is the Algorithm 2 target storage in cells. 0 (or any
	// value not exceeding the cube volume) keeps only the non-redundant
	// Algorithm 1 basis.
	StorageBudget int
	// ReselectEvery triggers automatic re-selection after this many
	// queries; 0 means adaptation happens only via Optimize/Reconfigure.
	ReselectEvery int
	// Decay in (0,1] ages observed frequencies at each reconfiguration so
	// the engine tracks drifting workloads; 0 defaults to 1 (no decay).
	Decay float64
	// DiskDir, when non-empty, stores materialised elements in that
	// directory instead of in memory.
	DiskDir string
	// CacheCells bounds the disk store's in-memory LRU cache (cells);
	// ignored for in-memory stores. 0 defaults to one cube volume.
	CacheCells int
	// Metrics receives the engine's instruments (latency histograms,
	// cache and reselection counters, ...). nil gives the engine a
	// private registry, reachable via Engine.Metrics. Sharing one Metrics
	// across engines aggregates their series.
	Metrics *Metrics
}

// Engine answers queries against a cube by dynamically assembling views
// from its materialised view element set, and adapts that set to the
// workload.
//
// Its measure layout is the cube's: a cube of one plane carries the SUM
// alone, a cube of three (NewAggEngine) the component vector [Σv, Σv², Σ1]
// that COUNT, AVG, VAR and STDDEV finalise from. Every operator applies per
// plane, so one selection, store, plan cache and ingest path serve either
// width, and the SUM methods read the SUM plane at any width.
//
// An Engine is safe for concurrent use. Queries are pure reads of the
// materialised set (Procedure 3 planning plus Haar synthesis allocate only
// per-query state), so any number of them overlap under the read lock; only
// operations that rewrite the materialised set or its values — Optimize,
// Update, Reconfigure, and automatic reselection — take the write lock. A
// query that pushes the adaptive recorder past its reselection threshold
// drains the due flag afterwards under the write lock. Traced queries carry
// their own execution context, so concurrent traces never observe each
// other.
//
// With streaming ingest enabled (EnableIngest), reads pin the current
// immutable snapshot generation for their whole duration instead of taking
// the read lock, so they never block on (or are blocked by) the write path;
// writes append to the ingest buffer and return, and the background merger
// is the only mutator of the base's values.
type Engine struct {
	mu   sync.RWMutex
	core core // the base: the one writer, touched only under mu
	ing  atomic.Pointer[ingestRuntime]
	// version is the data version: see DataVersion.
	version atomic.Uint64
}

// SafeEngine is the former name of the concurrency-safe engine.
//
// Deprecated: Engine is safe for concurrent use; use it directly.
type SafeEngine = Engine

// Safe returns the engine itself, which is safe for concurrent use.
//
// Deprecated: call the Engine's methods directly.
func (e *Engine) Safe() *Engine { return e }

// core is the state one read runs against and every body is a method of:
// the base an Engine writes, and each snapshot generation it publishes under
// ingest.
type core struct {
	cube  *Cube
	st    assembly.Store
	inner *adaptive.Engine
	met   *Metrics
	fork  bool             // a later engine over an attached cube: it works on a copy and never writes cube.data
	mass  *mass            // what the cube has taken in, shared with its snapshot generations
	spec  plan.MeasureSpec // the measure layout of the cube's planes

	// Under ingest (DESIGN §10): lent says the current snapshot generation
	// reads this store's dense arrays, which own copies before the next
	// write. owned lists the copies own leased since the last publish, which
	// hands the ones still stored to its generation; on a generation it is
	// what the retire hook recycles.
	lent  bool
	owned []*ndarray.Array
}

// Stats re-exports the adaptive engine's counters.
type Stats = adaptive.Stats

// NewEngine attaches an engine to the cube. Initially the cube itself is
// the only materialised element — the cube's own array, adopted rather than
// copied (a further engine over the same cube copies it and stays
// independent), so from here on cells change through Engine.Update only;
// call Optimize (or let automatic re-selection run) to specialise the set.
func (c *Cube) NewEngine(opts EngineOptions) (*Engine, error) {
	if c.data == nil {
		return nil, errHandedOver("NewEngine")
	}
	spec, err := measureOf(c.data.Planes())
	if err != nil {
		return nil, err
	}
	m, err := massOf(spec.Width, c.data.Data())
	if err != nil {
		return nil, err
	}
	var st assembly.Store
	if opts.DiskDir != "" {
		budget := opts.CacheCells
		if budget == 0 {
			budget = c.Volume()
		}
		fs, err := store.Open(opts.DiskDir, budget)
		if err != nil {
			return nil, err
		}
		st = fs
	} else {
		st = assembly.NewMemStore()
	}
	if len(st.Elements()) == 0 {
		root := c.data
		if c.attached {
			root = c.data.Clone()
		}
		if err := st.Put(c.space.Root(), root); err != nil {
			return nil, fmt.Errorf("viewcube: storing the cube: %w", err)
		}
	}
	inner, err := adaptive.New(c.space, st, adaptive.Options{
		ReselectEvery: opts.ReselectEvery,
		StorageBudget: opts.StorageBudget,
		Decay:         opts.Decay,
	})
	if err != nil {
		return nil, err
	}
	met := opts.Metrics
	if met == nil {
		met = NewMetrics()
	}
	eng := &Engine{core: core{cube: c, st: st, inner: inner, met: met, fork: c.attached, mass: m, spec: spec}}
	if fs, ok := st.(*store.FileStore); ok {
		fs.SetMetrics(met.store)
	}
	inner.SetMetrics(met.adaptive)
	inner.Assembler().SetMetrics(met.assembly)
	inner.Planner().SetMetrics(met.plans)
	inner.Planner().SetMeasure(spec)
	if ms, ok := st.(*assembly.MemStore); ok && !c.attached {
		c.holder = ms
	}
	c.attached = true
	return eng, nil
}

// measureOf is the measure layout of a cube of the given plane count.
func measureOf(planes int) (plan.MeasureSpec, error) {
	switch planes {
	case 1:
		return plan.ScalarMeasure(), nil
	case 3:
		return plan.StatsMeasure(), nil
	}
	return plan.MeasureSpec{}, fmt.Errorf("viewcube: a cube of %d measure planes (want 1, or 3 for [Σv, Σv², Σ1])", planes)
}

// Metrics returns the engine's metrics registry (the one passed in
// EngineOptions, or the engine's private registry).
func (e *Engine) Metrics() *Metrics { return e.core.met }

// Cube returns the cube the engine serves (dimension metadata, workloads,
// ...); its cell accessors read the SUM plane.
func (e *Engine) Cube() *Cube { return e.core.cube }

// Width returns the number of measure components per cell: 1 for a SUM
// cube, 3 for the [Σv, Σv², Σ1] cube of NewAggEngine.
func (e *Engine) Width() int { return e.core.spec.Width }

// checkCell: UpdateCell with no delta validates the index against the
// space and touches nothing.
func (e *core) checkCell(idx []int) error {
	return assembly.UpdateCell(e.cube.space, e.st, nil, idx)
}

// applyDeltaRaw is incremental maintenance of every materialised element
// (each changes in exactly one cell per plane, by ±delta — O(elements ·
// rank), independent of element volumes) plus the raw cube while it is an
// array of its own: as the store's root element UpdateCell has already
// written it. vals holds one delta per plane.
func (e *core) applyDeltaRaw(vals []float64, idx []int) error {
	if len(vals) != e.spec.Width {
		return fmt.Errorf("viewcube: delta width %d on a width-%d cube", len(vals), e.spec.Width)
	}
	if err := assembly.UpdateCell(e.cube.space, e.st, vals, idx); err != nil || isZero(vals) {
		return err
	}
	if e.rawCells() != 0 {
		for p, v := range vals {
			e.cube.data.Plane(p).Add(v, idx...)
		}
	}
	e.met.updates.Inc()
	return nil
}

// isZero reports whether every delta of vals is zero.
func isZero(vals []float64) bool {
	return !slices.ContainsFunc(vals, func(v float64) bool { return v != 0 })
}

// rawCells is the size of the raw cube as an array this engine maintains
// beside its store: 0 once the cells were handed over (ReleaseCells), for a
// forked engine, and while the store's root element is that very array —
// adopted by NewEngine, not yet dropped by a reselection. A store that clones
// on Get never shares one.
func (e *core) rawCells() int {
	if e.cube.data == nil || e.fork {
		return 0
	}
	if cs, ok := e.st.(assembly.CloningStore); !ok || !cs.ClonesOnGet() {
		if root, ok := e.st.Get(e.cube.space.Root()); ok && root == e.cube.data {
			return 0
		}
	}
	return e.cube.data.Size()
}

// snapshot derives a read-only sibling engine over the materialised set and
// lends it the store's own dense arrays: the base reads them too, and own
// copies them before its next write. A sparse-held element is densified into
// an array leased from the scratch pool. The sibling owns that lease and the
// copies own leased since the previous publish, and nothing else: its retire
// hook hands exactly those back (recycle). It shares the cube, the metrics,
// the mass, the adaptive workload profile and the (epoch-pinned) plan cache;
// its store and assembly engine are its own. Ingest runs only on a MemStore.
func (e *core) snapshot() (*core, error) {
	base, ok := e.st.(*assembly.MemStore)
	if !ok {
		return nil, fmt.Errorf("viewcube: snapshots need the in-memory element store")
	}
	st := assembly.NewMemStore()
	var owned []*ndarray.Array
	var shape [freq.MaxRank]int
	for _, r := range base.Elements() {
		var a *ndarray.Array
		if c, ok := base.GetSparse(r); ok {
			a, _ = ndarray.Scratch(c.ShapeInto(shape[:0])...)
			c.DenseInto(a)
			owned = append(owned, a)
		} else if a, ok = base.Get(r); !ok {
			return nil, fmt.Errorf("viewcube: snapshot element %v vanished mid-publish", r)
		} else if slices.Contains(e.owned, a) {
			owned = append(owned, a)
		}
		if err := st.Put(r, a); err != nil {
			return nil, fmt.Errorf("viewcube: storing snapshot element %v: %w", r, err)
		}
	}
	e.lent, e.owned = true, e.owned[:0]
	g := &core{cube: e.cube, st: st, inner: e.inner.ForStore(st), met: e.met, mass: e.mass, spec: e.spec, owned: owned}
	g.inner.Assembler().SetMetrics(e.met.assembly)
	return g, nil
}

// own gives the engine private copies, leased from the scratch pool, of the
// dense arrays its last snapshot lent the current generation, so a write
// never reaches an array a reader may pin. The cube's adopted root follows
// its copy. Every writer of stored cells calls it first; it is a no-op while
// nothing is lent.
func (e *core) own() {
	if !e.lent {
		return
	}
	e.lent = false
	base := e.st.(*assembly.MemStore) // only a MemStore lends
	var shape [freq.MaxRank]int
	for _, r := range base.Elements() {
		if _, ok := base.GetSparse(r); ok {
			continue // never lent: its generation densified a copy
		}
		src, _ := base.Get(r)
		a, _ := ndarray.ScratchPlanes(src.Planes(), src.ShapeInto(shape[:0])...)
		copy(a.Data(), src.Data())
		base.Put(r, a)
		e.owned = append(e.owned, a)
		if src == e.cube.data {
			e.cube.data = a
		}
	}
}

// recycle hands a retired snapshot generation's own arrays back to the
// scratch pool for own and the next snapshot to lease. Only the lifecycle's
// retire hook calls it: no reader pins the generation any more, the base
// copied away from it before the publish that retired it, and no answer
// aliases a stored array (DESIGN §10).
func (e *core) recycle() {
	for _, a := range e.owned {
		ndarray.Recycle(a)
	}
}

// maybeReselect performs a due automatic reselection, reporting whether the
// materialised set changed. Engine.reselectIfDue runs it under the write
// lock after a read completes.
func (e *core) maybeReselect() (bool, error) {
	if !e.inner.ReselectDue() {
		return false, nil
	}
	return e.inner.AutoReconfigure(nil)
}

// Optimize selects and materialises the best element set for an
// anticipated workload: Algorithm 1 for the non-redundant basis, then
// Algorithm 2 up to the storage budget. Observed query history is also
// taken into account. It runs under the write lock; under ingest, the new
// materialised set reaches readers at the forced republish.
func (e *Engine) Optimize(w *Workload) error {
	return e.mutate(func(c *core) (bool, error) {
		if w != nil {
			for _, ent := range w.entries {
				c.inner.Observe(ent.rect, ent.freq)
			}
		}
		_, err := c.inner.Reconfigure(nil)
		return true, err
	})
}

// Reconfigure re-selects the materialised set from the observed query
// frequencies under the write lock, reporting whether anything changed.
// Under ingest, the new materialised set reaches readers at the forced
// republish.
func (e *Engine) Reconfigure() (changed bool, err error) {
	err = e.mutate(func(c *core) (bool, error) {
		changed, err = c.inner.Reconfigure(nil)
		return changed, err
	})
	return changed, err
}

// View answers a view-element query, assembling it from the materialised
// set.
func (e *Engine) View(el Element) (*View, error) {
	return untraced(runSafe(e, false, viewRead, (*core).viewInner, el))
}

func (e *core) viewInner(x *obs.ExecCtx, el Element) (*View, error) {
	if !e.cube.Valid(el) {
		return nil, fmt.Errorf("viewcube: invalid element %v", el)
	}
	arr, err := e.inner.Query(x, el.rect)
	if err != nil {
		return nil, err
	}
	return newView(e.cube, el, arr)
}

// GroupBy answers the aggregated view that keeps the named dimensions and
// SUM-aggregates all others.
func (e *Engine) GroupBy(keep ...string) (*View, error) {
	return untraced(runSafe(e, false, groupByRead, (*core).groupByInner, keep))
}

// GroupByResult is GroupBy answered as the columnar Result servers encode
// directly; the trace is nil unless traced.
func (e *Engine) GroupByResult(traced bool, keep ...string) (*Result, *QueryTrace, error) {
	v, qt, err := runSafe(e, traced, groupByRead, (*core).groupByInner, keep)
	if err != nil {
		return nil, nil, err
	}
	r, err := v.leased()
	return settle(r, qt, err)
}

func (e *core) groupByInner(x *obs.ExecCtx, keep []string) (*View, error) {
	el, err := e.cube.ViewKeeping(keep...)
	if err != nil {
		return nil, err
	}
	return e.viewInner(x, el)
}

// Total returns the grand total via the engine (exercising assembly rather
// than scanning the cube).
func (e *Engine) Total() (float64, error) {
	return untraced(runSafe(e, false, totalRead, (*core).totalInner, struct{}{}))
}

func (e *core) totalInner(x *obs.ExecCtx, _ struct{}) (float64, error) {
	v, err := e.viewInner(x, e.cube.GrandTotal())
	if err != nil {
		return 0, err
	}
	defer ndarray.Recycle(v.arr) // the one-cell view lives no longer than this read
	return v.Value()
}

// ValueRange selects an inclusive range of a dictionary-encoded dimension
// by value. Empty Lo means "from the first value"; empty Hi means "to the
// last value". Dictionary codes are assigned in sorted value order, so a
// value range is always a contiguous coordinate range.
type ValueRange struct {
	Lo, Hi string
}

// RangeSum computes the SUM of the measure over the box selected by the
// per-dimension value ranges (unnamed dimensions are unrestricted),
// answered by contracting the stored elements with the box (DESIGN §6).
func (e *Engine) RangeSum(ranges map[string]ValueRange) (float64, error) {
	return untraced(runSafe(e, false, rangeRead, (*core).rangeSumInner, ranges))
}

func (e *core) rangeSumInner(x *obs.ExecCtx, ranges map[string]ValueRange) (float64, error) {
	if e.cube.enc == nil {
		return 0, fmt.Errorf("viewcube: RangeSum by value needs a dictionary-encoded cube; use RangeSumIndex")
	}
	_, box, err := e.resolveGroupedBox(nil, ranges)
	if err != nil {
		return 0, err
	}
	return e.rangeSum(x, box)
}

// RangeSumWithin is RangeSum with lexicographic bounds: each restricted
// dimension covers the dictionary values lying within [Lo, Hi] (first value
// ≥ Lo through last value ≤ Hi), so the exact bound strings need not be
// present. ok reports whether the box was non-empty; when a restricted
// dimension has no values in range (or a dictionary is empty) the sum is 0
// and ok is false, with no error. This is the per-shard query of the
// distributive fan-out (internal/cluster): a shard holds an arbitrary
// subset of each dimension's values, so exact-bound lookup would spuriously
// fail on shards that lack the endpoint values.
func (e *Engine) RangeSumWithin(ranges map[string]ValueRange) (float64, bool, error) {
	w, err := untraced(runSafe(e, false, rangeRead, (*core).rangeSumWithinInner, ranges))
	return w.sum, w.ok, err
}

func (e *core) rangeSumWithinInner(x *obs.ExecCtx, ranges map[string]ValueRange) (withinSum, error) {
	if e.cube.enc == nil {
		return withinSum{}, fmt.Errorf("viewcube: RangeSumWithin needs a dictionary-encoded cube; use RangeSumIndex")
	}
	shape := e.cube.Shape()
	lo := make([]int, len(shape))
	ext := make([]int, len(shape))
	for m := range shape {
		if e.cube.enc.Dicts[m].Len() == 0 {
			return withinSum{}, nil // empty dictionary: this sub-cube holds nothing
		}
		ext[m] = shape[m] // unrestricted: the padded axis, whose padding is zero
	}
	for name, vr := range ranges {
		m, err := e.cube.DimIndex(name)
		if err != nil {
			return withinSum{}, err
		}
		loCode, hiCode, ok, err := e.cube.enc.Dicts[m].BoundsWithin(vr.Lo, vr.Hi)
		if err != nil {
			return withinSum{}, err
		}
		if !ok {
			return withinSum{}, nil // no values in range here
		}
		lo[m], ext[m] = loCode, hiCode-loCode+1
	}
	sum, err := e.rangeSum(x, box{lo, ext})
	return withinSum{sum: sum, ok: err == nil}, err
}

// RangeSumIndex computes the SUM over the half-open coordinate box
// [lo, lo+ext).
func (e *Engine) RangeSumIndex(lo, ext []int) (float64, error) {
	return untraced(runSafe(e, false, rangeRead, (*core).rangeSum, box{lo, ext}))
}

// RangeQuery is one scalar read of the range seam, RangeResult: the SUM
// over the box Ranges select (RangeSum), with lexicographic bounds when
// Within (RangeSumWithin), finalised as *Agg when Agg is set (RangeAgg), or
// the grand total when Total (Total; Ranges is then unused).
type RangeQuery struct {
	Ranges map[string]ValueRange
	Within bool
	Agg    *AggKind
	Total  bool
}

// RangeResult answers q with the answer, Metrics kind and span tree of the
// method it names; the trace is nil unless traced. ok is false when the read
// failed or, for Within, when the box held no values.
func (e *Engine) RangeResult(traced bool, q RangeQuery) (v float64, ok bool, qt *QueryTrace, err error) {
	switch {
	case q.Total:
		v, qt, err = runSafe(e, traced, totalRead, (*core).totalInner, struct{}{})
	case q.Agg != nil:
		v, qt, err = runSafe(e, traced, rangeAggRead, (*core).rangeAggInner, aggRanges{*q.Agg, q.Ranges})
	case q.Within:
		var w withinSum
		w, qt, err = runSafe(e, traced, rangeRead, (*core).rangeSumWithinInner, q.Ranges)
		return w.sum, w.ok, qt, err
	default:
		v, qt, err = runSafe(e, traced, rangeRead, (*core).rangeSumInner, q.Ranges)
	}
	return v, err == nil, qt, err
}

// box is the half-open coordinate box [lo, lo+ext) a range read sums.
type box struct{ lo, ext []int }

// cells returns the number of cells the box covers.
func (b box) cells() int {
	n := 1
	for _, e := range b.ext {
		n *= e
	}
	return n
}

// rangeSum is rangeInto's SUM component.
func (e *core) rangeSum(x *obs.ExecCtx, b box) (float64, error) {
	var out [3]float64 // room for the widest layout, StatsMeasure
	err := e.rangeInto(x, b, out[:e.spec.Width])
	return out[e.spec.Sum], err
}

// rangeInto sums the box of every plane into out, one value per plane: one
// contraction of the stored elements (DESIGN §6), under a "range_sum" span.
func (e *core) rangeInto(x *obs.ExecCtx, b box, out []float64) error {
	if len(out) != e.spec.Width {
		return fmt.Errorf("viewcube: %d sums for a cube of %d planes", len(out), e.spec.Width)
	}
	sp := x.Start("range_sum")
	defer sp.End()
	x = x.Under(sp)
	var loBuf, extBuf [freq.MaxRank]int
	p, lo, ext, err := e.rangeView(x, b, nil, loBuf[:0], extBuf[:0])
	if err != nil {
		return err
	}
	w, err := e.inner.Assembler().ContractRange(x, p, lo, ext, e.mass.bound(), out)
	if err != nil {
		return err
	}
	e.met.ranges.RangeQueries.Inc()
	e.countContraction(sp, w)
	sp.SetAttr("box_cells", int64(b.cells()))
	if len(out) > 1 {
		sp.SetAttr("measure_width", int64(len(out)))
	}
	return nil
}

// groupedRange sums the box grouped by the kept dimensions (which it covers
// whole) into a caller-owned array laid out like the aggregated view keeping
// them: one contraction, under a "grouped_range" span.
func (e *core) groupedRange(x *obs.ExecCtx, b box, keep []bool) (*ndarray.Array, error) {
	sp := x.Start("grouped_range")
	defer sp.End()
	x = x.Under(sp)
	var loBuf, extBuf [freq.MaxRank]int
	p, lo, ext, err := e.rangeView(x, b, keep, loBuf[:0], extBuf[:0])
	if err != nil {
		return nil, err
	}
	arr, w, err := e.inner.Assembler().ContractGrouped(x, p, lo, ext, keep, e.spec.Width, e.mass.bound())
	if err != nil {
		return nil, err
	}
	e.countContraction(sp, w)
	if e.spec.Width > 1 {
		sp.SetAttr("measure_width", int64(e.spec.Width))
	}
	return arr, nil
}

// rangeView returns the plan a box is contracted through, and the box (lo,
// ext, appended to the given buffers) in the coordinates of its element: the
// view that keeps every dimension the box filters or keeps and aggregates
// the ones it covers whole. Its plan is compiled over that view's corner of
// the element graph, often already cached for a group-by, where the root's
// plan costs a Procedure 3 pass over the whole graph (tens of milliseconds
// on an optimized 131 072-cell cube).
func (e *core) rangeView(x *obs.ExecCtx, b box, keep []bool, lo, ext []int) (*assembly.Plan, []int, []int, error) {
	space := e.cube.space
	if len(b.lo) != space.Rank() || len(b.ext) != space.Rank() {
		return nil, nil, nil, fmt.Errorf("viewcube: box rank %d does not match cube rank %d", len(b.lo), space.Rank())
	}
	r := space.Root()
	for m := range r {
		lo, ext = append(lo, b.lo[m]), append(ext, b.ext[m])
		if n := space.Dim(m); (keep == nil || !keep[m]) && b.lo[m] == 0 && b.ext[m] == n {
			r[m], ext[m] = freq.Node(n), 1 // aggregated: the all-partial leaf
		}
	}
	p, err := e.inner.Planner().Assembly(x, r)
	return p, lo, ext, err
}

// countContraction records a contraction's work on the range metrics and
// its span.
func (e *core) countContraction(sp *obs.Span, w assembly.Work) {
	e.met.ranges.ElementMiss.Add(uint64(w.Elements))
	e.met.ranges.CellsRead.Add(uint64(w.Cells))
	sp.SetAttr("elements", int64(w.Elements))
	sp.SetAttr("cells_read", int64(w.Cells))
	sp.SetAttr("cells", int64(w.Cells)) // what QueryTrace.CellsRead sums
}

// GroupByWhere answers the OLAP "dice" query: SUM grouped by the kept
// dimensions, restricted to contiguous value ranges on the remaining
// dimensions (unnamed filtered dimensions are unrestricted). It is answered
// by one contraction of the stored elements with the filter (DESIGN §6).
// Kept dimensions cannot also be filtered.
func (e *Engine) GroupByWhere(keep []string, ranges map[string]ValueRange) (*View, error) {
	return untraced(runSafe(e, false, groupByWhereRead, (*core).groupByWhereInner, dice{keep, ranges}))
}

func (e *core) groupByWhereInner(x *obs.ExecCtx, d dice) (*View, error) {
	if e.cube.enc == nil {
		return nil, fmt.Errorf("viewcube: GroupByWhere needs a dictionary-encoded cube")
	}
	keepMask, box, err := e.resolveGroupedBox(d.keep, d.ranges)
	if err != nil {
		return nil, err
	}
	arr, err := e.groupedRange(x, box, keepMask)
	if err != nil {
		return nil, err
	}
	el, err := e.cube.ViewKeeping(d.keep...)
	if err != nil {
		return nil, err
	}
	return newView(e.cube, el, arr)
}

// resolveGroupedBox builds the keep mask and coordinate box of a grouped
// "dice" query: filtered dimensions resolve through resolveRange, every
// other dimension covers its whole padded axis (padding cells are zero, so
// the sum is the same and the contraction's weights stay sparse). With
// nothing kept it is the box of a plain range query. Ranges need a
// dictionary-encoded cube.
func (e *core) resolveGroupedBox(keep []string, ranges map[string]ValueRange) ([]bool, box, error) {
	if e.cube.enc == nil && len(ranges) > 0 {
		return nil, box{}, fmt.Errorf("viewcube: value ranges need a dictionary-encoded cube")
	}
	shape := e.cube.Shape()
	keepMask := make([]bool, len(shape))
	for _, name := range keep {
		m, err := e.cube.DimIndex(name)
		if err != nil {
			return nil, box{}, err
		}
		if _, filtered := ranges[name]; filtered {
			return nil, box{}, fmt.Errorf("viewcube: dimension %q cannot be both kept and filtered", name)
		}
		keepMask[m] = true
	}
	lo := make([]int, len(shape))
	ext := make([]int, len(shape))
	copy(ext, shape)
	for name, vr := range ranges {
		m, err := e.cube.DimIndex(name)
		if err != nil {
			return nil, box{}, err
		}
		loCode, extCode, err := e.resolveRange(m, vr)
		if err != nil {
			return nil, box{}, err
		}
		lo[m], ext[m] = loCode, extCode
	}
	return keepMask, box{lo, ext}, nil
}

// resolveRange maps a ValueRange on dimension m to a coordinate interval.
func (e *core) resolveRange(m int, vr ValueRange) (lo, ext int, err error) {
	dict := e.cube.enc.Dicts[m]
	loCode := 0
	hiCode := dict.Len() - 1
	if vr.Lo != "" {
		c, ok := dict.Code(vr.Lo)
		if !ok {
			return 0, 0, fmt.Errorf("viewcube: value %q not in dimension %q", vr.Lo, e.cube.dims[m])
		}
		loCode = c
	}
	if vr.Hi != "" {
		c, ok := dict.Code(vr.Hi)
		if !ok {
			return 0, 0, fmt.Errorf("viewcube: value %q not in dimension %q", vr.Hi, e.cube.dims[m])
		}
		hiCode = c
	}
	if hiCode < loCode {
		return 0, 0, fmt.Errorf("viewcube: empty range on dimension %q", e.cube.dims[m])
	}
	return loCode, hiCode - loCode + 1, nil
}

// Update applies a delta to one cube cell and incrementally maintains every
// materialised element (each stored element changes in exactly one cell, by
// ±delta — O(elements · rank), independent of element volumes). The
// plan-cache epoch is bumped so no query serves a plan derived from
// pre-update state. On a measure-vector cube the delta is one new tuple
// with that measure: its components [v, v², 1] are folded into every plane.
//
// It runs under the write lock. With ingest enabled the delta is instead
// appended to the WAL and coalescing buffer and Update returns — visibility
// comes at the next snapshot publish (Flush waits for it). Zero deltas
// validate and return without locking either way.
func (e *Engine) Update(delta float64, idx ...int) error {
	return e.write(e.core.observation(delta), idx)
}

// observation is the component-vector delta of one new tuple with measure
// v: [v] on a SUM cube, [v, v², 1] on a measure-vector cube.
func (e *core) observation(v float64) []float64 {
	delta := make([]float64, e.spec.Width)
	delta[e.spec.Sum] = v
	if e.spec.SumSq >= 0 {
		delta[e.spec.SumSq] = v * v
	}
	if e.spec.Count >= 0 {
		delta[e.spec.Count] = 1
	}
	return delta
}

// update is Update with one delta per plane.
func (e *core) update(vals []float64, idx []int) error {
	if err := e.checkCell(idx); err != nil || isZero(vals) {
		// A zero delta validated the index and touched nothing: it must not
		// invalidate plans or result caches.
		return err
	}
	if err := e.mass.admit(vals); err != nil {
		return err
	}
	if err := e.applyDeltaRaw(vals, idx); err != nil {
		return err
	}
	e.inner.InvalidatePlans()
	return nil
}

// UpdateValue is Update addressed by dimension values on an encoded cube:
// the tuple's cell is located through the dictionaries, then maintained
// incrementally.
func (e *Engine) UpdateValue(delta float64, values map[string]string) error {
	idx, err := e.core.resolveUpdateIndex(values)
	if err != nil {
		return err
	}
	return e.Update(delta, idx...)
}

// resolveUpdateIndex maps a full tuple of dimension values to its cell
// index through the dictionaries. It only reads immutable encoding state,
// so it is safe without any lock.
func (e *core) resolveUpdateIndex(values map[string]string) ([]int, error) {
	if e.cube.enc == nil {
		return nil, fmt.Errorf("viewcube: UpdateValue needs a dictionary-encoded cube; use Update")
	}
	if len(values) != len(e.cube.dims) {
		return nil, fmt.Errorf("viewcube: need a value for each of the %d dimensions", len(e.cube.dims))
	}
	idx := make([]int, len(e.cube.dims))
	for name, val := range values {
		m, err := e.cube.DimIndex(name)
		if err != nil {
			return nil, err
		}
		code, ok := e.cube.enc.Dicts[m].Code(val)
		if !ok {
			return nil, fmt.Errorf("viewcube: value %q not in dimension %q", val, name)
		}
		idx[m] = code
	}
	return idx, nil
}

// SaveState writes the engine's observed workload profile (access counts
// per element) as JSON, so a restarted engine can resume adaptation warm.
// Materialised elements themselves persist via a DiskDir store; SaveState
// covers only the frequency statistics.
func (e *Engine) SaveState(w io.Writer) error {
	return locked(e, func(c *core) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(c.inner.State())
	})
}

// LoadState merges a previously saved workload profile into the engine.
func (e *Engine) LoadState(r io.Reader) error {
	var state map[string]float64
	if err := json.NewDecoder(r).Decode(&state); err != nil {
		return fmt.Errorf("viewcube: decoding engine state: %w", err)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.core.inner.RestoreState(state)
}

// Stats returns the adaptive counters of the materialised set.
func (e *Engine) Stats() Stats { return locked(e, func(c *core) Stats { return c.inner.Stats() }) }

// StoreStats reports the element store's cache behaviour; for an in-memory
// store every field is zero and Disk is false.
func (e *Engine) StoreStats() StoreStats {
	fs, ok := e.core.st.(*store.FileStore) // the base's store never changes
	if !ok {
		return StoreStats{}
	}
	return StoreStats{
		Disk:           true,
		CacheHits:      fs.Hits(),
		CacheMisses:    fs.Misses(),
		CacheEvictions: fs.Evictions(),
		CachedCells:    fs.CachedCells(),
	}
}

// PlanCacheStats reports the plan cache's behaviour: hit/miss counters (those
// of the engine's plan-cache series, so planners sharing a Metrics report
// their sum), the epoch-bump count, and the current epoch. Snapshot is the
// streaming-ingest snapshot epoch (0 when ingest is not enabled). Both are
// for display and the query log: result caches sync against DataVersion.
type PlanCacheStats struct {
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Invalidations uint64 `json:"invalidations"`
	Epoch         uint64 `json:"epoch"`
	Snapshot      uint64 `json:"snapshot_epoch,omitempty"`
	Entries       int    `json:"entries"`
}

// PlanCacheStats snapshots the engine's plan-cache counters, with the
// streaming snapshot epoch folded in when ingest is enabled. It takes no
// engine lock: the planner's counters are atomics behind the plan cache's
// own lock.
func (e *Engine) PlanCacheStats() PlanCacheStats {
	s := e.core.inner.Planner().Stats()
	return PlanCacheStats{
		Hits:          s.Hits,
		Misses:        s.Misses,
		Invalidations: s.Invalidations,
		Epoch:         s.Epoch,
		Snapshot:      e.SnapshotEpoch(),
		Entries:       s.Entries,
	}
}

// MaterializedElements returns how many view elements are currently
// materialised.
func (e *Engine) MaterializedElements() int {
	return locked(e, func(c *core) int { return len(c.st.Elements()) })
}

// StorageCells returns the current materialised volume in stored scalars:
// cells times planes.
func (e *Engine) StorageCells() int { return locked(e, (*core).storageCells) }

func (e *core) storageCells() int { return e.spec.Width * e.cube.space.SetVolume(e.st.Elements()) }
