package viewcube

import (
	"fmt"
	"strings"

	"viewcube/internal/assembly"
	"viewcube/internal/freq"
	"viewcube/internal/ndarray"
	"viewcube/internal/obs"
	"viewcube/internal/plan"
	"viewcube/internal/rangeagg"
	"viewcube/internal/relation"
	"viewcube/internal/velement"
)

// AggKind names an aggregate function servable by an AggEngine. SUM is the
// paper's native function; COUNT is SUM of the constant 1 (Gray et al.),
// and AVG, VAR and STDDEV are algebraic finalisers over the distributive
// component vector [Σv, Σv², Σ1].
type AggKind = plan.AggKind

// The aggregate kinds.
const (
	AggSum    = plan.AggSum
	AggCount  = plan.AggCount
	AggAvg    = plan.AggAvg
	AggVar    = plan.AggVar
	AggStdDev = plan.AggStdDev
)

// AggEngine answers SUM, COUNT, AVG, VAR and STDDEV queries from ONE
// measure-vector cube: every cell carries the component vector
// [Σv, Σv², Σ1], every Haar operator (fold, partial, residual, synthesis)
// applies per component — the operators are linear, so they distribute over
// the components — and each aggregate is a per-group finaliser applied
// after assembly. One stored element set, one Procedure 3 plan and one
// execution serve every aggregate kind, where the historical design needed
// one full engine (store + planner + executor) per distributive ingredient.
//
// Two scalar *Engine views (Sum, Count) remain available over the same
// storage: each adapts the classic Engine API onto one component plane of
// the shared vector store via assembly.ComponentStore, so workload
// optimisation, adaptive reselection, Explain and incremental maintenance
// keep working unchanged — backed by the same bytes the vector executor
// reads. Component 0 of every assembled vector is bit-identical to what a
// scalar SUM engine over the same element set produces (identical kernels,
// identical iteration order, per plane), which is what lets AvgEngine sit
// on top of AggEngine without changing a single answered value.
//
// Like a plain Engine, an AggEngine is not safe for concurrent use: its
// public query methods perform any due automatic reselection inline. Wrap it
// with Safe to share it across goroutines.
type AggEngine struct {
	// cube is the sum-plane cube: dimension metadata, encoding, workloads. Its
	// cells are the SUM plane of the vector cube the store adopted as its root
	// element: the one raw plane anything reads (Cube.At), so the one kept
	// current, and what keeps the planes alive until Cube.ReleaseCells.
	cube *Cube
	spec plan.MeasureSpec

	mst  *assembly.MemMultiStore
	veng *assembly.VectorEngine
	pl   *plan.Planner
	vq   *rangeagg.VecQuerier

	sum  *Engine
	cnt  *Engine
	mass *mass
}

// NewAggEngine builds the measure-vector cube [Σv, Σv², Σ1] from the
// relation and attaches the vector engine plus its two scalar component
// views. The vector store is in-memory; DiskDir is not supported.
func NewAggEngine(t *Table, opts EngineOptions) (*AggEngine, error) {
	if opts.DiskDir != "" {
		return nil, fmt.Errorf("viewcube: AggEngine does not support DiskDir (the vector store is in-memory)")
	}
	mdata, enc, err := relation.BuildMultiCube(t.t)
	if err != nil {
		return nil, err
	}
	space, err := velement.NewSpace(enc.Shape)
	if err != nil {
		return nil, err
	}
	spec := plan.StatsMeasure()
	m, err := massOf(spec.Width, mdata.Data())
	if err != nil {
		return nil, err
	}
	a := &AggEngine{spec: spec, mass: m}
	a.cube = &Cube{
		space:    space,
		data:     mdata.Component(spec.Sum),
		attached: true,
		dims:     append([]string(nil), enc.Dimensions...),
		measure:  t.Measure(),
		enc:      enc,
	}
	cntCube := &Cube{ // metadata only: the planes belong to a.cube
		space:   space,
		dims:    append([]string(nil), enc.Dimensions...),
		measure: "count_" + t.Measure(),
		enc:     enc,
	}
	a.mst = assembly.NewMemMultiStore()
	if err := a.mst.Put(space.Root(), mdata); err != nil {
		return nil, fmt.Errorf("viewcube: storing the vector cube: %w", err)
	}
	a.veng = assembly.NewVectorEngine(space, a.mst, spec.Width)
	a.veng.SetExecutor(opts.ExecWorkers, opts.ParallelExecCells)
	a.pl = plan.NewPlannerFor(a.veng, spec)
	a.vq = rangeagg.NewVecQuerier(space, aggElementSource{a}, spec.Width)

	assemble := func(r freq.Rect) (*ndarray.MultiArray, error) { return a.veng.Answer(nil, r) }
	sumStore := &assembly.ComponentStore{MS: a.mst, Comp: spec.Sum, Assemble: assemble, OnMutate: a.invalidate}
	cntStore := &assembly.ComponentStore{MS: a.mst, Comp: spec.Count, Assemble: assemble, OnMutate: a.invalidate}
	if a.sum, err = newEngineWith(a.cube, sumStore, opts); err != nil {
		return nil, err
	}
	if a.cnt, err = newEngineWith(cntCube, cntStore, opts); err != nil {
		return nil, err
	}
	a.veng.SetMetrics(a.sum.met.assembly)
	a.pl.SetMetrics(a.sum.met.plans)
	a.vq.SetMetrics(a.sum.met.ranges)
	return a, nil
}

// Cube returns the SUM-plane cube (dimension metadata, workloads, ...).
func (a *AggEngine) Cube() *Cube { return a.cube }

// Width returns the measure-vector component width.
func (a *AggEngine) Width() int { return a.spec.Width }

// SumEngine returns the scalar SUM-plane view of the engine.
func (a *AggEngine) SumEngine() *Engine { return a.sum }

// CountEngine returns the scalar COUNT-plane view of the engine.
func (a *AggEngine) CountEngine() *Engine { return a.cnt }

// invalidate drops every plan and element cache layered over the vector
// store: the vector planner and range querier, plus both scalar component
// views' plan caches and range caches. ComponentStore calls it after every
// store mutation (adaptive migration, incremental updates).
func (a *AggEngine) invalidate() {
	a.pl.Invalidate()
	a.vq.Reset()
	// Nil during construction: the component stores exist before the twins.
	if a.sum != nil {
		a.sum.inner.InvalidatePlans()
		a.sum.rq.Reset()
	}
	if a.cnt != nil {
		a.cnt.inner.InvalidatePlans()
		a.cnt.rq.Reset()
	}
}

// observeServed folds one vector-path query into both scalar views'
// adaptive recorders, so reselection statistics stay meaningful no matter
// which path served the query.
func (a *AggEngine) observeServed(r freq.Rect, cost int) {
	a.sum.inner.ObserveServed(r, cost)
	a.cnt.inner.ObserveServed(r, cost)
}

// maybeReselect runs any due automatic reselection on both component views
// (they share the vector store, so the second reconfiguration is a no-op).
func (a *AggEngine) maybeReselect() (bool, error) {
	changed, err := a.sum.maybeReselect()
	if err != nil {
		return changed, err
	}
	again, err := a.cnt.maybeReselect()
	return changed || again, err
}

// The measure-vector engine's side of the guarded constraint (safe.go).

func (a *AggEngine) metrics() *Metrics { return a.sum.met }

func (a *AggEngine) reselectDue() bool { return a.sum.reselectDue() || a.cnt.reselectDue() }

// ingestable: the vector store is always in-memory (NewAggEngine rejects
// DiskDir).
func (a *AggEngine) ingestable() error { return nil }

func (a *AggEngine) checkCell(idx []int) error { return a.sum.checkCell(idx) }

// admit bounds Σ|v|, Σv² and the count alike.
func (a *AggEngine) admit(vals []float64) error { return a.mass.admit(vals) }

// applyDeltaRaw folds one component-vector delta — [Σv, Σv², Σn] summed over
// the tuples coalesced at the cell — incrementally into every stored vector
// element (each changes in exactly one cell per component: the scalar
// linearity argument, applied per component) and, while the cube holds it
// beside the store, into the raw SUM plane.
func (a *AggEngine) applyDeltaRaw(vals []float64, idx []int) error {
	if len(vals) != a.spec.Width {
		return fmt.Errorf("viewcube: delta width %d on a width-%d vector cube", len(vals), a.spec.Width)
	}
	if err := assembly.UpdateCellMulti(a.cube.space, a.mst, vals, idx); err != nil {
		return err
	}
	if a.sum.rawCells() != 0 {
		a.cube.data.Add(vals[a.spec.Sum], idx...)
	}
	a.sum.met.updates.Inc()
	if a.cnt.met != a.sum.met {
		a.cnt.met.updates.Inc()
	}
	return nil
}

// rawCells counts every plane: the raw SUM plane keeps them all alive.
func (a *AggEngine) rawCells() int { return a.spec.Width * a.sum.rawCells() }

// resetDerived drops the range-element caches layered over the vector store
// (the vector querier's and both scalar views').
func (a *AggEngine) resetDerived() {
	a.vq.Reset()
	a.sum.rq.Reset()
	a.cnt.rq.Reset()
}

// snapshot deep-copies every stored vector element into a fresh store and
// derives a read-only generation over it: its own vector executor and range
// querier, the (epoch-pinned) shared plan cache, and the base's two scalar
// facades — which a vector read touches only for the workload recorder,
// the metrics and the dictionaries, never for their stores.
func (a *AggEngine) snapshot() (*AggEngine, error) {
	mst := assembly.NewMemMultiStore()
	for _, r := range a.mst.Elements() {
		ma, ok := a.mst.Get(r)
		if !ok {
			return nil, fmt.Errorf("viewcube: snapshot element %v vanished mid-clone", r)
		}
		if err := mst.Put(r, ma.Clone()); err != nil {
			return nil, fmt.Errorf("viewcube: storing snapshot element %v: %w", r, err)
		}
	}
	g := &AggEngine{cube: a.cube, spec: a.spec, mst: mst, sum: a.sum, cnt: a.cnt}
	g.veng = assembly.NewVectorEngine(a.cube.space, mst, a.spec.Width)
	g.veng.SetExecutor(a.sum.opts.ExecWorkers, a.sum.opts.ParallelExecCells)
	g.veng.SetMetrics(a.sum.met.assembly)
	g.pl = a.pl.ForSource(g.veng)
	g.vq = rangeagg.NewVecQuerier(a.cube.space, aggElementSource{g}, a.spec.Width)
	g.vq.SetMetrics(a.sum.met.ranges)
	return g, nil
}

// The vector engine's reads.
var (
	groupByAggRead = read[*AggEngine, aggKeep, *Result]{kind: "groupby", name: aggKeep.traceName, body: (*AggEngine).groupByAggInner}
	rangeAggRead   = read[*AggEngine, aggRanges, float64]{kind: "range", name: aggRanges.traceName, body: (*AggEngine).rangeAggInner}
	aggSQLRead     = read[*AggEngine, string, *Result]{kind: "sql", name: sqlName, body: (*AggEngine).queryInner}
)

// aggKeep is GroupByAgg's argument pair.
type aggKeep struct {
	kind AggKind
	keep []string
}

func (g aggKeep) traceName() string {
	return "groupby_agg " + g.kind.String() + " " + strings.Join(g.keep, ",")
}

// aggRanges is RangeAgg's argument pair.
type aggRanges struct {
	kind   AggKind
	ranges map[string]ValueRange
}

func (r aggRanges) traceName() string { return "range_agg " + r.kind.String() }

// runAgg is run for the vector engine's public entry points: the read is
// timed and counted in the SUM view's Metrics (the registry both views
// report into), then both views drain inline like a plain Engine.
func runAgg[A, T any](a *AggEngine, traced bool, r read[*AggEngine, A, T], args A) (T, *QueryTrace, error) {
	out, qt, err := run(a.sum.met, a, traced, r, args)
	if err == nil {
		_, err = a.maybeReselect()
	}
	return settle(out, qt, err)
}

// aggregateSpan opens the "aggregate KIND" span every traced GroupByAgg /
// RangeAgg nests its execution under, carrying the aggregate kind and
// measure width. Untraced it returns x unchanged and a nil span, whose End
// is a no-op.
func (a *AggEngine) aggregateSpan(x *obs.ExecCtx, kind AggKind) (*obs.ExecCtx, *obs.Span) {
	if !x.Tracing() {
		return x, nil
	}
	sp := x.Start("aggregate " + kind.String())
	sp.SetAttr("agg_kind", int64(kind))
	sp.SetAttr("measure_width", int64(a.spec.Width))
	return x.Under(sp), sp
}

// Optimize selects and materialises the best vector element set for an
// anticipated workload (expressed against the SUM-plane cube). One shared
// store serves every aggregate, so one optimisation covers them all.
func (a *AggEngine) Optimize(w *Workload) error {
	if err := a.sum.Optimize(w); err != nil {
		return err
	}
	// Mirror the workload into the count view's recorder: element identities
	// are shape-level and both views share a shape. Its reconfiguration sees
	// the store already migrated and changes nothing.
	cw := a.cnt.cube.NewWorkload()
	if w != nil {
		for _, ent := range w.entries {
			cw.entries = append(cw.entries, workloadEntry{rect: ent.rect.Clone(), freq: ent.freq})
		}
	}
	return a.cnt.Optimize(cw)
}

// aggElementSource feeds the vector range querier with assembled vector
// elements, recording accesses so adaptation sees range workloads too.
type aggElementSource struct{ a *AggEngine }

func (s aggElementSource) ElementMulti(x *obs.ExecCtx, r freq.Rect) (*ndarray.MultiArray, error) {
	ph, err := s.a.pl.Element(x, r)
	if err != nil {
		return nil, err
	}
	ma, err := s.a.veng.Execute(x, ph.Assembly)
	if err != nil {
		return nil, err
	}
	s.a.observeServed(r, ph.Cost)
	return ma, nil
}

// groupByVector assembles the measure-vector view keeping the named
// dimensions. The caller owns the array.
func (a *AggEngine) groupByVector(x *obs.ExecCtx, keep ...string) (*ndarray.MultiArray, Element, error) {
	el, err := a.cube.ViewKeeping(keep...)
	if err != nil {
		return nil, Element{}, err
	}
	ma, err := aggElementSource{a}.ElementMulti(x, el.rect)
	return ma, el, err
}

// result wraps an assembled vector view as the Result reporting aggs per
// group: one header, every component plane, the finalisers applied per row
// as it is emitted — no per-component maps in between. The result keeps the
// array as its lease: nothing else holds it. Zero-count semantics are uniform: with
// dropEmpty, groups with no tuples are not rows (the count-dividing
// finalisers are undefined there); without it every group of the cube's
// group space is reported, a zero where no tuples fall.
func (a *AggEngine) result(ma *ndarray.MultiArray, el Element, aggs []AggKind, dropEmpty bool) (*Result, error) {
	r, err := viewResult(a.cube, el.kept(), ma.Shape(), ma.Data(), a.spec.Width)
	if err != nil {
		return nil, err
	}
	r.spec, r.aggs, r.dropEmpty, r.mlease = a.spec, aggs, dropEmpty, ma
	return r, nil
}

// GroupByAgg answers GROUP BY keep... for any aggregate kind from one
// assembled vector view, as the map form of GroupByResult. Groups with no
// tuples are dropped for the count-dividing kinds (AVG, VAR, STDDEV), while
// SUM and COUNT report every group of the cube's group space.
func (a *AggEngine) GroupByAgg(kind AggKind, keep ...string) (map[string]float64, error) {
	return untraced(asGroups(runAgg(a, false, groupByAggRead, aggKeep{kind, keep})))
}

// TraceGroupByAgg is GroupByAgg with per-span tracing: an "aggregate KIND"
// span under the root carries agg_kind and measure_width attributes, and
// every assembly span below it reports the vector execution.
func (a *AggEngine) TraceGroupByAgg(kind AggKind, keep ...string) (map[string]float64, *QueryTrace, error) {
	return asGroups(runAgg(a, true, groupByAggRead, aggKeep{kind, keep}))
}

func (a *AggEngine) groupByAggInner(x *obs.ExecCtx, g aggKeep) (*Result, error) {
	x, sp := a.aggregateSpan(x, g.kind)
	defer sp.End()
	if err := a.spec.Supports(g.kind); err != nil {
		return nil, err
	}
	ma, el, err := a.groupByVector(x, g.keep...)
	if err != nil {
		return nil, err
	}
	return a.result(ma, el, []AggKind{g.kind}, g.kind.NeedsCount())
}

// RangeAgg answers the aggregate over the box selected by per-dimension
// value ranges (unnamed dimensions unrestricted), through intermediate
// vector view elements (§6). Count-dividing kinds (AVG, VAR, STDDEV) return
// an error when the box holds no tuples; SUM and COUNT return 0.
func (a *AggEngine) RangeAgg(kind AggKind, ranges map[string]ValueRange) (float64, error) {
	return untraced(runAgg(a, false, rangeAggRead, aggRanges{kind, ranges}))
}

// TraceRangeAgg is RangeAgg with per-span tracing.
func (a *AggEngine) TraceRangeAgg(kind AggKind, ranges map[string]ValueRange) (float64, *QueryTrace, error) {
	return runAgg(a, true, rangeAggRead, aggRanges{kind, ranges})
}

func (a *AggEngine) rangeAggInner(x *obs.ExecCtx, r aggRanges) (float64, error) {
	x, sp := a.aggregateSpan(x, r.kind)
	defer sp.End()
	if err := a.spec.Supports(r.kind); err != nil {
		return 0, err
	}
	_, box, err := a.sum.resolveGroupedBox(nil, r.ranges)
	if err != nil {
		return 0, err
	}
	vec := make([]float64, a.spec.Width)
	if err := a.vq.RangeVecCtx(x, box, vec); err != nil {
		return 0, err
	}
	v, ok := a.spec.Finalize(r.kind, vec)
	if !ok {
		return 0, fmt.Errorf("viewcube: no tuples in range")
	}
	return v, nil
}

// Update applies one new observation with the given measure to the cube
// cell at idx: the component delta [v, v², 1] is folded into the base cube
// and incrementally into every stored vector element. All plan and element
// caches are invalidated across the vector engine and both scalar views.
func (a *AggEngine) Update(measure float64, idx ...int) error {
	if err := a.checkCell(idx); err != nil {
		return err
	}
	delta := a.observation(measure)
	if err := a.admit(delta); err != nil {
		return err
	}
	if err := a.applyDeltaRaw(delta, idx); err != nil {
		return err
	}
	a.invalidate()
	return nil
}

// observation is the component-vector delta of one new tuple with the given
// measure value.
func (a *AggEngine) observation(measure float64) []float64 {
	delta := make([]float64, a.spec.Width)
	delta[a.spec.Sum] = measure
	delta[a.spec.SumSq] = measure * measure
	delta[a.spec.Count] = 1
	return delta
}

// UpdateValue is Update addressed by dimension values: one new tuple with
// the given measure, located through the dictionaries.
func (a *AggEngine) UpdateValue(measure float64, values map[string]string) error {
	idx, err := a.sum.resolveUpdateIndex(values)
	if err != nil {
		return err
	}
	return a.Update(measure, idx...)
}

// ExplainAgg renders the current vector execution plan for GROUP BY keep...
// under the given aggregate kind, without executing it. The header carries
// the aggregate kind and measure width next to the epoch and cache status.
func (a *AggEngine) ExplainAgg(kind AggKind, keep ...string) (string, error) {
	if err := a.spec.Supports(kind); err != nil {
		return "", err
	}
	el, err := a.cube.ViewKeeping(keep...)
	if err != nil {
		return "", err
	}
	ph, err := a.pl.Element(nil, el.rect)
	if err != nil {
		return "", err
	}
	ph.Agg = kind
	var b strings.Builder
	plan.Render(&b, el.String(), ph, a.sum.describer())
	return b.String(), nil
}

// Stats returns the SUM-plane view's adaptive counters (both views serve
// from the same store, so these describe the shared materialised set).
func (a *AggEngine) Stats() Stats { return a.sum.Stats() }

// MaterializedElements returns how many vector elements are materialised.
func (a *AggEngine) MaterializedElements() int { return len(a.mst.Elements()) }

// StorageCells returns the materialised volume in stored scalars
// (width × cells summed over elements).
func (a *AggEngine) StorageCells() int { return a.mst.Cells() }
