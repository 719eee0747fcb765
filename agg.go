package viewcube

import (
	"fmt"
	"strings"

	"viewcube/internal/ndarray"
	"viewcube/internal/obs"
	"viewcube/internal/plan"
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
// [Σv, Σv², Σ1] as three planes of one array, every Haar operator (fold,
// partial, residual, synthesis) applies per plane — the operators are
// linear, so they distribute over the components — and each aggregate is a
// per-group finaliser applied after assembly. It is one Engine over that
// three-plane cube: one selection, one migration cascade, one store, one
// plan per element, one snapshot and one ingest path serve every aggregate
// kind. Plane 0 of every assembled element is bit-identical to what a
// scalar SUM engine over the same element set produces (identical kernels,
// identical iteration order, per plane), and plane 2 to a COUNT engine's.
//
// Like a plain Engine, an AggEngine is not safe for concurrent use: its
// public query methods perform any due automatic reselection inline. Wrap it
// with Safe to share it across goroutines.
type AggEngine struct {
	// eng is a named field, not embedded: the scalar Engine methods do not
	// apply to a three-plane cube. Its cube holds the planes until
	// Cube.ReleaseCells; the Cube accessors read the SUM plane.
	eng  *Engine
	spec plan.MeasureSpec
}

// NewAggEngine builds the measure-vector cube [Σv, Σv², Σ1] from the
// relation and attaches one engine to it. The store is in-memory; DiskDir
// is not supported.
func NewAggEngine(t *Table, opts EngineOptions) (*AggEngine, error) {
	if opts.DiskDir != "" {
		return nil, fmt.Errorf("viewcube: AggEngine does not support DiskDir (the vector store is in-memory)")
	}
	data, enc, err := relation.BuildMultiCube(t.t)
	if err != nil {
		return nil, err
	}
	space, err := velement.NewSpace(enc.Shape)
	if err != nil {
		return nil, err
	}
	cube := &Cube{
		space:   space,
		data:    data,
		dims:    append([]string(nil), enc.Dimensions...),
		measure: t.Measure(),
		enc:     enc,
	}
	eng, err := cube.NewEngine(opts)
	if err != nil {
		return nil, err
	}
	a := &AggEngine{eng: eng, spec: plan.StatsMeasure()}
	eng.inner.Planner().SetMeasure(a.spec)
	return a, nil
}

// Cube returns the cube (dimension metadata, workloads, ...); its
// accessors read the SUM plane.
func (a *AggEngine) Cube() *Cube { return a.eng.cube }

// Width returns the measure-vector component width.
func (a *AggEngine) Width() int { return a.spec.Width }

// The measure-vector engine's side of the guarded constraint (safe.go): the
// engine's own, with width-3 deltas.

func (a *AggEngine) metrics() *Metrics { return a.eng.met }

func (a *AggEngine) reselectDue() bool { return a.eng.reselectDue() }

func (a *AggEngine) maybeReselect() (bool, error) { return a.eng.maybeReselect() }

func (a *AggEngine) ingestable() error { return a.eng.ingestable() }

func (a *AggEngine) checkCell(idx []int) error { return a.eng.checkCell(idx) }

// admit bounds Σ|v|, Σv² and the count alike.
func (a *AggEngine) admit(vals []float64) error { return a.eng.admit(vals) }

// applyDeltaRaw folds one component-vector delta — [Σv, Σv², Σn] summed over
// the tuples coalesced at the cell — into every plane of every stored
// element.
func (a *AggEngine) applyDeltaRaw(vals []float64, idx []int) error {
	return a.eng.applyDeltaRaw(vals, idx)
}

func (a *AggEngine) rawCells() int { return a.eng.rawCells() }

// snapshot derives a read-only generation over a deep copy of the store.
func (a *AggEngine) snapshot() (*AggEngine, error) {
	g, err := a.eng.snapshot()
	if err != nil {
		return nil, err
	}
	return &AggEngine{eng: g, spec: a.spec}, nil
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
// timed and counted in the engine's Metrics, then a due reselection runs
// inline like on a plain Engine.
func runAgg[A, T any](a *AggEngine, traced bool, r read[*AggEngine, A, T], args A) (T, *QueryTrace, error) {
	out, qt, err := run(a.eng.met, a, traced, r, args)
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

// Optimize selects and materialises the best element set for an
// anticipated workload (expressed against the cube). One store serves every
// aggregate, so one optimisation covers them all.
func (a *AggEngine) Optimize(w *Workload) error { return a.eng.Optimize(w) }

// groupByVector assembles the measure-vector view keeping the named
// dimensions. The caller owns the array.
func (a *AggEngine) groupByVector(x *obs.ExecCtx, keep ...string) (*ndarray.Array, Element, error) {
	el, err := a.eng.cube.ViewKeeping(keep...)
	if err != nil {
		return nil, Element{}, err
	}
	arr, err := a.eng.inner.Query(x, el.rect)
	return arr, el, err
}

// result wraps an assembled vector view as the Result reporting aggs per
// group: one header, every component plane, the finalisers applied per row
// as it is emitted — no per-component maps in between. The result keeps the
// array as its lease: nothing else holds it. Zero-count semantics are uniform: with
// dropEmpty, groups with no tuples are not rows (the count-dividing
// finalisers are undefined there); without it every group of the cube's
// group space is reported, a zero where no tuples fall.
func (a *AggEngine) result(arr *ndarray.Array, el Element, aggs []AggKind, dropEmpty bool) (*Result, error) {
	r, err := viewResult(a.eng.cube, el.kept(), arr.Shape(), arr.Data(), a.spec.Width)
	if err != nil {
		return nil, err
	}
	r.spec, r.aggs, r.dropEmpty, r.lease = a.spec, aggs, dropEmpty, arr
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
	arr, el, err := a.groupByVector(x, g.keep...)
	if err != nil {
		return nil, err
	}
	return a.result(arr, el, []AggKind{g.kind}, g.kind.NeedsCount())
}

// RangeAgg answers the aggregate over the box selected by per-dimension
// value ranges (unnamed dimensions unrestricted), from one contraction of
// every plane (DESIGN §6). Count-dividing kinds (AVG, VAR, STDDEV) return
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
	_, box, err := a.eng.resolveGroupedBox(nil, r.ranges)
	if err != nil {
		return 0, err
	}
	vec := make([]float64, a.spec.Width)
	if err := a.eng.rangeInto(x, box, vec); err != nil {
		return 0, err
	}
	v, ok := a.spec.Finalize(r.kind, vec)
	if !ok {
		return 0, fmt.Errorf("viewcube: no tuples in range")
	}
	return v, nil
}

// Update applies one new observation with the given measure to the cube
// cell at idx: the component delta [v, v², 1] is folded incrementally into
// every plane of every stored element, and the plan cache is invalidated.
func (a *AggEngine) Update(measure float64, idx ...int) error {
	return a.eng.update(a.observation(measure), idx)
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
	idx, err := a.eng.resolveUpdateIndex(values)
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
	el, err := a.eng.cube.ViewKeeping(keep...)
	if err != nil {
		return "", err
	}
	ph, err := a.eng.inner.Planner().Element(nil, el.rect)
	if err != nil {
		return "", err
	}
	ph.Agg = kind
	var b strings.Builder
	plan.Render(&b, el.String(), ph, a.eng.describer())
	return b.String(), nil
}

// Stats returns the engine's adaptive counters.
func (a *AggEngine) Stats() Stats { return a.eng.Stats() }

// MaterializedElements returns how many vector elements are materialised.
func (a *AggEngine) MaterializedElements() int { return a.eng.MaterializedElements() }

// StorageCells returns the materialised volume in stored scalars
// (width × cells summed over elements).
func (a *AggEngine) StorageCells() int { return a.eng.StorageCells() }
