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

// AggKind names an aggregate function an Engine can finalise. SUM is the
// paper's native function and every engine serves it; COUNT is SUM of the
// constant 1 (Gray et al.), and AVG, VAR and STDDEV are algebraic finalisers
// over the distributive component vector [Σv, Σv², Σ1], which only the
// measure-vector cube of NewAggEngine carries.
type AggKind = plan.AggKind

// The aggregate kinds.
const (
	AggSum    = plan.AggSum
	AggCount  = plan.AggCount
	AggAvg    = plan.AggAvg
	AggVar    = plan.AggVar
	AggStdDev = plan.AggStdDev
)

// NewAggEngine builds the measure-vector cube [Σv, Σv², Σ1] from the
// relation and attaches one engine to it: every cell carries the component
// vector as three planes of one array, every Haar operator (fold, partial,
// residual, synthesis) applies per plane — the operators are linear, so they
// distribute over the components — and each aggregate is a per-group
// finaliser applied after assembly. One selection, one migration cascade,
// one store, one plan per element, one snapshot and one ingest path serve
// every aggregate kind. Plane 0 of every assembled element is bit-identical
// to what a SUM engine over the same element set produces (identical
// kernels, identical iteration order, per plane), and plane 2 to a COUNT
// engine's. The store is in-memory; DiskDir is not supported.
func NewAggEngine(t *Table, opts EngineOptions) (*Engine, error) {
	if opts.DiskDir != "" {
		return nil, fmt.Errorf("viewcube: NewAggEngine does not support DiskDir (the vector store is in-memory)")
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
	return cube.NewEngine(opts)
}

// aggKeep is GroupByAgg's argument pair.
type aggKeep struct {
	kind AggKind
	keep []string
}

func aggKeepName(args any) string {
	g := args.(aggKeep)
	return "groupby_agg " + g.kind.String() + " " + strings.Join(g.keep, ",")
}

// aggRanges is RangeAgg's argument pair.
type aggRanges struct {
	kind   AggKind
	ranges map[string]ValueRange
}

func aggRangesName(args any) string { return "range_agg " + args.(aggRanges).kind.String() }

// supports rejects an aggregate kind the engine's measure layout cannot
// finalise: on a SUM cube, everything but SUM.
func (e *core) supports(kind AggKind) error {
	if err := e.spec.Supports(kind); err != nil {
		return fmt.Errorf("viewcube: %v needs a measure-vector engine from NewAggEngine: %w", kind, err)
	}
	return nil
}

// aggregateSpan opens the "aggregate KIND" span every traced GroupByAgg /
// RangeAgg nests its execution under, carrying the aggregate kind and
// measure width. Untraced it returns x unchanged and a nil span, whose End
// is a no-op.
func (e *core) aggregateSpan(x *obs.ExecCtx, kind AggKind) (*obs.ExecCtx, *obs.Span) {
	if !x.Tracing() {
		return x, nil
	}
	sp := x.Start("aggregate " + kind.String())
	sp.SetAttr("agg_kind", int64(kind))
	sp.SetAttr("measure_width", int64(e.spec.Width))
	return x.Under(sp), sp
}

// result wraps an assembled view as the Result reporting aggs per group: one
// header, every component plane, the finalisers applied per row as it is
// emitted — no per-component maps in between. The result keeps the array as
// its lease: nothing else holds it. Zero-count semantics are uniform: with
// dropEmpty, groups with no tuples are not rows (the count-dividing
// finalisers are undefined there); without it every group of the cube's
// group space is reported, a zero where no tuples fall.
func (e *core) result(arr *ndarray.Array, el Element, aggs []AggKind, dropEmpty bool) (*Result, error) {
	r, err := viewResult(e.cube, el.kept(), arr.Shape(), arr.Data(), e.spec.Width)
	if err != nil {
		return nil, err
	}
	r.spec, r.aggs, r.dropEmpty, r.lease = e.spec, aggs, dropEmpty, arr
	return r, nil
}

// GroupByAgg answers GROUP BY keep... for any aggregate kind the engine's
// measure layout supports, from one assembled view, as the map form of
// GroupByAggResult. Groups with no tuples are dropped for the count-dividing
// kinds (AVG, VAR, STDDEV), while SUM and COUNT report every group of the
// cube's group space.
func (e *Engine) GroupByAgg(kind AggKind, keep ...string) (map[string]float64, error) {
	return untraced(asGroups(e.GroupByAggResult(false, kind, keep...)))
}

// GroupByAggResult is GroupByAgg as the columnar Result; the trace is nil
// unless traced. A traced read nests an "aggregate KIND" span under the
// root, carrying agg_kind and measure_width attributes, and every assembly
// span below it reports the vector execution.
func (e *Engine) GroupByAggResult(traced bool, kind AggKind, keep ...string) (*Result, *QueryTrace, error) {
	return runSafe(e, traced, groupByAggRead, (*core).groupByAggInner, aggKeep{kind, keep})
}

func (e *core) groupByAggInner(x *obs.ExecCtx, g aggKeep) (*Result, error) {
	x, sp := e.aggregateSpan(x, g.kind)
	defer sp.End()
	if err := e.supports(g.kind); err != nil {
		return nil, err
	}
	el, err := e.cube.ViewKeeping(g.keep...)
	if err != nil {
		return nil, err
	}
	arr, err := e.inner.Query(x, el.rect)
	if err != nil {
		return nil, err
	}
	return e.result(arr, el, []AggKind{g.kind}, g.kind.NeedsCount())
}

// RangeAgg answers the aggregate over the box selected by per-dimension
// value ranges (unnamed dimensions unrestricted), from one contraction of
// every plane (DESIGN §6). Count-dividing kinds (AVG, VAR, STDDEV) return
// an error when the box holds no tuples; SUM and COUNT return 0.
func (e *Engine) RangeAgg(kind AggKind, ranges map[string]ValueRange) (float64, error) {
	return untraced(runSafe(e, false, rangeAggRead, (*core).rangeAggInner, aggRanges{kind, ranges}))
}

func (e *core) rangeAggInner(x *obs.ExecCtx, r aggRanges) (float64, error) {
	x, sp := e.aggregateSpan(x, r.kind)
	defer sp.End()
	if err := e.supports(r.kind); err != nil {
		return 0, err
	}
	_, box, err := e.resolveGroupedBox(nil, r.ranges)
	if err != nil {
		return 0, err
	}
	vec := make([]float64, e.spec.Width)
	if err := e.rangeInto(x, box, vec); err != nil {
		return 0, err
	}
	v, ok := e.spec.Finalize(r.kind, vec)
	if !ok {
		return 0, fmt.Errorf("viewcube: no tuples in range")
	}
	return v, nil
}

// ExplainAgg renders the current execution plan for GROUP BY keep... under
// the given aggregate kind, without executing it. On a measure-vector cube
// the header carries the aggregate kind and measure width next to the epoch
// and cache status.
func (e *Engine) ExplainAgg(kind AggKind, keep ...string) (string, error) {
	if err := e.core.supports(kind); err != nil {
		return "", err
	}
	el, err := e.Cube().ViewKeeping(keep...)
	if err != nil {
		return "", err
	}
	return e.explain(el, kind)
}
