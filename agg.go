package viewcube

import (
	"fmt"

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

// aggKinds lists the aggregate kinds at their own values. oneAgg slices it
// into the one-kind list a read or a Result reports, so neither allocates
// one: nothing writes or appends to an ask's or a Result's aggs.
var aggKinds = [...]AggKind{AggSum, AggCount, AggAvg, AggVar, AggStdDev}

// oneAgg is the read-only list of the one aggregate k.
func oneAgg(k AggKind) []AggKind {
	if k < 0 || int(k) >= len(aggKinds) {
		return []AggKind{k} // not a kind: the read fails naming it
	}
	return aggKinds[k : k+1 : k+1]
}

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

// supports rejects an aggregate kind the engine's measure layout cannot
// finalise: on a SUM cube, everything but SUM.
func (e *core) supports(kind AggKind) error {
	if err := e.spec.Supports(kind); err != nil {
		return fmt.Errorf("viewcube: %v needs a measure-vector engine from NewAggEngine: %w", kind, err)
	}
	return nil
}

// aggregate opens the "aggregate KIND" span a GroupByAgg or RangeAgg read
// nests its execution under, carrying the aggregate kind and measure width,
// and rejects a kind the measure layout cannot finalise. It returns the new
// span, under which the read goes on; untraced (sp nil) it is nil too.
func (e *core) aggregate(sp *obs.Span, kind AggKind) (*obs.Span, error) {
	if sp != nil { // the name costs a concatenation: traced reads only
		sp = sp.Start("aggregate " + kind.String())
		sp.SetAttr("agg_kind", int64(kind))
		sp.SetAttr("measure_width", int64(e.spec.Width))
	}
	return sp, e.supports(kind)
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
	a := ask{r: &groupByAggRead, form: resultForm, keep: keep, aggs: oneAgg(kind), dropEmpty: kind.NeedsCount()}
	ans, qt, err := runSafe(e, traced, a)
	return ans.res, qt, err
}

// RangeAgg answers the aggregate over the box selected by per-dimension
// value ranges (unnamed dimensions unrestricted), from one contraction of
// every plane (DESIGN §6). Count-dividing kinds (AVG, VAR, STDDEV) return
// an error when the box holds no tuples; SUM and COUNT return 0.
func (e *Engine) RangeAgg(kind AggKind, ranges map[string]ValueRange) (float64, error) {
	a, _, err := runSafe(e, false, ask{r: &rangeAggRead, boxed: true, ranges: ranges, aggs: oneAgg(kind)})
	return a.v, err
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
