package viewcube

import (
	"fmt"
	"strings"

	"viewcube/internal/freq"
	"viewcube/internal/plan"
)

// Explain returns the engine's current execution plan for a view element as
// a human-readable tree, without executing it: which stored elements it
// reads, what it aggregates down, what it synthesises, and the modelled
// add/subtract cost of every step, plus the plan-cache epoch and whether
// the plan came from the cache. The plan reflects the materialised set at
// call time; after Optimize or adaptation it may change.
//
// Explain goes through the engine's own planner — the very plan it renders
// is the one a query for the same element executes (and explaining warms
// the shared plan cache). Planning through the planner never records an
// access for adaptation; only executed queries do.
func (e *Engine) Explain(el Element) (string, error) {
	if !e.Cube().Valid(el) {
		return "", fmt.Errorf("viewcube: invalid element %v", el)
	}
	return e.explain(el, AggSum)
}

// explain renders the plan of el under the aggregate kind a query of it
// finalises, against the state a query would run on — the pinned snapshot
// under ingest, the base under the read lock otherwise — so it renders the
// plan queries actually execute and never waits out the merger. Planning is
// a pure read of the materialised set (and of the shared plan cache, which
// is concurrency-safe), so explains overlap queries freely.
func (e *Engine) explain(el Element, kind AggKind) (string, error) {
	c, snap := e.reader()
	defer e.release(snap)
	return c.explain(el, kind)
}

func (e *core) explain(el Element, kind AggKind) (string, error) {
	ph, err := e.plans.Element(nil, el.rect)
	if err != nil {
		return "", err
	}
	ph.Agg = kind
	var b strings.Builder
	plan.Render(&b, el.String(), ph, e.describer())
	return b.String(), nil
}

// ExplainGroupBy is Explain for the view that keeps the named dimensions.
func (e *Engine) ExplainGroupBy(keep ...string) (string, error) {
	el, err := e.Cube().ViewKeeping(keep...)
	if err != nil {
		return "", err
	}
	return e.explain(el, AggSum)
}

// describer maps frequency-plane geometry back to the cube's dimension
// names for plan rendering.
func (e *core) describer() plan.Describer {
	return plan.Describer{
		Rect: func(r freq.Rect) string { return describeRect(e.cube, r) },
		Dim:  func(m int) string { return e.cube.dims[m] },
	}
}

// describeRect renders an element compactly, using aggregated-view
// shorthand with dimension names where possible.
func describeRect(c *Cube, r freq.Rect) string {
	el := Element{rect: r}
	if c.IsAggregatedView(el) {
		kept, err := c.KeptDims(el)
		if err == nil {
			if len(kept) == len(c.dims) {
				return "cube"
			}
			if len(kept) == 0 {
				return "grand-total"
			}
			return "view{" + strings.Join(kept, ",") + "}"
		}
	}
	return r.String()
}
