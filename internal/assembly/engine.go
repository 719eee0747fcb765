package assembly

import (
	"fmt"
	"math"

	"viewcube/internal/core"
	"viewcube/internal/freq"
	"viewcube/internal/haar"
	"viewcube/internal/ndarray"
	"viewcube/internal/obs"
	"viewcube/internal/velement"
)

// PlanKind names the three ways a view element can be produced.
type PlanKind int

const (
	// PlanStored reads the element directly from the store.
	PlanStored PlanKind = iota
	// PlanAggregate cascades partial/residual aggregations down from a
	// stored ancestor (the F legs of Eq. 28).
	PlanAggregate
	// PlanSynthesize perfectly reconstructs the element from its partial
	// and residual children on one dimension (Eq. 3–4 / Eq. 32).
	PlanSynthesize
)

func (k PlanKind) String() string {
	switch k {
	case PlanStored:
		return "stored"
	case PlanAggregate:
		return "aggregate"
	case PlanSynthesize:
		return "synthesize"
	default:
		return fmt.Sprintf("PlanKind(%d)", int(k))
	}
}

// Plan is the operator tree that produces one view element. Its structure
// is exactly the argmin structure of Procedure 3.
type Plan struct {
	Rect freq.Rect
	Kind PlanKind

	// Source is the stored ancestor for PlanAggregate.
	Source freq.Rect
	// Dim is the synthesis dimension for PlanSynthesize.
	Dim int
	// Partial and Residual are the child plans for PlanSynthesize.
	Partial, Residual *Plan

	// Ops is the modelled number of add/subtract operations of this node
	// and its subtree (0 for stored elements).
	Ops int

	// Folds caches the fused per-dimension cascades for PlanAggregate
	// (Source → Rect), precomputed at plan time so execution does not
	// re-derive them per query. May be nil on hand-built plans; execution
	// then falls back to haar.PathFolds.
	Folds []haar.Fold
}

// Engine answers view-element queries from a store of materialised
// elements, planning each answer with the Procedure 3 cost recursion and
// executing it with the Haar operators. The engine never touches the
// original cube: everything is assembled from the store.
//
// The engine holds only immutable planning state (space, store handle,
// metrics wiring): answering a query writes nothing through the receiver,
// so any number of ComputePlan/Execute calls may run concurrently as long
// as the store itself is safe for concurrent reads. Per-query state (the
// trace) arrives as an explicit *obs.Span, the span the work nests under.
type Engine struct {
	space *velement.Space
	store Store
	met   *obs.AssemblyMetrics
	// cloning records whether the store's Get already returns private
	// copies (CloningStore), letting a read keep them instead of copying
	// again.
	cloning bool
}

// NewEngine returns an engine over the given space and store.
func NewEngine(space *velement.Space, store Store) *Engine {
	e := &Engine{space: space, store: store, met: obs.NewAssemblyMetrics(nil)}
	if cs, ok := store.(CloningStore); ok && cs.ClonesOnGet() {
		e.cloning = true
	}
	return e
}

// SetMetrics attaches registered instruments; nil restores the no-op set.
// Call it during wiring, before the engine is shared across goroutines:
// the instruments themselves are concurrency-safe atomics, but the handle
// swap is not synchronised.
func (e *Engine) SetMetrics(m *obs.AssemblyMetrics) {
	if m == nil {
		m = obs.NewAssemblyMetrics(nil)
	}
	e.met = m
}

// Space returns the engine's view element space.
func (e *Engine) Space() *velement.Space { return e.space }

// Store returns the engine's element store.
func (e *Engine) Store() Store { return e.store }

// ComputePlan runs the Procedure 3 cost recursion for element r with no
// span bookkeeping — the raw planning primitive the cached planner wraps.
// The returned tree is freshly built, immutable under execution, and safe
// to share between concurrent executions.
func (e *Engine) ComputePlan(r freq.Rect) (*Plan, error) {
	return computePlan(e.space, e.store.Elements(), e.met, r)
}

// get reads one stored element, forwarding the current span to stores that
// can record per-query spans (CtxStore).
func (e *Engine) get(sp *obs.Span, r freq.Rect) (*ndarray.Array, bool) {
	if cs, ok := e.store.(CtxStore); ok {
		return cs.GetCtx(sp, r)
	}
	return e.store.Get(r)
}

// computePlan reads the argmin tree of Procedure 3 (core.Proc3) for element
// r over one stored rectangle set. It depends only on the space geometry
// and that set — never on cell contents or plane count. The kernel and its
// memo live for this one compile.
func computePlan(space *velement.Space, stored []freq.Rect, met *obs.AssemblyMetrics, r freq.Rect) (*Plan, error) {
	if !space.Valid(r) {
		return nil, fmt.Errorf("assembly: %v is not a view element of the space", r)
	}
	met.Plans.Inc()
	k := core.NewProc3(space, stored)
	plan := buildPlan(k, r.Clone())
	met.NodesVisited.Add(uint64(k.Visited()))
	if plan == nil {
		return nil, fmt.Errorf("assembly: stored set cannot generate %v (incomplete)", r)
	}
	return plan, nil
}

// buildPlan materialises the winning alternative at r and, for a synthesis,
// below it; nil means the stored set cannot generate r. Only winners get a
// Plan node and fused cascades — the kernel's other candidates never do.
func buildPlan(k *core.Proc3, r freq.Rect) *Plan {
	d := k.Decide(r)
	switch {
	case math.IsInf(d.Cost, 1):
		return nil
	case d.Dim >= 0:
		return &Plan{
			Rect:     r,
			Kind:     PlanSynthesize,
			Dim:      d.Dim,
			Partial:  buildPlan(k, r.Child(d.Dim, false)),
			Residual: buildPlan(k, r.Child(d.Dim, true)),
			Ops:      int(d.Cost),
		}
	case d.Source.Equal(r):
		return &Plan{Rect: r, Kind: PlanStored}
	default:
		p := &Plan{Rect: r, Kind: PlanAggregate, Source: d.Source.Clone(), Ops: int(d.Cost)}
		// Source contains r, so PathFolds cannot fail; a nil Folds on any
		// unexpected error just defers derivation to execution (which will
		// surface it).
		p.Folds, _ = haar.PathFolds(p.Source, p.Rect)
		return p
	}
}
