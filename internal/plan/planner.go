package plan

import (
	"viewcube/internal/assembly"
	"viewcube/internal/freq"
	"viewcube/internal/obs"
	"viewcube/internal/rescache"
)

// Planner compiles element plans against one assembly engine, caching them
// in an epoch-keyed Cache. It is the single planning entry point of the
// engine stack: queries, Explain and traced queries all go through the same
// Planner, so they see (and warm) the same cache and render the same IR.
//
// A Planner is safe for concurrent use; the owner must call Invalidate
// whenever the materialised set changes (a reselection that changed it,
// under the root engine's write lock). Cell values never enter a plan, so
// an Update or an ingest merge keeps every compiled plan.
type Planner struct {
	src  PlanSource
	spec MeasureSpec
	// cache is keyed by the element alone: a planner and every planner
	// ForSource derives from it share one measure layout.
	cache *rescache.Cache[freq.Key, *assembly.Plan]

	// pinned is set on planners derived by ForSource: the cache epoch
	// observed when the snapshot generation was published. The derived
	// planner looks up and stores at that epoch, so while the cache is still
	// there it reads and warms the shared cache as usual; once the epoch
	// moves (a reconfigure invalidated plan geometry) the draining generation
	// compiles uncached, and can never serve or insert stale-geometry plans
	// under the new epoch.
	pinned    uint64
	hasPinned bool
}

// PlanSource compiles a Procedure 3 assembly plan for one view element —
// typically an assembly.Engine. Plan geometry depends only on the stored
// rectangle set, never on the number of measure planes.
type PlanSource interface {
	ComputePlan(r freq.Rect) (*assembly.Plan, error)
}

// NewPlanner returns a planner over the plan source with a fresh cache, at
// the default bounds (rescache.DefaultMaxEntries plans), and the scalar
// measure layout.
func NewPlanner(src PlanSource) *Planner {
	cache := rescache.New[freq.Key, *assembly.Plan](rescache.Options{})
	return &Planner{src: src, spec: ScalarMeasure(), cache: cache}
}

// SetMeasure records the measure layout the stored cells carry, which the
// plan span and every physical plan report. Call it during wiring, before
// the first plan is compiled or a planner is derived.
func (p *Planner) SetMeasure(spec MeasureSpec) { p.spec = spec }

// ForSource derives a planner that compiles misses against src (typically
// an assembly engine over an immutable snapshot store) while sharing this
// planner's cache and measure layout, pinned to the cache's current epoch.
// Plan geometry depends only on the materialised rectangle set — not on
// stored values — so snapshot generations share warm plans across value
// merges and only fall off the cache when geometry actually changes.
func (p *Planner) ForSource(src PlanSource) *Planner {
	return &Planner{src: src, spec: p.spec, cache: p.cache, pinned: p.cache.Epoch(), hasPinned: true}
}

// SetMetrics attaches plan-cache instruments (which then back Stats); nil
// restores a private set.
func (p *Planner) SetMetrics(m *obs.CacheMetrics) { p.cache.SetMetrics(m) }

// Invalidate bumps the epoch, discarding every cached plan. It returns the
// new epoch.
func (p *Planner) Invalidate() uint64 { return p.cache.Invalidate() }

// Stats snapshots the plan-cache counters.
func (p *Planner) Stats() rescache.Stats { return p.cache.Stats() }

// Element returns the physical plan producing view element r, the form
// Explain renders: Assembly's plan with its epoch, cache status and measure
// layout.
func (p *Planner) Element(sp *obs.Span, r freq.Rect) (*Physical, error) {
	pl, epoch, hit, err := p.compiled(sp, r)
	if err != nil {
		return nil, err
	}
	return &Physical{Epoch: epoch, CacheHit: hit, Assembly: pl, Measure: p.spec, Cost: pl.Ops}, nil
}

// Assembly returns the plan producing view element r, serving it from the
// plan cache when the materialised set has not changed since the plan was
// compiled — the cache-hit path skips the Procedure 3 DP entirely. Every
// read plans through it. Under a span (nil means untraced), a "plan" child
// is recorded with a cache_hit attribute.
func (p *Planner) Assembly(sp *obs.Span, r freq.Rect) (*assembly.Plan, error) {
	pl, _, _, err := p.compiled(sp, r)
	return pl, err
}

// compiled is the cache lookup (and, on a miss, the compile) behind Element
// and Assembly, with the "plan" span.
func (p *Planner) compiled(sp *obs.Span, r freq.Rect) (*assembly.Plan, uint64, bool, error) {
	if sp != nil { // the name costs a Sprintf per dimension: traced queries only
		sp = sp.Start("plan " + r.String())
		defer sp.End()
	}
	epoch := p.cache.Epoch()
	if p.hasPinned {
		epoch = p.pinned
	}
	pl, hit, err := p.cache.GetOrComputeAt(epoch, r.Key(), func() (*assembly.Plan, error) {
		return p.src.ComputePlan(r)
	})
	if err != nil {
		return nil, 0, false, err
	}
	if hit {
		sp.SetAttr("cache_hit", 1)
	} else {
		sp.SetAttr("cache_hit", 0)
	}
	if p.spec.Width > 1 {
		sp.SetAttr("measure_width", int64(p.spec.Width))
	}
	sp.SetAttr("plan_ops", int64(pl.Ops))
	return pl, epoch, hit, nil
}
