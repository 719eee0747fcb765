// Package plan is the shared query-plan layer of the engine stack: every
// read (view-element queries, GROUP BYs, and — through the plan of the view
// a box is cut from — range SUMs and grouped "dice" queries) compiles to the
// Procedure 3 assembly DAG of package assembly, with an epoch-keyed
// concurrency-safe plan cache so the Procedure 3 dynamic program runs once
// per (materialised set, target) rather than once per query.
//
// What a read asks for is resolved by the caller into a frequency
// rectangle; the Planner compiles it into the assembly DAG that the read
// kernel (assembly.Engine.Execute and the range contractions, one
// contraction of the stored elements) consumes without re-deriving it.
// Explain renders a Physical: the same DAG annotated with its epoch, cache
// status and measure layout.
package plan

import (
	"fmt"
	"strings"

	"viewcube/internal/assembly"
	"viewcube/internal/freq"
)

// Physical is one executable plan as Explain renders it: the Procedure 3
// assembly DAG producing an element. Physical plans are immutable and safe
// to share between concurrent executions: the read kernel only reads them.
type Physical struct {
	// Epoch is the materialised-set epoch the plan was derived under; a
	// cached plan is only served while the cache is still at this epoch.
	Epoch uint64
	// CacheHit reports whether this retrieval skipped the Procedure 3 DP.
	CacheHit bool

	// Assembly is the Procedure 3 operator DAG.
	Assembly *assembly.Plan

	// Measure is the component layout the plan's cells carry; a scalar
	// plan has Width ≤ 1 and renders exactly as it always did.
	Measure MeasureSpec
	// Agg is the aggregate finaliser the caller will apply to the
	// assembled vector (annotation for Explain/trace rendering; execution
	// is finaliser-agnostic).
	Agg AggKind

	// Cost is the modelled cost: the add/subtract operations of the whole
	// DAG (Assembly.Ops).
	Cost int
}

// Describer maps frequency-plane geometry back to user-facing names when
// rendering plans; both callbacks may be nil (raw rendering).
type Describer struct {
	// Rect renders an element (e.g. "view{product}" or "cube").
	Rect func(freq.Rect) string
	// Dim renders a dimension index as its name.
	Dim func(m int) string
}

func (d Describer) rect(r freq.Rect) string {
	if d.Rect != nil {
		return d.Rect(r)
	}
	return r.String()
}

func (d Describer) dim(m int) string {
	if d.Dim != nil {
		return d.Dim(m)
	}
	return fmt.Sprintf("dim%d", m)
}

// Render writes the physical plan as a human-readable tree: a header with
// the total modelled cost, epoch and cache status, then one line per node.
// This is the one renderer Explain, traces' textual form and the HTTP
// /explain endpoint share.
func Render(b *strings.Builder, target string, ph *Physical, d Describer) {
	status := "miss"
	if ph.CacheHit {
		status = "hit"
	}
	// Vector plans carry the aggregate kind and measure width in the
	// header; scalar plans keep the historical format untouched.
	measure := ""
	if ph.Measure.Width > 1 {
		measure = fmt.Sprintf(", agg %s, width %d", ph.Agg, ph.Measure.Width)
	}
	fmt.Fprintf(b, "plan for %s (total cost %d ops) [epoch %d, plan cache %s%s]\n",
		target, ph.Cost, ph.Epoch, status, measure)
	RenderAssembly(b, ph.Assembly, 0, d)
}

// RenderAssembly writes the Procedure 3 operator tree with per-node costs,
// matching the historical Explain format.
func RenderAssembly(b *strings.Builder, p *assembly.Plan, depth int, d Describer) {
	indent := strings.Repeat("  ", depth)
	switch p.Kind {
	case assembly.PlanStored:
		fmt.Fprintf(b, "%sread stored %s\n", indent, d.rect(p.Rect))
	case assembly.PlanAggregate:
		fmt.Fprintf(b, "%saggregate %s from stored %s (%d ops)\n",
			indent, d.rect(p.Rect), d.rect(p.Source), p.Ops)
	case assembly.PlanSynthesize:
		fmt.Fprintf(b, "%ssynthesize %s on dimension %q (%d ops total)\n",
			indent, d.rect(p.Rect), d.dim(p.Dim), p.Ops)
		RenderAssembly(b, p.Partial, depth+1, d)
		RenderAssembly(b, p.Residual, depth+1, d)
	default:
		fmt.Fprintf(b, "%sunknown step\n", indent)
	}
}
