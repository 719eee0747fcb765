// Package plan is the shared query-plan layer of the engine stack: one
// logical IR for every read entry point (view-element queries, GROUP BYs,
// range SUMs and grouped "dice" queries), lowered to physical plans (the
// Procedure 3 assembly DAG of package assembly, plus §6 dyadic range
// decompositions), with an epoch-keyed concurrency-safe plan cache so the
// Procedure 3 dynamic program runs once per (materialised set, target)
// rather than once per query.
//
// The split mirrors the classical logical/physical plan separation of OLAP
// engines: a Logical node names *what* is asked for (resolved from
// dimension names into frequency-plane geometry), a Physical node names
// *how* the current materialised set answers it, and the executor
// (assembly.Engine.Execute, rangeagg.Querier) consumes the physical plan
// without re-deriving it. Explain and query traces render the same IR the
// executor runs.
package plan

import (
	"fmt"
	"math/bits"
	"strings"

	"viewcube/internal/assembly"
	"viewcube/internal/freq"
)

// Kind names the logical query shapes the planner understands.
type Kind int

const (
	// KindElement asks for one view element (a View/GroupBy/Total query):
	// the physical plan is a Procedure 3 assembly DAG.
	KindElement Kind = iota
	// KindRangeSum asks for the SUM over an axis-aligned box (§6): the
	// physical plan is the per-dimension dyadic block decomposition.
	KindRangeSum
	// KindGroupedRange asks for the grouped "dice" query: SUM grouped by
	// kept dimensions, range-filtered on the rest.
	KindGroupedRange
)

func (k Kind) String() string {
	switch k {
	case KindElement:
		return "element"
	case KindRangeSum:
		return "range_sum"
	case KindGroupedRange:
		return "grouped_range"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Logical is one resolved query: dimension names are already mapped to a
// frequency rectangle (element queries) or a coordinate box and keep mask
// (range queries). Logical nodes are immutable once built.
type Logical struct {
	Kind Kind

	// Rect is the target view element for KindElement.
	Rect freq.Rect

	// Lo/Ext describe the half-open box [Lo, Lo+Ext) for the range kinds.
	Lo, Ext []int
	// Keep marks grouped (undecomposed) dimensions for KindGroupedRange.
	Keep []bool
}

// Element returns the logical plan for one view-element query.
func Element(r freq.Rect) *Logical { return &Logical{Kind: KindElement, Rect: r.Clone()} }

// RangeSum returns the logical plan for a box SUM.
func RangeSum(lo, ext []int) *Logical {
	return &Logical{
		Kind: KindRangeSum,
		Lo:   append([]int(nil), lo...),
		Ext:  append([]int(nil), ext...),
	}
}

// GroupedRange returns the logical plan for a grouped, range-filtered SUM.
func GroupedRange(lo, ext []int, keep []bool) *Logical {
	return &Logical{
		Kind: KindGroupedRange,
		Lo:   append([]int(nil), lo...),
		Ext:  append([]int(nil), ext...),
		Keep: append([]bool(nil), keep...),
	}
}

// String renders the logical node compactly.
func (lg *Logical) String() string {
	switch lg.Kind {
	case KindElement:
		return "element " + lg.Rect.String()
	case KindRangeSum:
		return fmt.Sprintf("range_sum lo=%v ext=%v", lg.Lo, lg.Ext)
	case KindGroupedRange:
		return fmt.Sprintf("grouped_range lo=%v ext=%v keep=%v", lg.Lo, lg.Ext, lg.Keep)
	default:
		return lg.Kind.String()
	}
}

// Block is one maximal aligned dyadic block [Start, Start+2^Level) on a
// single dimension: Start is a multiple of 2^Level. It is the unit of the
// §6 range decomposition (one cell of an intermediate view element).
type Block struct {
	Start int
	Level int
}

// Size returns the block length 2^Level.
func (b Block) Size() int { return 1 << b.Level }

// DyadicBlocks decomposes the 1-D interval [lo, lo+ext) into the canonical
// minimal sequence of maximal aligned dyadic blocks. For an interval inside
// a domain of size n it produces at most 2·log2(n) blocks.
func DyadicBlocks(lo, ext int) []Block {
	if ext <= 0 || lo < 0 {
		return nil
	}
	var out []Block
	cur, end := lo, lo+ext
	for cur < end {
		// Largest power of two that both aligns with cur and fits.
		k := bits.TrailingZeros(uint(cur))
		if cur == 0 {
			k = bits.Len(uint(end)) // unconstrained by alignment
		}
		for (1 << k) > end-cur {
			k--
		}
		out = append(out, Block{Start: cur, Level: k})
		cur += 1 << k
	}
	return out
}

// Leg is the physical range plan for one dimension: either the dyadic block
// list of a filtered dimension, or a whole-axis read of a kept (grouped)
// dimension.
type Leg struct {
	Dim    int
	Keep   bool    // kept dimension: read whole slabs, never decomposed
	Blocks []Block // dyadic blocks (one placeholder block when Keep)
}

// Physical is one executable plan. Exactly one of Assembly (element
// queries) or Legs (range kinds) is populated. Physical plans are immutable
// and safe to share between concurrent executions: the executor only reads
// them.
type Physical struct {
	Logical *Logical

	// Epoch is the materialised-set epoch the plan was derived under; a
	// cached plan is only served while the cache is still at this epoch.
	Epoch uint64
	// CacheHit reports whether this retrieval skipped the Procedure 3 DP.
	CacheHit bool

	// Assembly is the Procedure 3 operator DAG for KindElement.
	Assembly *assembly.Plan
	// Legs is the per-dimension decomposition for the range kinds.
	Legs []Leg

	// Measure is the component layout the plan's cells carry; a scalar
	// plan has Width ≤ 1 and renders exactly as it always did.
	Measure MeasureSpec
	// Agg is the aggregate finaliser the caller will apply to the
	// assembled vector (annotation for Explain/trace rendering; execution
	// is finaliser-agnostic).
	Agg AggKind

	// Cost is the modelled cost: add/subtract operations for an element
	// plan (assembly.PlanCost), element cells touched for a range plan
	// (the §6 estimate Π_m #blocks(m)).
	Cost int
}

// DecomposeBox lowers a box into per-dimension legs. keep may be nil (no
// grouped dimensions). Kept dimensions get one placeholder block; the
// executor reads whole slabs along them.
func DecomposeBox(lo, ext []int, keep []bool) []Leg {
	legs := make([]Leg, len(lo))
	for m := range lo {
		if keep != nil && keep[m] {
			legs[m] = Leg{Dim: m, Keep: true, Blocks: []Block{{Start: 0, Level: 0}}}
			continue
		}
		legs[m] = Leg{Dim: m, Blocks: DyadicBlocks(lo[m], ext[m])}
	}
	return legs
}

// LowerRange lowers a range-kind logical node to its physical plan — pure
// frequency-plane geometry, no planner or store needed. The caller stamps
// Epoch/CacheHit if it owns a cache.
func (lg *Logical) LowerRange() (*Physical, error) {
	if lg.Kind != KindRangeSum && lg.Kind != KindGroupedRange {
		return nil, fmt.Errorf("plan: LowerRange on %v node", lg.Kind)
	}
	legs := DecomposeBox(lg.Lo, lg.Ext, lg.Keep)
	cost := 1
	for _, leg := range legs {
		if !leg.Keep {
			cost *= len(leg.Blocks)
		}
	}
	return &Physical{Logical: lg, Legs: legs, Cost: cost}, nil
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
	switch {
	case ph.Assembly != nil:
		fmt.Fprintf(b, "plan for %s (total cost %d ops) [epoch %d, plan cache %s%s]\n",
			target, ph.Cost, ph.Epoch, status, measure)
		RenderAssembly(b, ph.Assembly, 0, d)
	default:
		fmt.Fprintf(b, "plan for %s (%d element cells) [epoch %d, plan cache %s%s]\n",
			target, ph.Cost, ph.Epoch, status, measure)
		for _, leg := range ph.Legs {
			if leg.Keep {
				fmt.Fprintf(b, "  keep %s (whole axis)\n", d.dim(leg.Dim))
				continue
			}
			fmt.Fprintf(b, "  decompose %s into %d dyadic blocks\n", d.dim(leg.Dim), len(leg.Blocks))
		}
	}
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
