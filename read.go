package viewcube

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"viewcube/internal/freq"
	"viewcube/internal/ndarray"
	"viewcube/internal/obs"
	"viewcube/internal/query"
)

// read is one kind of query, stated once as data: the Metrics kind it
// counts under; where that is not the kind itself, the root-span name of its
// trace, built from the ask only when the query is traced; the error a cube
// without dictionaries fails it with, for the reads that name values; and
// whether it nests under an "aggregate KIND" span.
type read struct {
	kind  queryKind
	name  func(a ask) string
	dicts string
	agg   bool
}

// The engine's reads.
var (
	viewRead         = read{kind: viewKind}
	groupByRead      = read{kind: groupByKind, name: func(a ask) string { return "groupby " + strings.Join(a.keep, ",") }}
	groupByWhereRead = read{kind: groupByWhereKind, dicts: "viewcube: GroupByWhere needs a dictionary-encoded cube"}
	totalRead        = read{kind: totalKind}
	rangeRead        = read{kind: rangeKind, dicts: "viewcube: RangeSum by value needs a dictionary-encoded cube; use RangeSumIndex"}
	withinRead       = read{kind: rangeKind, dicts: "viewcube: RangeSumWithin needs a dictionary-encoded cube; use RangeSumIndex"}
	indexRead        = read{kind: rangeKind}
	sqlRead          = read{kind: sqlKind, name: func(ask) string { return "query" }}
	groupByAggRead   = read{kind: groupByKind, agg: true, name: func(a ask) string {
		return "groupby_agg " + a.aggs[0].String() + " " + strings.Join(a.keep, ",")
	}}
	rangeAggRead = read{kind: rangeKind, agg: true, name: func(a ask) string { return "range_agg " + a.aggs[0].String() }}
)

// form is what an answer is wrapped as.
type form uint8

const (
	scalarForm form = iota // one value: the SUM, or the one aggregate
	viewForm               // a *View over the answer's array
	resultForm             // a *Result over it, which leases the array
)

// ask is every read of the engine (DESIGN §8): the aggregated view that
// keeps some dimensions, cut to a box, reported per measure component as the
// SUM or as aggregates. An exported read states it and runSafe runs exec on
// it; names and ranges are resolved inside the read, so a bad request is
// timed and counted like any other.
type ask struct {
	r    *read
	form form
	sql  string // a statement, parsed into the fields below

	el        Element               // View's element; otherwise resolved: the view keeping keep
	keep      []string              // the kept dimensions
	boxed     bool                  // cut to a box: b, or the one the ranges select
	ranges    map[string]ValueRange // the box by value
	within    bool                  // lexicographic bounds: each range covers the values within it
	b         box                   // RangeSumIndex: the box in cube coordinates
	aggs      []AggKind             // nil: the SUM plane alone
	dropEmpty bool                  // groups with no tuples are not rows
	columns   []string              // a statement's column names

	mask [freq.MaxRank]bool // resolved: the kept dimensions
}

// answer is an ask's answer in its form; empty reports that lexicographic
// bounds held no values.
type answer struct {
	v     float64
	empty bool
	view  *View
	res   *Result
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

// exec answers one ask against whatever the Engine pinned, with the kernel
// its shape calls for: a whole element is assembled (element), a box is
// contracted with the stored elements (DESIGN §6), to one vector of sums or
// grouped by the kept dimensions. The answer is wrapped once, in the ask's
// form. exec never reselects, so it is safe under a read lock.
func (c *core) exec(sp *obs.Span, a ask) (answer, error) {
	if a.r.agg {
		var err error
		sp, err = c.aggregate(sp, a.aggs[0])
		defer sp.End()
		if err != nil {
			return answer{}, err
		}
	}
	if a.sql != "" {
		if err := c.statement(&a); err != nil {
			return answer{}, err
		}
	}
	if a.r.dicts != "" && c.cube.enc == nil {
		return answer{}, errors.New(a.r.dicts)
	}
	var loBuf, extBuf [freq.MaxRank]int
	a, b, ok, err := c.resolve(a, loBuf[:0], extBuf[:0])
	if err != nil || !ok {
		return answer{empty: err == nil}, err
	}
	var out [3]float64 // room for the widest layout, StatsMeasure
	var arr *ndarray.Array
	switch {
	case !a.boxed:
		arr, err = c.element(sp, a.el.rect)
	case a.form == scalarForm:
		err = c.rangeInto(sp, b, out[:c.spec.Width])
	default:
		arr, err = c.groupedRange(sp, b, a.mask[:c.cube.space.Rank()])
	}
	if err != nil {
		return answer{}, err
	}
	switch a.form {
	case scalarForm:
		if arr != nil { // the one-cell grand total, which lives no longer than this read
			copy(out[:], arr.Data())
			ndarray.Recycle(arr)
		}
		if a.aggs == nil {
			return answer{v: out[c.spec.Sum]}, nil
		}
		v, ok := c.spec.Finalize(a.aggs[0], out[:c.spec.Width])
		if !ok {
			return answer{}, fmt.Errorf("viewcube: no tuples in range")
		}
		return answer{v: v}, nil
	case viewForm:
		return answer{view: &View{cube: c.cube, el: a.el, arr: arr, kept: a.el.kept()}}, nil
	}
	// The Result reports the aggregates from every plane, finalised per row
	// as it is emitted, or the SUM plane alone; it keeps the array as its
	// lease, since nothing else holds it.
	width, vals := c.spec.Width, arr.Data()
	if a.aggs == nil {
		width, vals = 1, vals[:arr.Cells()]
	}
	r, err := viewResult(c.cube, a.el.kept(), arr.Shape(), vals, width)
	if err != nil {
		ndarray.Recycle(arr)
		return answer{}, err
	}
	if a.aggs != nil {
		r.spec, r.aggs = c.spec, a.aggs
	}
	r.columns, r.dropEmpty, r.lease = a.columns, a.dropEmpty, arr
	return answer{res: r}, nil
}

// element assembles view element r from the materialised set through its
// cached plan and records the access, with the plan's cost, in the workload
// profile.
func (c *core) element(sp *obs.Span, r freq.Rect) (*ndarray.Array, error) {
	p, err := c.plans.Assembly(sp, r)
	if err != nil {
		return nil, err
	}
	arr, err := c.asm.Execute(sp, p)
	if err != nil {
		return nil, err
	}
	c.prof.Record(r, p.Ops)
	return arr, nil
}

// resolve is the one resolver of names into coordinates. Kept dimensions
// become the mask and, unless View named an element, the aggregated view
// keeping them. A boxed ask's box is the one RangeSumIndex gives in
// coordinates, or the one its value ranges select, appended to lo and ext:
// each unfiltered dimension covers its whole padded axis (padding cells are
// zero, so the sum is the same and the contraction's weights stay sparse),
// each filtered one its codes. When lexicographic bounds select no values,
// ok is false and err nil. The box is returned beside the ask, never stored
// in it, so that lo and ext can stay on the caller's stack.
func (c *core) resolve(a ask, lo, ext []int) (_ ask, _ box, ok bool, err error) {
	agg := uint(1)<<len(c.cube.dims) - 1 // aggregate everything...
	for _, name := range a.keep {
		m, err := c.cube.DimIndex(name)
		if err != nil {
			return a, box{}, false, err
		}
		if _, filtered := a.ranges[name]; filtered {
			return a, box{}, false, fmt.Errorf("viewcube: dimension %q cannot be both kept and filtered", name)
		}
		a.mask[m], agg = true, agg&^(1<<uint(m)) // ...except the kept dimensions
	}
	switch {
	case a.r == &viewRead: // an element named by identity
		if !c.cube.Valid(a.el) {
			return a, box{}, false, fmt.Errorf("viewcube: invalid element %s", a.el.String())
		}
	case !a.boxed || a.form != scalarForm:
		a.el = Element{rect: c.views[agg]}
	}
	if !a.boxed || a.r == &indexRead { // RangeSumIndex gives its box in coordinates
		return a, a.b, true, nil
	}
	if c.cube.enc == nil && len(a.ranges) > 0 {
		return a, box{}, false, fmt.Errorf("viewcube: value ranges need a dictionary-encoded cube")
	}
	for m := range c.cube.dims {
		if a.within && c.cube.enc.Dicts[m].Len() == 0 {
			return a, box{}, false, nil // an empty dictionary: this sub-cube holds nothing
		}
		lo, ext = append(lo, 0), append(ext, c.cube.space.Dim(m))
	}
	for name, vr := range a.ranges {
		m, err := c.cube.DimIndex(name)
		if err != nil {
			return a, box{}, false, err
		}
		first, last, ok, err := c.bounds(m, vr, a.within)
		if err != nil || !ok {
			return a, box{}, false, err
		}
		lo[m], ext[m] = first, last-first+1
	}
	return a, box{lo, ext}, true, nil
}

// bounds maps a value range on dimension m to its first and last code. Exact
// bounds must be values of the dimension (empty Lo or Hi: its first or last
// value) and must not cross; lexicographic ones cover the values within
// [Lo, Hi], and ok is false when there are none.
func (c *core) bounds(m int, vr ValueRange, within bool) (first, last int, ok bool, err error) {
	dict := c.cube.enc.Dicts[m]
	if within {
		return dict.BoundsWithin(vr.Lo, vr.Hi)
	}
	first, last = 0, dict.Len()-1
	if vr.Lo != "" {
		if first, ok = dict.Code(vr.Lo); !ok {
			return 0, 0, false, fmt.Errorf("viewcube: value %q not in dimension %q", vr.Lo, c.cube.dims[m])
		}
	}
	if vr.Hi != "" {
		if last, ok = dict.Code(vr.Hi); !ok {
			return 0, 0, false, fmt.Errorf("viewcube: value %q not in dimension %q", vr.Hi, c.cube.dims[m])
		}
	}
	if last < first {
		return 0, 0, false, fmt.Errorf("viewcube: empty range on dimension %q", c.cube.dims[m])
	}
	return first, last, true, nil
}

// statement parses a's SQL into it: GROUP BY names the kept dimensions,
// WHERE the box, the SELECT list the aggregates — every one finalised from
// the same component planes, so one plan and one execution serve them all —
// and the columns. A cube without dictionaries answers only the ungrouped,
// unfiltered statement.
func (c *core) statement(a *ask) error {
	q, err := query.Parse(a.sql)
	if err != nil {
		return err
	}
	a.aggs = make([]AggKind, len(q.Aggregates))
	for i, agg := range q.Aggregates {
		a.aggs[i] = sqlAggKinds[agg.Kind]
		if err := c.supports(a.aggs[i]); err != nil {
			return err
		}
	}
	if c.cube.enc == nil && len(q.Where) > 0 {
		return fmt.Errorf("viewcube: WHERE needs a dictionary-encoded cube")
	}
	a.columns = append([]string(nil), q.GroupBy...)
	for _, agg := range q.Aggregates {
		if agg.Arg != "*" && c.cube.measure != "" && agg.Arg != c.cube.measure {
			return fmt.Errorf("viewcube: unknown measure %q (cube measure is %q)", agg.Arg, c.cube.measure)
		}
		a.columns = append(a.columns, agg.Label())
	}
	if c.cube.enc == nil && len(q.GroupBy) > 0 {
		return fmt.Errorf("viewcube: GROUP BY needs a dictionary-encoded cube")
	}
	a.keep, a.boxed, a.dropEmpty = q.GroupBy, len(q.Where) > 0, q.NeedsCount()
	if a.boxed {
		a.ranges = make(map[string]ValueRange, len(q.Where))
		for _, r := range q.Where {
			a.ranges[r.Dim] = ValueRange{Lo: r.Lo, Hi: r.Hi}
		}
	}
	return nil
}

// run executes one ask: every query runs exec on c here, timed, counted
// under its kind in c's Metrics and — when traced — given a fresh trace, and
// nowhere else. Nothing is attached to the engine: the execution context —
// the trace's root span, nil untraced — is threaded through exec, so
// concurrent queries (traced or not) never observe each other's spans.
func run(c *core, traced bool, a ask) (answer, *QueryTrace, error) {
	var qt *QueryTrace
	if traced {
		name := kindNames[a.r.kind]
		if a.r.name != nil {
			name = a.r.name(a)
		}
		qt = &QueryTrace{t: obs.NewTrace(name)}
	}
	start := time.Now()
	out, err := c.exec(qt.Tree(), a)
	c.met.observe(a.r.kind, start, err)
	if traced {
		qt.t.Finish()
	}
	return out, qt, err
}

// settle is the uniform outcome of a read after its reselection drain: any
// error (the read's or the drain's) zeroes the answer and drops the trace.
func settle[T any](out T, qt *QueryTrace, err error) (T, *QueryTrace, error) {
	if err != nil {
		var zero T
		return zero, nil, err
	}
	return out, qt, nil
}

// untraced drops the (nil) trace of a read run with traced=false.
func untraced[T any](out T, _ *QueryTrace, err error) (T, error) { return out, err }

// asGroups and asQuery are the compatibility forms of a read that answers a
// Result: the group map and the row table library callers know.
func asGroups(r *Result, qt *QueryTrace, err error) (map[string]float64, *QueryTrace, error) {
	if err != nil {
		return nil, nil, err
	}
	g, err := r.Groups()
	return settle(g, qt, err)
}

func asQuery(r *Result, qt *QueryTrace, err error) (*QueryResult, *QueryTrace, error) {
	if err != nil {
		return nil, nil, err
	}
	res, err := r.QueryResult()
	return settle(res, qt, err)
}
