package viewcube

import (
	"strings"
	"time"

	"viewcube/internal/obs"
	"viewcube/internal/rangeagg"
)

// read is one query stated once, as data: the Metrics kind it counts under,
// the root-span name of its trace where that is not the kind itself (built
// only when the query is traced) and the body that answers it from its
// arguments. E is the engine the body runs against — *Engine (the plain
// engine itself, or whichever snapshot generation a SafeEngine pinned) or
// *AggEngine — and x the per-query execution context (nil = untraced).
// Bodies never reselect, so they are safe under a read lock.
type read[E, A, T any] struct {
	kind string
	name func(args A) string
	body func(e E, x *obs.ExecCtx, args A) (T, error)
}

// The plain engine's reads.
var (
	viewRead         = read[*Engine, Element, *View]{kind: "view", body: (*Engine).viewInner}
	groupByRead      = read[*Engine, []string, *View]{kind: "groupby", name: groupByName, body: (*Engine).groupByInner}
	groupByWhereRead = read[*Engine, dice, *View]{kind: "groupby_where", body: (*Engine).groupByWhereInner}
	totalRead        = read[*Engine, struct{}, float64]{kind: "total", body: (*Engine).totalInner}
	rangeSumRead     = read[*Engine, map[string]ValueRange, float64]{kind: "range", body: (*Engine).rangeSumInner}
	rangeWithinRead  = read[*Engine, map[string]ValueRange, withinSum]{kind: "range", body: (*Engine).rangeSumWithinInner}
	rangeIndexRead   = read[*Engine, rangeagg.Box, float64]{kind: "range", body: (*Engine).rangeSumIndexInner}
	sqlRead          = read[*Engine, string, *Result]{kind: "sql", name: sqlName, body: (*Engine).queryInner}
)

func groupByName(keep []string) string { return "groupby " + strings.Join(keep, ",") }

func sqlName(string) string { return "query" }

// dice is GroupByWhere's argument pair.
type dice struct {
	keep   []string
	ranges map[string]ValueRange
}

// withinSum is RangeSumWithin's answer: ok reports a non-empty box.
type withinSum struct {
	sum float64
	ok  bool
}

// run is the package's one read seam: every query of every engine face is
// timed, counted under its kind in met and — when traced — given a fresh
// trace here, and nowhere else. Nothing is attached to the engine: the
// execution context is threaded through the body, so concurrent queries
// (traced or not) never observe each other's spans.
func run[E, A, T any](met *Metrics, e E, traced bool, r read[E, A, T], args A) (T, *QueryTrace, error) {
	var (
		qt *QueryTrace
		x  *obs.ExecCtx
	)
	if traced {
		name := r.kind
		if r.name != nil {
			name = r.name(args)
		}
		qt = &QueryTrace{t: obs.NewTrace(name)}
		x = obs.Traced(qt.t)
	}
	start := time.Now()
	out, err := r.body(e, x, args)
	met.observe(r.kind, start, err)
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

// runInline is run for the plain Engine's public entry points: queries on a
// plain engine are single-threaded by contract, so a due automatic
// reselection happens inline, right after the read.
func runInline[A, T any](e *Engine, traced bool, r read[*Engine, A, T], args A) (T, *QueryTrace, error) {
	out, qt, err := run(e.met, e, traced, r, args)
	if err == nil {
		_, err = e.maybeReselect()
	}
	return settle(out, qt, err)
}
