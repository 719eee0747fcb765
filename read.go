package viewcube

import (
	"strings"
	"time"

	"viewcube/internal/obs"
)

// read is one kind of query, stated once as data: the Metrics kind it
// counts under and, where that is not the kind itself, the root-span name of
// its trace, built from the query's arguments only when the query is traced.
// The body that answers it goes beside it to run: a *core method taking the
// per-query execution context x (nil = untraced) and the arguments, run
// against whatever the Engine pinned — its base under the read lock, or a
// snapshot generation. Bodies never reselect, so they are safe under a read
// lock.
type read struct {
	kind string
	name func(args any) string
}

// The engine's reads.
var (
	viewRead         = read{kind: "view"}
	groupByRead      = read{kind: "groupby", name: groupByName}
	groupByWhereRead = read{kind: "groupby_where"}
	totalRead        = read{kind: "total"}
	rangeRead        = read{kind: "range"}
	sqlRead          = read{kind: "sql", name: func(any) string { return "query" }}
	groupByAggRead   = read{kind: "groupby", name: aggKeepName}
	rangeAggRead     = read{kind: "range", name: aggRangesName}
)

func groupByName(keep any) string { return "groupby " + strings.Join(keep.([]string), ",") }

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

// run executes one read: every query runs its body on e here, timed,
// counted under its kind in e's Metrics and — when traced — given a fresh
// trace, and nowhere else. Nothing is attached to the engine: the execution
// context is threaded through the body, so concurrent queries (traced or
// not) never observe each other's spans.
func run[A, T any](e *core, traced bool, r read, body func(*core, *obs.ExecCtx, A) (T, error), args A) (T, *QueryTrace, error) {
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
	out, err := body(e, x, args)
	e.met.observe(r.kind, start, err)
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
