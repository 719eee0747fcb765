package viewcube

import (
	"fmt"

	"viewcube/internal/ndarray"
	"viewcube/internal/obs"
	"viewcube/internal/query"
)

// QueryRow is one group of a query result: the kept dimensions' values (in
// GROUP BY order) and one value per selected aggregate.
type QueryRow struct {
	Key    []string
	Values []float64
}

// QueryResult is the tabular answer to a SQL-like query.
type QueryResult struct {
	// Columns lists the kept dimensions followed by the aggregate labels,
	// e.g. ["product", "SUM(sales)", "COUNT(*)"].
	Columns []string
	Rows    []QueryRow
}

// Query parses and executes a SQL-like aggregation statement against the
// engine:
//
//	SELECT SUM(sales) GROUP BY product WHERE day BETWEEN 'd1' AND 'd5'
//
// Only SUM aggregates are supported on a plain Engine; use an AggEngine
// (NewAggEngine) for COUNT, AVG, VAR and STDDEV. Grouped dimensions cannot
// also be filtered.
func (e *Engine) Query(sql string) (*QueryResult, error) {
	return untraced(asQuery(runInline(e, false, sqlRead, sql)))
}

// Query parses and executes a SQL-like statement against the vector
// engine. Every aggregate in the SELECT list finalises from the same
// assembled component planes — one plan, one execution, however many
// aggregates are selected.
func (a *AggEngine) Query(sql string) (*QueryResult, error) {
	return untraced(asQuery(runAgg(a, false, aggSQLRead, sql)))
}

// TraceQuery is Query with per-span tracing.
func (a *AggEngine) TraceQuery(sql string) (*QueryResult, *QueryTrace, error) {
	return asQuery(runAgg(a, true, aggSQLRead, sql))
}

// sqlRanges validates the SELECT list's measure arguments and the WHERE
// clause's dimensions against the cube, and returns the WHERE clause as
// per-dimension value ranges.
func sqlRanges(cube *Cube, q *query.Query) (map[string]ValueRange, error) {
	for _, agg := range q.Aggregates {
		if agg.Arg == "*" {
			continue
		}
		if cube.measure != "" && agg.Arg != cube.measure {
			return nil, fmt.Errorf("viewcube: unknown measure %q (cube measure is %q)", agg.Arg, cube.measure)
		}
	}
	ranges := make(map[string]ValueRange, len(q.Where))
	for _, r := range q.Where {
		if _, err := cube.DimIndex(r.Dim); err != nil {
			return nil, err
		}
		ranges[r.Dim] = ValueRange{Lo: r.Lo, Hi: r.Hi}
	}
	return ranges, nil
}

// sqlAggKinds maps the parser's aggregate kinds onto the engine's; the two
// enums are declared in the same order.
var sqlAggKinds = map[query.AggKind]AggKind{
	query.AggSum:    AggSum,
	query.AggCount:  AggCount,
	query.AggAvg:    AggAvg,
	query.AggVar:    AggVar,
	query.AggStdDev: AggStdDev,
}

// sqlResult dresses a statement's assembled answer as its Result: the
// column names, one finaliser per selected aggregate, and — when any
// aggregate counts tuples — the rule that groups with no tuples under the
// filter are not rows. r is fresh from newResult/NewResult and not yet
// shared.
func sqlResult(r *Result, q *query.Query) *Result {
	r.columns = append([]string(nil), q.GroupBy...)
	r.aggs = make([]AggKind, len(q.Aggregates))
	for i, agg := range q.Aggregates {
		r.columns = append(r.columns, agg.Label())
		r.aggs[i] = sqlAggKinds[agg.Kind]
	}
	r.dropEmpty = q.NeedsCount()
	return r
}

// queryInner runs the statement through the measure-vector path: one vector
// GROUP BY (or grouped range query), whose Result finalises every selected
// aggregate from the component planes as rows are emitted.
func (a *AggEngine) queryInner(x *obs.ExecCtx, sql string) (*Result, error) {
	q, err := query.Parse(sql)
	if err != nil {
		return nil, err
	}
	ranges, err := sqlRanges(a.eng.cube, q)
	if err != nil {
		return nil, err
	}

	// One vector query materialises every component plane at once.
	var (
		arr *ndarray.Array
		el  Element
	)
	if len(ranges) == 0 {
		arr, el, err = a.groupByVector(x, q.GroupBy...)
		if err != nil {
			return nil, err
		}
	} else {
		keepMask, box, berr := a.eng.resolveGroupedBox(q.GroupBy, ranges)
		if berr != nil {
			return nil, berr
		}
		if arr, err = a.eng.groupedRange(x, box, keepMask); err != nil {
			return nil, err
		}
		if el, err = a.eng.cube.ViewKeeping(q.GroupBy...); err != nil {
			return nil, err
		}
	}
	r, err := a.result(arr, el, nil, false)
	if err != nil {
		return nil, err
	}
	return sqlResult(r, q), nil
}

// queryInner is the scalar (width-1) SQL path of the plain Engine: SUM-only.
// Its one sub-query goes through the uninstrumented bodies, so the SQL entry
// point records one "sql" observation, not one per sub-query.
func (e *Engine) queryInner(x *obs.ExecCtx, sql string) (*Result, error) {
	q, err := query.Parse(sql)
	if err != nil {
		return nil, err
	}
	if q.NeedsCount() {
		return nil, fmt.Errorf("viewcube: COUNT/AVG need an AggEngine from NewAggEngine (this engine has only the SUM cube)")
	}
	if e.cube.enc == nil && len(q.Where) > 0 {
		return nil, fmt.Errorf("viewcube: WHERE needs a dictionary-encoded cube")
	}
	ranges, err := sqlRanges(e.cube, q)
	if err != nil {
		return nil, err
	}
	var v *View
	if len(ranges) > 0 {
		v, err = e.groupByWhereInner(x, dice{q.GroupBy, ranges})
	} else {
		v, err = e.groupByInner(x, q.GroupBy)
	}
	if err != nil {
		return nil, err
	}
	var r *Result
	switch {
	case e.cube.enc != nil:
		r, err = v.leased()
	case len(q.GroupBy) > 0:
		// Raw cube, no dictionaries: only the ungrouped total works.
		err = fmt.Errorf("viewcube: GROUP BY needs a dictionary-encoded cube")
	default:
		var total float64
		if total, err = v.Value(); err == nil {
			r, err = NewResult(nil, nil, 1, []float64{total})
		}
	}
	if err != nil {
		return nil, err
	}
	return sqlResult(r, q), nil
}
