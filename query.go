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
// Every aggregate in the SELECT list finalises from the same assembled
// component planes — one plan, one execution, however many aggregates are
// selected. A SUM cube serves SUM only; COUNT, AVG, VAR and STDDEV need the
// measure-vector cube of NewAggEngine. Grouped dimensions cannot also be
// filtered.
func (e *Engine) Query(sql string) (*QueryResult, error) {
	return untraced(asQuery(e.Select(false, sql)))
}

// Select is Query answered as the columnar Result servers encode directly;
// the trace is nil unless traced.
func (e *Engine) Select(traced bool, sql string) (*Result, *QueryTrace, error) {
	return runSafe(e, traced, sqlRead, (*core).queryInner, sql)
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

// queryInner runs the statement as one GROUP BY (or grouped range query)
// over every measure plane, whose Result finalises each selected aggregate
// from the component planes as rows are emitted. Its one sub-query goes
// through the uninstrumented bodies, so the SQL entry point records one
// "sql" observation, not one per sub-query. A cube without dictionaries
// answers only the ungrouped, unfiltered statement.
func (e *core) queryInner(x *obs.ExecCtx, sql string) (*Result, error) {
	q, err := query.Parse(sql)
	if err != nil {
		return nil, err
	}
	for _, agg := range q.Aggregates {
		if err := e.supports(sqlAggKinds[agg.Kind]); err != nil {
			return nil, err
		}
	}
	if e.cube.enc == nil && len(q.Where) > 0 {
		return nil, fmt.Errorf("viewcube: WHERE needs a dictionary-encoded cube")
	}
	ranges, err := sqlRanges(e.cube, q)
	if err != nil {
		return nil, err
	}
	el, err := e.cube.ViewKeeping(q.GroupBy...)
	if err != nil {
		return nil, err
	}
	if e.cube.enc == nil && len(q.GroupBy) > 0 {
		return nil, fmt.Errorf("viewcube: GROUP BY needs a dictionary-encoded cube")
	}
	var arr *ndarray.Array
	if len(ranges) == 0 {
		arr, err = e.inner.Query(x, el.rect)
	} else {
		keepMask, box, berr := e.resolveGroupedBox(q.GroupBy, ranges)
		if berr != nil {
			return nil, berr
		}
		arr, err = e.groupedRange(x, box, keepMask)
	}
	if err != nil {
		return nil, err
	}
	r, err := e.result(arr, el, nil, false)
	if err != nil {
		return nil, err
	}
	return sqlResult(r, q), nil
}
