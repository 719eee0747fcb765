package viewcube

import (
	"fmt"
	"sort"

	"viewcube/internal/ndarray"
	"viewcube/internal/obs"
	"viewcube/internal/plan"
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
// Only SUM aggregates are supported on a plain Engine; use AvgEngine.Query
// for COUNT and AVG. Grouped dimensions cannot also be filtered.
func (e *Engine) Query(sql string) (*QueryResult, error) {
	return untraced(runInline(e, false, sqlRead, sql))
}

// Query parses and executes a SQL-like statement supporting SUM, COUNT(*)
// (or COUNT(measure)), AVG, VAR and STDDEV. It delegates to the underlying
// measure-vector engine: one assembled vector answers every aggregate in
// the SELECT list.
func (a *AvgEngine) Query(sql string) (*QueryResult, error) { return a.agg.Query(sql) }

// Query parses and executes a SQL-like statement against the vector
// engine. Every aggregate in the SELECT list finalises from the same
// assembled component planes — one plan, one execution, however many
// aggregates are selected.
func (a *AggEngine) Query(sql string) (*QueryResult, error) {
	return untraced(runAgg(a, false, aggSQLRead, sql))
}

// TraceQuery is Query with per-span tracing.
func (a *AggEngine) TraceQuery(sql string) (*QueryResult, *QueryTrace, error) {
	return runAgg(a, true, aggSQLRead, sql)
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

// sqlResult tabulates per-group component values into the query's rows, one
// value per selected aggregate, sorted by group key. The canonical group set
// is the keys of counts when present (filtered groups with zero tuples are
// skipped), else the keys of sums. sumsqs and counts may be nil when no
// selected aggregate needs them — the plain Engine, whose queries select
// only SUM, passes neither (and a zero spec).
func sqlResult(q *query.Query, spec plan.MeasureSpec, sums, sumsqs, counts map[string]float64) *QueryResult {
	res := &QueryResult{Columns: append([]string(nil), q.GroupBy...)}
	for _, agg := range q.Aggregates {
		res.Columns = append(res.Columns, agg.Label())
	}
	keySet := sums
	if counts != nil {
		keySet = counts
	}
	keys := make([]string, 0, len(keySet))
	for k := range keySet {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	comps := make([]float64, spec.Width)
	for _, k := range keys {
		if counts != nil && counts[k] == 0 {
			continue // no tuples in this group under the filter
		}
		row := QueryRow{Key: SplitGroupKey(k)}
		for _, agg := range q.Aggregates {
			switch agg.Kind {
			case query.AggSum:
				row.Values = append(row.Values, sums[k])
			case query.AggCount:
				row.Values = append(row.Values, counts[k])
			case query.AggAvg:
				row.Values = append(row.Values, sums[k]/counts[k])
			case query.AggVar, query.AggStdDev:
				comps[spec.Sum] = sums[k]
				comps[spec.SumSq] = sumsqs[k]
				comps[spec.Count] = counts[k]
				kind := AggVar
				if agg.Kind == query.AggStdDev {
					kind = AggStdDev
				}
				v, _ := spec.Finalize(kind, comps)
				row.Values = append(row.Values, v)
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// queryInner runs the statement through the measure-vector path: one vector
// GROUP BY (or grouped range query), then per-aggregate finalisers over the
// component planes.
func (a *AggEngine) queryInner(x *obs.ExecCtx, sql string) (*QueryResult, error) {
	q, err := query.Parse(sql)
	if err != nil {
		return nil, err
	}
	ranges, err := sqlRanges(a.cube, q)
	if err != nil {
		return nil, err
	}
	needVar := false
	for _, agg := range q.Aggregates {
		if agg.Kind == query.AggVar || agg.Kind == query.AggStdDev {
			needVar = true
		}
	}

	// One vector query materialises every component plane at once.
	var (
		ma *ndarray.MultiArray
		el Element
	)
	if len(ranges) == 0 {
		ma, el, err = a.groupByVector(x, q.GroupBy...)
		if err != nil {
			return nil, err
		}
	} else {
		keepMask, box, berr := a.sum.resolveGroupedBox(q.GroupBy, ranges)
		if berr != nil {
			return nil, berr
		}
		if ma, err = a.vq.GroupedRangeVecCtx(x, box, keepMask); err != nil {
			return nil, err
		}
		if el, err = a.cube.ViewKeeping(q.GroupBy...); err != nil {
			return nil, err
		}
	}
	defer ndarray.RecycleMulti(ma)

	sums, err := a.componentGroups(ma, el, a.spec.Sum)
	if err != nil {
		return nil, err
	}
	var counts, sumsqs map[string]float64
	if q.NeedsCount() {
		if counts, err = a.componentGroups(ma, el, a.spec.Count); err != nil {
			return nil, err
		}
	}
	if needVar {
		if sumsqs, err = a.componentGroups(ma, el, a.spec.SumSq); err != nil {
			return nil, err
		}
	}
	return sqlResult(q, a.spec, sums, sumsqs, counts), nil
}

// queryInner is the scalar (width-1) SQL path of the plain Engine: SUM-only.
// Its one sub-query goes through the uninstrumented bodies, so the SQL entry
// point records one "sql" observation, not one per sub-query.
func (e *Engine) queryInner(x *obs.ExecCtx, sql string) (*QueryResult, error) {
	q, err := query.Parse(sql)
	if err != nil {
		return nil, err
	}
	if q.NeedsCount() {
		return nil, fmt.Errorf("viewcube: COUNT/AVG need an AvgEngine (this engine has only the SUM cube)")
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
	var sums map[string]float64
	switch {
	case e.cube.enc != nil:
		sums, err = v.Groups()
	case len(q.GroupBy) > 0:
		// Raw cube, no dictionaries: only the ungrouped total works.
		err = fmt.Errorf("viewcube: GROUP BY needs a dictionary-encoded cube")
	default:
		var total float64
		total, err = v.Value()
		sums = map[string]float64{"": total}
	}
	if err != nil {
		return nil, err
	}
	return sqlResult(q, plan.MeasureSpec{}, sums, nil, nil), nil
}
