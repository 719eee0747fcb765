package viewcube

import "viewcube/internal/query"

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
	a, qt, err := runSafe(e, traced, ask{r: &sqlRead, form: resultForm, sql: sql})
	return a.res, qt, err
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
