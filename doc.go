// Package viewcube is a MOLAP data-cube engine built on the view element
// method of Smith, Castelli, Jhingran and Li, "Dynamic Assembly of Views in
// Data Cubes" (ACM PODS 1998).
//
// A data cube is decomposed by a pair of partial (pairwise-sum) and
// residual (pairwise-difference) aggregation operators — the
// multi-dimensional Haar filter bank — into view elements: partial and
// residual aggregations at every dyadic granularity. View elements are
// finer-grained building blocks than whole materialised views: they are
// non-expansive (a complete basis occupies exactly the cube's volume),
// perfectly reconstructing (parents are synthesised exactly from children),
// and they support two-way dependencies, so an engine can both aggregate
// stored elements downward and synthesise views upward.
//
// The package offers:
//
//   - Cube construction from raw arrays or from relational CSV data with
//     dictionary-encoded dimensions (Load, NewCube, NewCubeFromData).
//   - Optimal non-redundant basis selection for a query workload
//     (Algorithm 1 of the paper) and greedy redundant selection under a
//     storage budget (Algorithm 2), via Engine.Optimize.
//   - A query engine that dynamically assembles any aggregated view or
//     view element from whatever is materialised (Engine.View,
//     Engine.GroupBy), answers range-SUM queries through intermediate view
//     elements (Engine.RangeSum), and optionally adapts its materialised
//     set to the observed workload online (EngineOptions.ReselectEvery).
//   - Optional disk-backed element storage with an LRU cache
//     (EngineOptions.DiskDir).
//   - One Engine, safe for concurrent use: reads overlap (or pin a snapshot
//     under streaming ingest, Engine.EnableIngest), writes take its lock,
//     and the serving reads take a traced flag (Engine.Select).
//
// # Quick start
//
//	cube, _ := viewcube.Load(csvFile, "sales")
//	eng, _ := cube.NewEngine(viewcube.EngineOptions{})
//	byProduct, _ := eng.GroupBy("product")
//	total, _ := eng.RangeSum(map[string]viewcube.ValueRange{
//		"day": {Lo: "day-010", Hi: "day-020"},
//	})
//
// The runnable programs under examples/ exercise the full API, and
// cmd/repro regenerates every table and figure of the original paper.
package viewcube
