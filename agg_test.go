// Tests for the measure-vector engine of NewAggEngine: aggregate
// correctness against scan oracles, bit-identity of the vector AVG path
// against the historical two-engine design, and the pinned zero-count
// semantics shared by every entry point.
package viewcube_test

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"viewcube"
)

// keyJoin rebuilds a comparison key from a result's composite group key so
// oracle maps built in the test never depend on the library's separator.
func keyJoin(parts []string) string { return strings.Join(parts, "\x00") }

// randomTable builds a deterministic pseudo-random relation and returns it
// together with the raw tuples for scan oracles.
type tuple struct {
	values  []string
	measure float64
}

func randomTable(t *testing.T, seed int64, rows int) (*viewcube.Table, []tuple) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	dims := []string{"product", "region", "day"}
	card := []int{5, 3, 7}
	tbl, err := viewcube.NewTable(dims, "sales")
	if err != nil {
		t.Fatal(err)
	}
	tuples := make([]tuple, 0, rows)
	for i := 0; i < rows; i++ {
		vals := make([]string, len(dims))
		for d := range dims {
			vals[d] = fmt.Sprintf("%s-%02d", dims[d], rng.Intn(card[d]))
		}
		m := math.Round(rng.Float64()*2000)/100 - 5 // [-5, 15) with 2 decimals
		if err := tbl.Append(vals, m); err != nil {
			t.Fatal(err)
		}
		tuples = append(tuples, tuple{values: vals, measure: m})
	}
	return tbl, tuples
}

// scanStats computes per-group [Σv, Σv², n] by scanning tuples, keyed by
// the kept dimension positions.
func scanStats(tuples []tuple, keepPos []int) map[string][3]float64 {
	out := make(map[string][3]float64)
	for _, tp := range tuples {
		parts := make([]string, len(keepPos))
		for i, p := range keepPos {
			parts[i] = tp.values[p]
		}
		k := keyJoin(parts)
		s := out[k]
		s[0] += tp.measure
		s[1] += tp.measure * tp.measure
		s[2]++
		out[k] = s
	}
	return out
}

func TestGroupByAggAllKinds(t *testing.T) {
	agg, err := viewcube.NewAggEngine(loadSalesTable(t), viewcube.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if agg.Width() != 3 {
		t.Fatalf("measure width %d, want 3", agg.Width())
	}
	// ale: tuples 10, 5, 2 → sum 17, count 3, avg 17/3,
	// var = (129 - 289/3)/3, stddev = sqrt(var).
	aleVar := (129.0 - 289.0/3) / 3
	checks := []struct {
		kind viewcube.AggKind
		want float64
	}{
		{viewcube.AggSum, 17},
		{viewcube.AggCount, 3},
		{viewcube.AggAvg, 17.0 / 3},
		{viewcube.AggVar, aleVar},
		{viewcube.AggStdDev, math.Sqrt(aleVar)},
	}
	for _, c := range checks {
		groups, err := agg.GroupByAgg(c.kind, "product")
		if err != nil {
			t.Fatalf("%v: %v", c.kind, err)
		}
		if got := groups["ale"]; math.Abs(got-c.want) > 1e-9 {
			t.Fatalf("%v(ale) = %g, want %g", c.kind, got, c.want)
		}
	}
}

// TestAggZeroCountSemantics pins the documented, uniform zero-count
// behaviour of the count-dividing aggregates:
//
//   - GroupByAgg with AVG, VAR or STDDEV drops groups with no tuples, so
//     avgOf reports ok=false for them;
//   - GroupByAgg with COUNT keeps every group of the group space, zeros
//     included;
//   - RangeAgg with a count-dividing kind returns an error for a box
//     holding no tuples, while SUM and COUNT return 0.
func TestAggZeroCountSemantics(t *testing.T) {
	// Two dimensions with a hole: no (b2, y1) tuple exists even though both
	// values do.
	tbl, err := viewcube.NewTable([]string{"a", "b"}, "m")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []struct {
		a, b string
		m    float64
	}{
		{"x1", "y1", 2}, {"x1", "y2", 4}, {"x2", "y1", 6}, {"x2", "y2", 8},
		{"x1", "y2", 10},
	} {
		if err := tbl.Append([]string{row.a, row.b}, row.m); err != nil {
			t.Fatal(err)
		}
	}
	eng, err := viewcube.NewAggEngine(tbl, viewcube.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// Populate a second b value only for x1, leaving (x2, y3) empty:
	// grow the hole by grouping on both dimensions after filtering.
	avgs, err := eng.GroupByAgg(viewcube.AggAvg, "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if len(avgs) != 4 {
		t.Fatalf("GroupByAvg kept %d groups, want 4 (every (a,b) pair has tuples)", len(avgs))
	}
	counts, err := eng.GroupByAgg(viewcube.AggCount, "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) != 4 {
		t.Fatalf("GroupByCount %d groups, want 4", len(counts))
	}

	// Carve a real hole: a filtered grouped query via SQL keeps the
	// zero-count group out of AVG results but COUNT still enumerates it.
	// Simpler and fully public: drop to a table where a pair is absent.
	tbl2, err := viewcube.NewTable([]string{"a", "b"}, "m")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []struct {
		a, b string
		m    float64
	}{
		{"x1", "y1", 2}, {"x1", "y2", 4}, {"x2", "y1", 6},
	} {
		if err := tbl2.Append([]string{row.a, row.b}, row.m); err != nil {
			t.Fatal(err)
		}
	}
	eng2, err := viewcube.NewAggEngine(tbl2, viewcube.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	avgs2, err := eng2.GroupByAgg(viewcube.AggAvg, "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if len(avgs2) != 3 {
		t.Fatalf("GroupByAvg kept %d groups, want 3 (the empty (x2,y2) cell must be dropped)", len(avgs2))
	}
	if _, ok := avgOf(avgs2, "x2", "y2"); ok {
		t.Fatal("avgOf must miss a zero-count group")
	}
	if got, ok := avgOf(avgs2, "x1", "y2"); !ok || got != 4 {
		t.Fatalf("avgOf(x1,y2) = %g, %v; want 4, true", got, ok)
	}
	counts2, err := eng2.GroupByAgg(viewcube.AggCount, "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if len(counts2) != 4 {
		t.Fatalf("GroupByCount %d groups, want 4 (zero groups stay)", len(counts2))
	}
	if c, ok := avgOf(counts2, "x2", "y2"); !ok || c != 0 {
		t.Fatalf("count(x2,y2) = %g, %v; want 0, true", c, ok)
	}

	// The empty box: (a=x2, b=y2) holds no tuples.
	emptyBox := map[string]viewcube.ValueRange{
		"a": {Lo: "x2", Hi: "x2"}, "b": {Lo: "y2", Hi: "y2"},
	}
	if _, err := eng2.RangeAgg(viewcube.AggAvg, emptyBox); err == nil ||
		!strings.Contains(err.Error(), "no tuples in range") {
		t.Fatalf("RangeAvg over an empty box: err = %v, want 'no tuples in range'", err)
	}
	for _, kind := range []viewcube.AggKind{viewcube.AggVar, viewcube.AggStdDev} {
		if _, err := eng2.RangeAgg(kind, emptyBox); err == nil ||
			!strings.Contains(err.Error(), "no tuples in range") {
			t.Fatalf("RangeAgg(%v) over an empty box: err = %v", kind, err)
		}
	}
	for _, kind := range []viewcube.AggKind{viewcube.AggSum, viewcube.AggCount} {
		v, err := eng2.RangeAgg(kind, emptyBox)
		if err != nil || v != 0 {
			t.Fatalf("RangeAgg(%v) over an empty box = %g, %v; want 0, nil", kind, v, err)
		}
	}
}

// TestVectorAvgMatchesTwoEngineOracle pins the refactor's core promise:
// the one-cube vector path answers bit-identically (==, no tolerance) to the
// historical two-engine design — a private SUM engine plus a private COUNT
// engine over their own stores — on randomized relations: grouped AVG, SUM
// and COUNT, range SUM, COUNT and AVG, and a WHERE-filtered grouped AVG
// through Select, on the unoptimised root and after Optimize at storage
// budgets of one and two cube volumes, before and after an update stream.
//
// A view rebuilt by synthesis from real-valued elements can leave a padding
// cell a rounding error away from zero, and reading such a view fails with
// "nonzero padding cell". A vector view fails when any of its three planes
// does, so a third private engine over Σv² completes the oracle: the vector
// path must fail exactly where one of the three scalar views fails, and
// otherwise answer the same bits.
func TestVectorAvgMatchesTwoEngineOracle(t *testing.T) {
	for _, budget := range []int{0, 1, 2} {
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			vectorMatchesTwoEngines(t, budget)
		})
	}
}

// vectorMatchesTwoEngines runs the oracle comparison with every engine built
// at the given storage budget (in cube volumes) and, unless it is 0,
// optimized for the same workload.
func vectorMatchesTwoEngines(t *testing.T, budget int) {
	tbl, tuples := randomTable(t, 7, 400)
	sqTbl, err := viewcube.NewTable(tbl.Dimensions(), "sales_sq")
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range tuples {
		if err := sqTbl.Append(tp.values, tp.measure*tp.measure); err != nil {
			t.Fatal(err)
		}
	}
	ct, err := tbl.CountTable()
	if err != nil {
		t.Fatal(err)
	}
	// The oracle: full engines over private scalar cubes, the seed
	// two-engine layout plus the Σv² cube.
	var (
		cubes   [3]*viewcube.Cube
		oracles [3]*viewcube.Engine
	)
	for i, tb := range []*viewcube.Table{tbl, sqTbl, ct} {
		if cubes[i], err = viewcube.FromRelation(tb); err != nil {
			t.Fatal(err)
		}
	}
	opts := viewcube.EngineOptions{StorageBudget: budget * cubes[0].Volume()}
	for i, c := range cubes {
		if oracles[i], err = c.NewEngine(opts); err != nil {
			t.Fatal(err)
		}
	}
	sumEng, sqEng, cntEng := oracles[0], oracles[1], oracles[2]
	eng, err := viewcube.NewAggEngine(tbl, opts)
	if err != nil {
		t.Fatal(err)
	}
	if budget > 0 {
		workload := func(c *viewcube.Cube) *viewcube.Workload {
			w := c.NewWorkload()
			for i, keep := range [][]string{{"product"}, {"region", "day"}, {"product", "region"}, nil} {
				if err := w.AddViewKeeping(float64(4-i), keep...); err != nil {
					t.Fatal(err)
				}
			}
			return w
		}
		if err := eng.Optimize(workload(eng.Cube())); err != nil {
			t.Fatal(err)
		}
		for i, o := range oracles {
			if err := o.Optimize(workload(cubes[i])); err != nil {
				t.Fatal(err)
			}
		}
	}

	// groups is a view's group map, nil when the view fails on a padding
	// cell.
	groups := func(v *viewcube.View, err error) map[string]float64 {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		g, err := v.Groups()
		if err != nil {
			if !strings.Contains(err.Error(), "nonzero padding cell") {
				t.Fatal(err)
			}
			return nil
		}
		return g
	}
	// oracle finalises kind per group from the scalar engines' answers: nil
	// where any of the three views failed.
	oracle := func(kind viewcube.AggKind, sums, sqs, counts map[string]float64) map[string]float64 {
		switch {
		case sums == nil || sqs == nil || counts == nil:
			return nil
		case kind == viewcube.AggSum:
			return sums
		case kind == viewcube.AggCount:
			return counts
		}
		out := make(map[string]float64)
		for k, c := range counts {
			if c != 0 {
				out[k] = sums[k] / c
			}
		}
		return out
	}
	// same compares a vector answer (nil when it failed on a padding cell)
	// with the oracle's.
	same := func(what string, got map[string]float64, err error, want map[string]float64) {
		t.Helper()
		if err != nil {
			if !strings.Contains(err.Error(), "nonzero padding cell") {
				t.Fatalf("%s: %v", what, err)
			}
			got = nil
		}
		if (got == nil) != (want == nil) {
			t.Fatalf("%s: vector failed %v, scalar engines failed %v", what, got == nil, want == nil)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d groups, oracle %d", what, len(got), len(want))
		}
		for k, w := range want {
			if g, ok := got[k]; !ok || g != w { // bit-identical, not almost-equal
				t.Fatalf("%s group %q: vector %v, two-engine %v", what, k, g, w)
			}
		}
	}
	boxes := []map[string]viewcube.ValueRange{
		nil,
		{"day": {Lo: "day-01", Hi: "day-05"}},
		{"product": {Lo: "product-01", Hi: "product-03"}, "region": {Lo: "region-01", Hi: "region-02"}},
	}
	kinds := []viewcube.AggKind{viewcube.AggSum, viewcube.AggCount, viewcube.AggAvg}

	type aggReader interface {
		GroupByAgg(kind viewcube.AggKind, keep ...string) (map[string]float64, error)
		RangeAgg(kind viewcube.AggKind, ranges map[string]viewcube.ValueRange) (float64, error)
	}
	compare := func(stage string, a aggReader) {
		t.Helper()
		for _, keep := range [][]string{{"product"}, {"region", "day"}, {"product", "region", "day"}, nil} {
			sums, sqs, counts := groups(sumEng.GroupBy(keep...)), groups(sqEng.GroupBy(keep...)), groups(cntEng.GroupBy(keep...))
			for _, kind := range kinds {
				got, err := a.GroupByAgg(kind, keep...)
				same(fmt.Sprintf("%s GroupByAgg(%v) keep=%v", stage, kind, keep), got, err, oracle(kind, sums, sqs, counts))
			}
		}
		for _, box := range boxes {
			sum, err := sumEng.RangeSum(box)
			if err != nil {
				t.Fatal(err)
			}
			count, err := cntEng.RangeSum(box)
			if err != nil {
				t.Fatal(err)
			}
			for _, kind := range kinds {
				want := map[viewcube.AggKind]float64{viewcube.AggSum: sum, viewcube.AggCount: count, viewcube.AggAvg: sum / count}[kind]
				got, err := a.RangeAgg(kind, box)
				if err != nil {
					t.Fatalf("%s RangeAgg(%v, %v): %v", stage, kind, box, err)
				}
				if got != want {
					t.Fatalf("%s RangeAgg(%v, %v) = %v, two-engine %v", stage, kind, box, got, want)
				}
			}
		}
	}
	compare("initial", eng)

	// A deterministic update stream applied to both designs.
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 25; i++ {
		vals := map[string]string{
			"product": fmt.Sprintf("product-%02d", rng.Intn(5)),
			"region":  fmt.Sprintf("region-%02d", rng.Intn(3)),
			"day":     fmt.Sprintf("day-%02d", rng.Intn(7)),
		}
		m := math.Round(rng.Float64()*1000) / 100
		if err := eng.UpdateValue(m, vals); err != nil {
			t.Fatal(err)
		}
		for i, d := range []float64{m, m * m, 1} {
			if err := oracles[i].UpdateValue(d, vals); err != nil {
				t.Fatal(err)
			}
		}
	}
	compare("after updates", eng)

	// The shared face: the same answers, and the SQL path's filtered AVG.
	safe := eng.Safe()
	compare("shared", safe)
	res, _, err := safe.Select(false, "SELECT AVG(sales) GROUP BY product, region WHERE day BETWEEN 'day-02' AND 'day-06'")
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.Groups()
	keep, where := []string{"product", "region"}, map[string]viewcube.ValueRange{"day": {Lo: "day-02", Hi: "day-06"}}
	same("Select AVG WHERE", got, err, oracle(viewcube.AggAvg,
		groups(sumEng.GroupByWhere(keep, where)), groups(sqEng.GroupByWhere(keep, where)), groups(cntEng.GroupByWhere(keep, where))))
}

// TestVarMatchesScanOracle pins VAR and STDDEV against a naive full-scan
// oracle over the raw tuples, grouped and ungrouped, before and after an
// update stream.
func TestVarMatchesScanOracle(t *testing.T) {
	tbl, tuples := randomTable(t, 11, 300)
	eng, err := viewcube.NewAggEngine(tbl, viewcube.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}

	check := func(stage string) {
		t.Helper()
		// Grouped: VAR and STDDEV per product (dimension position 0) and
		// per (region, day) (positions 1, 2).
		for _, kp := range []struct {
			keep []string
			pos  []int
		}{
			{[]string{"product"}, []int{0}},
			{[]string{"region", "day"}, []int{1, 2}},
		} {
			oracle := scanStats(tuples, kp.pos)
			vars, err := eng.GroupByAgg(viewcube.AggVar, kp.keep...)
			if err != nil {
				t.Fatal(err)
			}
			stds, err := eng.GroupByAgg(viewcube.AggStdDev, kp.keep...)
			if err != nil {
				t.Fatal(err)
			}
			if len(vars) != len(oracle) {
				t.Fatalf("%s keep=%v: %d groups, oracle %d", stage, kp.keep, len(vars), len(oracle))
			}
			for k, v := range vars {
				s := oracle[keyJoin(viewcube.SplitGroupKey(k))]
				n := s[2]
				mean := s[0] / n
				wantVar := s[1]/n - mean*mean
				if wantVar < 0 {
					wantVar = 0
				}
				scale := math.Max(1, math.Abs(wantVar))
				if math.Abs(v-wantVar) > 1e-8*scale {
					t.Fatalf("%s VAR keep=%v group %q = %g, scan oracle %g", stage, kp.keep, k, v, wantVar)
				}
				if math.Abs(stds[k]-math.Sqrt(wantVar)) > 1e-8*math.Max(1, math.Sqrt(wantVar)) {
					t.Fatalf("%s STDDEV keep=%v group %q = %g, want %g", stage, kp.keep, k, stds[k], math.Sqrt(wantVar))
				}
			}
		}
		// Ungrouped, via the range path over the full box.
		all := scanStats(tuples, nil)[keyJoin(nil)]
		n := all[2]
		mean := all[0] / n
		wantVar := all[1]/n - mean*mean
		got, err := eng.RangeAgg(viewcube.AggVar, nil)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-wantVar) > 1e-8*math.Max(1, math.Abs(wantVar)) {
			t.Fatalf("%s RangeAgg(VAR, full box) = %g, scan oracle %g", stage, got, wantVar)
		}
	}
	check("initial")

	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 20; i++ {
		vals := []string{
			fmt.Sprintf("product-%02d", rng.Intn(5)),
			fmt.Sprintf("region-%02d", rng.Intn(3)),
			fmt.Sprintf("day-%02d", rng.Intn(7)),
		}
		m := math.Round(rng.Float64()*500) / 100
		if err := eng.UpdateValue(m, map[string]string{
			"product": vals[0], "region": vals[1], "day": vals[2],
		}); err != nil {
			t.Fatal(err)
		}
		tuples = append(tuples, tuple{values: vals, measure: m})
	}
	check("after updates")
}

// TestVectorAggExplainAndTrace checks the observability surface of the
// vector path: the Explain header names the aggregate kind and width, and
// traced executions carry agg_kind/measure_width span attributes.
func TestVectorAggExplainAndTrace(t *testing.T) {
	eng, err := viewcube.NewAggEngine(loadSalesTable(t), viewcube.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	text, err := eng.ExplainAgg(viewcube.AggVar, "product")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "agg var") || !strings.Contains(text, "width 3") {
		t.Fatalf("ExplainAgg header must name aggregate and width:\n%s", text)
	}
	res, tr, err := eng.GroupByAggResult(true, viewcube.AggAvg, "product")
	if err != nil {
		t.Fatal(err)
	}
	groups, err := res.Groups()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(groups["ale"]-17.0/3) > 1e-9 {
		t.Fatalf("traced AVG(ale) = %g", groups["ale"])
	}
	tree := tr.Tree()
	if w := tree.MaxAttr("measure_width"); w != 3 {
		t.Fatalf("trace measure_width = %d, want 3", w)
	}
	if k := tree.MaxAttr("agg_kind"); viewcube.AggKind(k) != viewcube.AggAvg {
		t.Fatalf("trace agg_kind = %d, want AVG", k)
	}
	stddev := viewcube.AggStdDev
	v, _, tr, err := eng.RangeResult(true, viewcube.RangeQuery{Agg: &stddev, Ranges: map[string]viewcube.ValueRange{
		"day": {Lo: "d1", Hi: "d2"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if v < 0 {
		t.Fatalf("stddev %g", v)
	}
	if w := tr.Tree().MaxAttr("measure_width"); w != 3 {
		t.Fatalf("range trace measure_width = %d", w)
	}
}

// TestVectorAggConcurrent hammers the vector read path from many
// goroutines (CI runs it under -race): grouped aggregates, range
// aggregates, SQL and traced queries against fixed oracles computed up
// front. Reads share the plan cache, scratch pools and workload profile.
func TestVectorAggConcurrent(t *testing.T) {
	tbl, _ := randomTable(t, 21, 1000)
	eng, err := viewcube.NewAggEngine(tbl, viewcube.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	oracleAvg, err := eng.GroupByAgg(viewcube.AggAvg, "product")
	if err != nil {
		t.Fatal(err)
	}
	oracleVar, err := eng.RangeAgg(viewcube.AggVar, nil)
	if err != nil {
		t.Fatal(err)
	}
	const sql = "SELECT AVG(sales), COUNT(*) GROUP BY region"
	oracleSQL, err := eng.Query(sql)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				switch (g + i) % 4 {
				case 0:
					got, err := eng.GroupByAgg(viewcube.AggAvg, "product")
					if err != nil {
						errc <- err
						return
					}
					for k, w := range oracleAvg {
						if got[k] != w {
							errc <- fmt.Errorf("concurrent AVG %q = %g, want %g", k, got[k], w)
							return
						}
					}
				case 1:
					got, err := eng.RangeAgg(viewcube.AggVar, nil)
					if err != nil {
						errc <- err
						return
					}
					if got != oracleVar {
						errc <- fmt.Errorf("concurrent VAR = %g, want %g", got, oracleVar)
						return
					}
				case 2:
					res, err := eng.Query(sql)
					if err != nil {
						errc <- err
						return
					}
					if len(res.Rows) != len(oracleSQL.Rows) {
						errc <- fmt.Errorf("concurrent SQL rows %d, want %d", len(res.Rows), len(oracleSQL.Rows))
						return
					}
				default:
					if _, _, err := eng.GroupByAggResult(true, viewcube.AggStdDev, "region"); err != nil {
						errc <- err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}
