package viewcube_test

import (
	"math"
	"strings"
	"testing"

	"viewcube"
	"viewcube/internal/relation"
)

func loadSalesTable(t *testing.T) *viewcube.Table {
	t.Helper()
	tbl, err := viewcube.ReadTable(strings.NewReader(salesCSV), "sales")
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestTablePublicAPI(t *testing.T) {
	tbl, err := viewcube.NewTable([]string{"a", "b"}, "m")
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Append([]string{"x", "y"}, 2); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Append([]string{"x"}, 2); err == nil {
		t.Fatal("want error for arity mismatch")
	}
	if tbl.Len() != 1 || tbl.Measure() != "m" || len(tbl.Dimensions()) != 2 {
		t.Fatal("table metadata wrong")
	}
	var sb strings.Builder
	if err := tbl.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	back, err := viewcube.ReadTable(strings.NewReader(sb.String()), "m")
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 1 {
		t.Fatal("CSV round trip lost rows")
	}
	if _, err := viewcube.NewTable(nil, "m"); err == nil {
		t.Fatal("want error for empty schema")
	}
}

func TestCountTable(t *testing.T) {
	tbl := loadSalesTable(t)
	ct, err := tbl.CountTable()
	if err != nil {
		t.Fatal(err)
	}
	if ct.Len() != tbl.Len() {
		t.Fatal("count table must have the same tuples")
	}
	if ct.Measure() != "count_sales" {
		t.Fatalf("count measure %q", ct.Measure())
	}
	cube, err := viewcube.FromRelation(ct)
	if err != nil {
		t.Fatal(err)
	}
	if cube.Total() != 8 {
		t.Fatalf("count cube total %g, want 8 tuples", cube.Total())
	}
}

// avgOf reads one group of a GroupByAgg answer by its dimension values in
// cube order; ok is false when the answer has no such group.
func avgOf(groups map[string]float64, values ...string) (float64, bool) {
	v, ok := groups[relation.GroupKey(values...)]
	return v, ok
}

func TestGroupByAvg(t *testing.T) {
	eng, err := viewcube.NewAggEngine(loadSalesTable(t), viewcube.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	avgs, err := eng.GroupByAgg(viewcube.AggAvg, "product")
	if err != nil {
		t.Fatal(err)
	}
	// ale: (10+5+2)/3, bock: (7+4)/2, cider: (3+1)/2, stout: 6/1.
	want := map[string]float64{"ale": 17.0 / 3, "bock": 5.5, "cider": 2, "stout": 6}
	for k, wv := range want {
		if math.Abs(avgs[k]-wv) > 1e-9 {
			t.Fatalf("avg %q = %g, want %g", k, avgs[k], wv)
		}
	}
	if got, ok := avgOf(avgs, "bock"); !ok || got != 5.5 {
		t.Fatalf("avgOf = %g, %v", got, ok)
	}
	if _, ok := avgOf(avgs, "nope"); ok {
		t.Fatal("missing group must not resolve")
	}
	counts, err := eng.GroupByAgg(viewcube.AggCount, "product")
	if err != nil {
		t.Fatal(err)
	}
	if counts["ale"] != 3 || counts["stout"] != 1 {
		t.Fatalf("counts %v", counts)
	}
}

func TestRangeAvg(t *testing.T) {
	eng, err := viewcube.NewAggEngine(loadSalesTable(t), viewcube.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Days d1..d2: sum 28 over 5 tuples.
	got, err := eng.RangeAgg(viewcube.AggAvg, map[string]viewcube.ValueRange{"day": {Lo: "d1", Hi: "d2"}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-28.0/5) > 1e-9 {
		t.Fatalf("range avg %g, want 5.6", got)
	}
	if _, err := eng.RangeAgg(viewcube.AggAvg, map[string]viewcube.ValueRange{"day": {Lo: "nope"}}); err == nil {
		t.Fatal("want error for bad range")
	}
}

func TestAggEngineOptimizeAndUpdate(t *testing.T) {
	tbl := loadSalesTable(t)
	eng, err := viewcube.NewAggEngine(tbl, viewcube.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	w := eng.Cube().NewWorkload()
	if err := w.AddViewKeeping(1, "product"); err != nil {
		t.Fatal(err)
	}
	if err := eng.Optimize(w); err != nil {
		t.Fatal(err)
	}
	// Both aggregates should now answer the hot view for free.
	if _, err := eng.GroupByAgg(viewcube.AggSum, "product"); err != nil {
		t.Fatal(err)
	}
	if eng.Stats().LastPlanCost != 0 {
		t.Fatal("sum side not optimised")
	}
	if _, err := eng.GroupByAgg(viewcube.AggCount, "product"); err != nil {
		t.Fatal(err)
	}
	if eng.Stats().LastPlanCost != 0 {
		t.Fatal("count side not optimised")
	}
	// A new tuple: ale/east/d1 with measure 4 → ale avg becomes 21/4.
	if err := eng.UpdateValue(4, map[string]string{
		"product": "ale", "region": "east", "day": "d1",
	}); err != nil {
		t.Fatal(err)
	}
	avgs, err := eng.GroupByAgg(viewcube.AggAvg, "product")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(avgs["ale"]-21.0/4) > 1e-9 {
		t.Fatalf("ale avg after insert = %g, want 5.25", avgs["ale"])
	}
}

func TestAggEngineRejectsDiskDir(t *testing.T) {
	if _, err := viewcube.NewAggEngine(loadSalesTable(t), viewcube.EngineOptions{DiskDir: t.TempDir()}); err == nil {
		t.Fatal("want error for a disk dir")
	}
}
