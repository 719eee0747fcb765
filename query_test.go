package viewcube_test

import (
	"math"
	"strings"
	"testing"

	"viewcube"
)

func TestEngineQuerySum(t *testing.T) {
	c := loadSales(t)
	eng, _ := c.NewEngine(viewcube.EngineOptions{})
	res, err := eng.Query("SELECT SUM(sales) GROUP BY product")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != 2 || res.Columns[0] != "product" || res.Columns[1] != "SUM(sales)" {
		t.Fatalf("columns %v", res.Columns)
	}
	want := map[string]float64{"ale": 17, "bock": 11, "cider": 4, "stout": 6}
	if len(res.Rows) != 4 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	for _, row := range res.Rows {
		if len(row.Key) != 1 {
			t.Fatalf("row key %v", row.Key)
		}
		if math.Abs(row.Values[0]-want[row.Key[0]]) > 1e-9 {
			t.Fatalf("row %v = %g, want %g", row.Key, row.Values[0], want[row.Key[0]])
		}
	}
	// Rows are sorted by key.
	if res.Rows[0].Key[0] != "ale" || res.Rows[3].Key[0] != "stout" {
		t.Fatalf("row order wrong: %v, %v", res.Rows[0].Key, res.Rows[3].Key)
	}
}

func TestEngineQueryWithWhere(t *testing.T) {
	c := loadSales(t)
	eng, _ := c.NewEngine(viewcube.EngineOptions{})
	res, err := eng.Query("SELECT SUM(sales) GROUP BY product WHERE day BETWEEN 'd1' AND 'd2'")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	for _, row := range res.Rows {
		got[row.Key[0]] = row.Values[0]
	}
	if got["ale"] != 17 || got["bock"] != 11 || got["cider"] != 0 {
		t.Fatalf("filtered groups %v", got)
	}
	// Equality predicate.
	res, err = eng.Query("SELECT SUM(sales) WHERE region = 'west'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0].Values[0] != 12 { // 5+4+3
		t.Fatalf("west total %v", res.Rows)
	}
	if len(res.Rows[0].Key) != 0 {
		t.Fatalf("ungrouped row must have empty key, got %v", res.Rows[0].Key)
	}
}

func TestEngineQueryGrandTotal(t *testing.T) {
	c := loadSales(t)
	eng, _ := c.NewEngine(viewcube.EngineOptions{})
	res, err := eng.Query("SELECT SUM(sales)")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0].Values[0] != 38 {
		t.Fatalf("grand total %v", res.Rows)
	}
}

func TestEngineQueryErrors(t *testing.T) {
	c := loadSales(t)
	eng, _ := c.NewEngine(viewcube.EngineOptions{})
	cases := []string{
		"SELECT AVG(sales) GROUP BY product",                       // needs NewAggEngine
		"SELECT COUNT(*)",                                          // needs NewAggEngine
		"SELECT SUM(profit)",                                       // unknown measure
		"SELECT SUM(sales) GROUP BY nope",                          // unknown dimension
		"SELECT SUM(sales) WHERE nope = 'x'",                       // unknown filter dimension
		"SELECT SUM(sales) WHERE day = 'd99'",                      // unknown value
		"nonsense",                                                 // parse error
		"SELECT SUM(sales) GROUP BY product WHERE product = 'ale'", // grouped+filtered
	}
	for _, sql := range cases {
		if _, err := eng.Query(sql); err == nil {
			t.Errorf("Query(%q): want error", sql)
		}
	}
}

func TestAggEngineQuery(t *testing.T) {
	eng, err := viewcube.NewAggEngine(loadSalesTable(t), viewcube.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Query("SELECT SUM(sales), COUNT(*), AVG(sales) GROUP BY product WHERE region = 'east'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != 4 {
		t.Fatalf("columns %v", res.Columns)
	}
	got := map[string][]float64{}
	for _, row := range res.Rows {
		got[row.Key[0]] = row.Values
	}
	// east: ale 10+2 over 2 tuples; bock 7 over 1; cider 1 over 1; stout 6 over 1.
	checks := map[string][3]float64{
		"ale":   {12, 2, 6},
		"bock":  {7, 1, 7},
		"cider": {1, 1, 1},
		"stout": {6, 1, 6},
	}
	if len(got) != len(checks) {
		t.Fatalf("groups %v", got)
	}
	for k, want := range checks {
		vals := got[k]
		for i := 0; i < 3; i++ {
			if math.Abs(vals[i]-want[i]) > 1e-9 {
				t.Fatalf("group %q column %d = %g, want %g", k, i, vals[i], want[i])
			}
		}
	}
}

func TestAggEngineQueryOmitsEmptyGroups(t *testing.T) {
	eng, err := viewcube.NewAggEngine(loadSalesTable(t), viewcube.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Days d3..d3: only cider sells; other products have zero count and
	// must not appear (AVG would divide by zero).
	res, err := eng.Query("SELECT AVG(sales) GROUP BY product WHERE day = 'd3'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0].Key[0] != "cider" {
		t.Fatalf("rows %v", res.Rows)
	}
	if res.Rows[0].Values[0] != 2 { // (3+1)/2
		t.Fatalf("cider avg %g", res.Rows[0].Values[0])
	}
}

func TestQueryOnRawCube(t *testing.T) {
	raw, _ := viewcube.NewCubeFromData([]string{"x"}, []int{4}, []float64{1, 2, 3, 4})
	eng, _ := raw.NewEngine(viewcube.EngineOptions{})
	res, err := eng.Query("SELECT SUM(anything)")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0].Values[0] != 10 {
		t.Fatalf("raw total %v", res.Rows)
	}
	if _, err := eng.Query("SELECT SUM(m) GROUP BY x"); err == nil {
		t.Fatal("raw cubes cannot GROUP BY")
	}
	if _, err := eng.Query("SELECT SUM(m) WHERE x = 'v'"); err == nil {
		t.Fatal("raw cubes cannot filter by value")
	}
	// The aggregate reads keep the same rules: the ungrouped, unfiltered
	// SUM answers; groups, value ranges and COUNT fail with an error.
	if g, err := eng.GroupByAgg(viewcube.AggSum); err != nil || g[""] != 10 {
		t.Fatalf("raw GroupByAgg total %v (%v)", g, err)
	}
	if v, err := eng.RangeAgg(viewcube.AggSum, nil); err != nil || v != 10 {
		t.Fatalf("raw RangeAgg total %v (%v)", v, err)
	}
	if _, err := eng.GroupByAgg(viewcube.AggSum, "x"); err == nil {
		t.Fatal("raw cubes cannot group by value")
	}
	if _, err := eng.RangeAgg(viewcube.AggSum, map[string]viewcube.ValueRange{"x": {}}); err == nil {
		t.Fatal("raw cubes cannot range by value")
	}
	if _, err := eng.RangeAgg(viewcube.AggCount, nil); err == nil || !strings.Contains(err.Error(), "NewAggEngine") {
		t.Fatalf("COUNT on a SUM cube: %v, want an error naming NewAggEngine", err)
	}
}
