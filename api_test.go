package viewcube_test

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"viewcube"
)

const salesCSV = `product,region,day,sales
ale,east,d1,10
ale,west,d1,5
ale,east,d2,2
bock,east,d1,7
bock,west,d2,4
cider,west,d3,3
cider,east,d3,1
stout,east,d4,6
`

func loadSales(t *testing.T) *viewcube.Cube {
	t.Helper()
	c, err := viewcube.Load(strings.NewReader(salesCSV), "sales")
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestLoadShapesAndTotals(t *testing.T) {
	c := loadSales(t)
	dims := c.Dimensions()
	if len(dims) != 3 || dims[0] != "product" || dims[1] != "region" || dims[2] != "day" {
		t.Fatalf("dimensions %v", dims)
	}
	// 4 products → 4, 2 regions → 2, 4 days → 4.
	shape := c.Shape()
	if shape[0] != 4 || shape[1] != 2 || shape[2] != 4 {
		t.Fatalf("shape %v, want [4 2 4]", shape)
	}
	if c.Total() != 38 {
		t.Fatalf("total %g, want 38", c.Total())
	}
	if c.Volume() != 32 {
		t.Fatalf("volume %d, want 32", c.Volume())
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := viewcube.Load(strings.NewReader("a,b\nx,y\n"), "sales"); err == nil {
		t.Fatal("want error for missing measure")
	}
}

func TestNewCubeValidation(t *testing.T) {
	if _, err := viewcube.NewCube([]string{"a"}, []int{2, 2}); err == nil {
		t.Fatal("want error for name/shape mismatch")
	}
	if _, err := viewcube.NewCube([]string{"a", "a"}, []int{2, 2}); err == nil {
		t.Fatal("want error for duplicate names")
	}
	if _, err := viewcube.NewCube([]string{"a", ""}, []int{2, 2}); err == nil {
		t.Fatal("want error for empty name")
	}
	if _, err := viewcube.NewCube([]string{"a"}, []int{3}); err == nil {
		t.Fatal("want error for non-power-of-two extent")
	}
	if _, err := viewcube.NewCubeFromData([]string{"a"}, []int{4}, []float64{1}); err == nil {
		t.Fatal("want error for short data")
	}
}

func TestCubeCellAccess(t *testing.T) {
	c, err := viewcube.NewCube([]string{"x", "y"}, []int{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	c.Set(5, 0, 1)
	c.Add(2, 0, 1)
	if c.At(0, 1) != 7 {
		t.Fatalf("cell %g, want 7", c.At(0, 1))
	}
}

func TestCodeOfValueOf(t *testing.T) {
	c := loadSales(t)
	code, err := c.CodeOf("product", "bock")
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := c.ValueOf("product", code); !ok || v != "bock" {
		t.Fatalf("ValueOf round trip: %q %v", v, ok)
	}
	if _, err := c.CodeOf("product", "porter"); err == nil {
		t.Fatal("want error for unknown value")
	}
	if _, err := c.CodeOf("nope", "x"); err == nil {
		t.Fatal("want error for unknown dimension")
	}
	if _, ok := c.ValueOf("product", 99); ok {
		t.Fatal("padding code must not resolve")
	}
	raw, _ := viewcube.NewCube([]string{"x"}, []int{2})
	if _, err := raw.CodeOf("x", "v"); err == nil {
		t.Fatal("raw cubes have no encoding")
	}
}

func TestViewKeepingAndElements(t *testing.T) {
	c := loadSales(t)
	el, err := c.ViewKeeping("product")
	if err != nil {
		t.Fatal(err)
	}
	if !c.IsAggregatedView(el) {
		t.Fatal("ViewKeeping must return an aggregated view")
	}
	vol, err := c.VolumeOf(el)
	if err != nil {
		t.Fatal(err)
	}
	if vol != 4 {
		t.Fatalf("volume %d, want 4", vol)
	}
	kept, err := c.KeptDims(el)
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) != 1 || kept[0] != "product" {
		t.Fatalf("kept %v", kept)
	}
	if _, err := c.ViewKeeping("nope"); err != nil {
		// good
	} else {
		t.Fatal("want error for unknown dimension")
	}
	if len(c.AllViews()) != 8 {
		t.Fatalf("%d views, want 8", len(c.AllViews()))
	}
	var zero viewcube.Element
	if c.Valid(zero) {
		t.Fatal("zero element must be invalid")
	}
	if zero.String() != "invalid element" {
		t.Fatal("zero element String")
	}
	if _, err := c.VolumeOf(zero); err == nil {
		t.Fatal("VolumeOf(zero) must fail")
	}
	if _, err := c.KeptDims(c.Root()); err != nil {
		t.Fatal("the cube itself is an aggregated view keeping everything")
	}
}

func TestEngineGroupByMatchesRelationalTruth(t *testing.T) {
	c := loadSales(t)
	eng, err := c.NewEngine(viewcube.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	v, err := eng.GroupBy("product")
	if err != nil {
		t.Fatal(err)
	}
	groups, err := v.Groups()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"ale": 17, "bock": 11, "cider": 4, "stout": 6}
	for k, wv := range want {
		if math.Abs(groups[k]-wv) > 1e-9 {
			t.Fatalf("group %q = %g, want %g", k, groups[k], wv)
		}
	}
	got, err := v.Group("bock")
	if err != nil {
		t.Fatal(err)
	}
	if got != 11 {
		t.Fatalf("Group(bock)=%g", got)
	}
	if _, err := v.Group("nope"); err == nil {
		t.Fatal("want error for missing group")
	}
	if _, err := v.Group("a", "b"); err == nil {
		t.Fatal("want error for wrong arity")
	}
	keys := viewcube.SortedGroupKeys(groups)
	if len(keys) != 4 || keys[0] != "ale" {
		t.Fatalf("sorted keys %v", keys)
	}
}

func TestEngineMultiDimGroupBy(t *testing.T) {
	c := loadSales(t)
	eng, _ := c.NewEngine(viewcube.EngineOptions{})
	v, err := eng.GroupBy("product", "region")
	if err != nil {
		t.Fatal(err)
	}
	groups, err := v.Groups()
	if err != nil {
		t.Fatal(err)
	}
	// ale/east = 12, bock/west = 4.
	for key, want := range map[string]float64{"ale\x1feast": 12, "bock\x1fwest": 4} {
		if math.Abs(groups[key]-want) > 1e-9 {
			t.Fatalf("group %q = %g, want %g", key, groups[key], want)
		}
	}
	parts := viewcube.SplitGroupKey("ale\x1feast")
	if len(parts) != 2 || parts[1] != "east" {
		t.Fatalf("split %v", parts)
	}
	if len(v.KeptDimensions()) != 2 {
		t.Fatalf("kept %v", v.KeptDimensions())
	}
}

func TestEngineTotalAndValue(t *testing.T) {
	c := loadSales(t)
	eng, _ := c.NewEngine(viewcube.EngineOptions{})
	total, err := eng.Total()
	if err != nil {
		t.Fatal(err)
	}
	if total != 38 {
		t.Fatalf("total %g, want 38", total)
	}
	v, _ := eng.GroupBy("product")
	if _, err := v.Value(); err == nil {
		t.Fatal("multi-cell view must not have a single Value")
	}
	if v.Shape()[0] != 4 {
		t.Fatalf("view shape %v", v.Shape())
	}
	if len(v.Data()) != 4 {
		t.Fatal("Data length")
	}
	// Data returns a copy.
	v.Data()[0] = 999
	if v.At(0) == 999 {
		t.Fatal("Data must return a copy")
	}
}

func TestOptimizeMakesHotViewsFree(t *testing.T) {
	c := loadSales(t)
	eng, err := c.NewEngine(viewcube.EngineOptions{StorageBudget: 2 * c.Volume()})
	if err != nil {
		t.Fatal(err)
	}
	w := c.NewWorkload()
	if err := w.AddViewKeeping(0.7, "product"); err != nil {
		t.Fatal(err)
	}
	if err := w.AddViewKeeping(0.3, "region", "day"); err != nil {
		t.Fatal(err)
	}
	if w.Len() != 2 {
		t.Fatalf("workload length %d", w.Len())
	}
	if err := eng.Optimize(w); err != nil {
		t.Fatal(err)
	}
	if eng.StorageCells() > 2*c.Volume() {
		t.Fatalf("storage %d exceeds budget", eng.StorageCells())
	}
	// Hot views are now free and still correct.
	v, err := eng.GroupBy("product")
	if err != nil {
		t.Fatal(err)
	}
	if eng.Stats().LastPlanCost != 0 {
		t.Fatalf("hot view should be materialised, plan cost %d", eng.Stats().LastPlanCost)
	}
	groups, _ := v.Groups()
	if groups["ale"] != 17 {
		t.Fatalf("post-optimize group wrong: %v", groups)
	}
	// Every other view still answers correctly.
	for _, el := range c.AllViews() {
		if _, err := eng.View(el); err != nil {
			t.Fatalf("view %v unanswerable after optimize: %v", el, err)
		}
	}
}

func TestWorkloadValidation(t *testing.T) {
	c := loadSales(t)
	w := c.NewWorkload()
	if err := w.Add(viewcube.Element{}, 1); err == nil {
		t.Fatal("want error for invalid element")
	}
	el, _ := c.ViewKeeping("product")
	if err := w.Add(el, 0); err == nil {
		t.Fatal("want error for non-positive frequency")
	}
	if err := w.AddViewKeeping(1, "nope"); err == nil {
		t.Fatal("want error for unknown dimension")
	}
}

func TestRangeSumByValue(t *testing.T) {
	c := loadSales(t)
	eng, _ := c.NewEngine(viewcube.EngineOptions{})
	// Days are sorted d1 < d2 < d3 < d4; sum over d1..d2 of everything.
	got, err := eng.RangeSum(map[string]viewcube.ValueRange{
		"day": {Lo: "d1", Hi: "d2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	// d1: 10+5+7 = 22; d2: 2+4 = 6.
	if got != 28 {
		t.Fatalf("range sum %g, want 28", got)
	}
	// Single product, all days.
	got, err = eng.RangeSum(map[string]viewcube.ValueRange{
		"product": {Lo: "ale", Hi: "ale"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 17 {
		t.Fatalf("ale total %g, want 17", got)
	}
	// Open-ended ranges default to the full real domain.
	got, err = eng.RangeSum(map[string]viewcube.ValueRange{"day": {}})
	if err != nil {
		t.Fatal(err)
	}
	if got != 38 {
		t.Fatalf("full range %g, want 38", got)
	}
	if _, err := eng.RangeSum(map[string]viewcube.ValueRange{"day": {Lo: "d3", Hi: "d1"}}); err == nil {
		t.Fatal("want error for inverted range")
	}
	if _, err := eng.RangeSum(map[string]viewcube.ValueRange{"day": {Lo: "nope"}}); err == nil {
		t.Fatal("want error for unknown value")
	}
	if _, err := eng.RangeSum(map[string]viewcube.ValueRange{"nope": {}}); err == nil {
		t.Fatal("want error for unknown dimension")
	}
}

func TestRangeSumIndexOnRawCube(t *testing.T) {
	c, _ := viewcube.NewCubeFromData([]string{"x"}, []int{8}, []float64{1, 2, 3, 4, 5, 6, 7, 8})
	eng, _ := c.NewEngine(viewcube.EngineOptions{})
	got, err := eng.RangeSumIndex([]int{2}, []int{3})
	if err != nil {
		t.Fatal(err)
	}
	if got != 3+4+5 {
		t.Fatalf("range %g, want 12", got)
	}
	if _, err := eng.RangeSum(nil); err == nil {
		t.Fatal("value ranges need an encoded cube")
	}
}

func TestAutomaticAdaptationViaOptions(t *testing.T) {
	c := loadSales(t)
	eng, err := c.NewEngine(viewcube.EngineOptions{ReselectEvery: 5, Decay: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if _, err := eng.GroupBy("product"); err != nil {
			t.Fatal(err)
		}
	}
	st := eng.Stats()
	if st.Reconfigs == 0 {
		t.Fatal("automatic reconfiguration should have fired")
	}
	if st.LastPlanCost != 0 {
		t.Fatal("hot view should now be free")
	}
	if st.Queries != 12 {
		t.Fatalf("queries %d, want 12", st.Queries)
	}
}

func TestDiskBackedEngine(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "elements")
	c := loadSales(t)
	eng, err := c.NewEngine(viewcube.EngineOptions{DiskDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	w := c.NewWorkload()
	if err := w.AddViewKeeping(1, "product"); err != nil {
		t.Fatal(err)
	}
	if err := eng.Optimize(w); err != nil {
		t.Fatal(err)
	}
	v, err := eng.GroupBy("product")
	if err != nil {
		t.Fatal(err)
	}
	groups, _ := v.Groups()
	if groups["ale"] != 17 {
		t.Fatalf("disk-backed group wrong: %v", groups)
	}
	// Element files must exist on disk.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no element files written")
	}
	if eng.MaterializedElements() == 0 {
		t.Fatal("no materialised elements reported")
	}
}

func TestGroupsOnRawCubeFails(t *testing.T) {
	c, _ := viewcube.NewCubeFromData([]string{"x", "y"}, []int{2, 2}, []float64{1, 2, 3, 4})
	eng, _ := c.NewEngine(viewcube.EngineOptions{})
	v, err := eng.GroupBy("x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Groups(); err == nil {
		t.Fatal("raw cubes cannot produce relational groups")
	}
	// But indexed access works.
	if v.At(0) != 1+2 {
		t.Fatalf("indexed view value %g", v.At(0))
	}
}

func TestGroupByWhere(t *testing.T) {
	c := loadSales(t)
	eng, _ := c.NewEngine(viewcube.EngineOptions{})
	// Sales by product, restricted to days d1..d2.
	v, err := eng.GroupByWhere([]string{"product"}, map[string]viewcube.ValueRange{
		"day": {Lo: "d1", Hi: "d2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	groups, err := v.Groups()
	if err != nil {
		t.Fatal(err)
	}
	// d1..d2: ale 10+5+2=17, bock 7+4=11; cider and stout have no sales.
	want := map[string]float64{"ale": 17, "bock": 11, "cider": 0, "stout": 0}
	for k, wv := range want {
		if math.Abs(groups[k]-wv) > 1e-9 {
			t.Fatalf("group %q = %g, want %g", k, groups[k], wv)
		}
	}
	// Region filter too.
	v, err = eng.GroupByWhere([]string{"product"}, map[string]viewcube.ValueRange{
		"region": {Lo: "east", Hi: "east"},
	})
	if err != nil {
		t.Fatal(err)
	}
	groups, _ = v.Groups()
	if groups["ale"] != 12 || groups["stout"] != 6 {
		t.Fatalf("east groups %v", groups)
	}
	// No filters: equals plain GroupBy.
	v, err = eng.GroupByWhere([]string{"product"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	groups, _ = v.Groups()
	if groups["ale"] != 17 {
		t.Fatalf("unfiltered dice wrong: %v", groups)
	}
}

func TestGroupByWhereValidation(t *testing.T) {
	c := loadSales(t)
	eng, _ := c.NewEngine(viewcube.EngineOptions{})
	if _, err := eng.GroupByWhere([]string{"product"}, map[string]viewcube.ValueRange{
		"product": {Lo: "ale", Hi: "ale"},
	}); err == nil {
		t.Fatal("want error for kept+filtered dimension")
	}
	if _, err := eng.GroupByWhere([]string{"nope"}, nil); err == nil {
		t.Fatal("want error for unknown kept dimension")
	}
	if _, err := eng.GroupByWhere([]string{"product"}, map[string]viewcube.ValueRange{
		"nope": {},
	}); err == nil {
		t.Fatal("want error for unknown filtered dimension")
	}
	if _, err := eng.GroupByWhere([]string{"product"}, map[string]viewcube.ValueRange{
		"day": {Lo: "d3", Hi: "d1"},
	}); err == nil {
		t.Fatal("want error for inverted range")
	}
	raw, _ := viewcube.NewCube([]string{"x"}, []int{4})
	rawEng, _ := raw.NewEngine(viewcube.EngineOptions{})
	if _, err := rawEng.GroupByWhere([]string{"x"}, nil); err == nil {
		t.Fatal("raw cubes cannot dice by value")
	}
}

func TestViewTopKAndIceberg(t *testing.T) {
	c := loadSales(t)
	eng, _ := c.NewEngine(viewcube.EngineOptions{})
	v, err := eng.GroupBy("product")
	if err != nil {
		t.Fatal(err)
	}
	top, err := v.TopK(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 2 || top[0].Key != "ale" || top[0].Value != 17 || top[1].Key != "bock" {
		t.Fatalf("top2 %v", top)
	}
	all, err := v.TopK(99)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 4 {
		t.Fatalf("topAll %v", all)
	}
	ice, err := v.Iceberg(6)
	if err != nil {
		t.Fatal(err)
	}
	// ale 17, bock 11, stout 6 qualify; cider 4 does not.
	if len(ice) != 3 || ice[2].Key != "stout" {
		t.Fatalf("iceberg %v", ice)
	}
	raw, _ := viewcube.NewCube([]string{"x"}, []int{2})
	rawEng, _ := raw.NewEngine(viewcube.EngineOptions{})
	rv, _ := rawEng.GroupBy("x")
	if _, err := rv.TopK(1); err == nil {
		t.Fatal("raw cubes cannot TopK")
	}
}

func TestEngineStatePersistence(t *testing.T) {
	c := loadSales(t)
	eng, _ := c.NewEngine(viewcube.EngineOptions{})
	for i := 0; i < 9; i++ {
		if _, err := eng.GroupBy("product"); err != nil {
			t.Fatal(err)
		}
	}
	var buf strings.Builder
	if err := eng.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	// A fresh engine restores the profile and immediately reconfigures to
	// the hot view without observing a single query.
	eng2, _ := c.NewEngine(viewcube.EngineOptions{})
	if err := eng2.LoadState(strings.NewReader(buf.String())); err != nil {
		t.Fatal(err)
	}
	if _, err := eng2.Reconfigure(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng2.GroupBy("product"); err != nil {
		t.Fatal(err)
	}
	if eng2.Stats().LastPlanCost != 0 {
		t.Fatalf("restored engine should have materialised the hot view, cost %d",
			eng2.Stats().LastPlanCost)
	}
	if err := eng2.LoadState(strings.NewReader("not json")); err == nil {
		t.Fatal("want error for bad state")
	}
	if err := eng2.LoadState(strings.NewReader(`{"999-1-1": 5}`)); err == nil {
		t.Fatal("want error for foreign element id")
	}
	if err := eng2.LoadState(strings.NewReader(`{"x-y": 5}`)); err == nil {
		t.Fatal("want error for malformed id")
	}
}

func TestExplain(t *testing.T) {
	c := loadSales(t)
	eng, _ := c.NewEngine(viewcube.EngineOptions{})
	plan, err := eng.ExplainGroupBy("product")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "aggregate view{product} from stored cube") {
		t.Fatalf("cube-only plan should aggregate from the cube:\n%s", plan)
	}
	// After optimisation the plan becomes a direct read.
	w := c.NewWorkload()
	if err := w.AddViewKeeping(1, "product"); err != nil {
		t.Fatal(err)
	}
	if err := eng.Optimize(w); err != nil {
		t.Fatal(err)
	}
	plan, err = eng.ExplainGroupBy("product")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "read stored view{product}") {
		t.Fatalf("optimised plan should read the stored view:\n%s", plan)
	}
	if !strings.Contains(plan, "total cost 0 ops") {
		t.Fatalf("optimised plan should be free:\n%s", plan)
	}
	// Synthesis appears in plans for views the basis tiles.
	plan, err = eng.Explain(c.Root())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "synthesize") && !strings.Contains(plan, "read stored cube") {
		t.Fatalf("root plan unexpected:\n%s", plan)
	}
	if _, err := eng.Explain(viewcube.Element{}); err == nil {
		t.Fatal("want error for invalid element")
	}
	// Explaining must not count as a query for adaptation.
	q := eng.Stats().Queries
	if _, err := eng.ExplainGroupBy("region"); err != nil {
		t.Fatal(err)
	}
	if eng.Stats().Queries != q {
		t.Fatal("Explain must not record an access")
	}
}

func TestSafeEngineConcurrentUse(t *testing.T) {
	c := loadSales(t)
	eng, _ := c.NewEngine(viewcube.EngineOptions{ReselectEvery: 7})
	safe := eng.Safe()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				switch (g + i) % 4 {
				case 0:
					if _, err := safe.GroupBy("product"); err != nil {
						errs <- err
					}
				case 1:
					if _, err := safe.Total(); err != nil {
						errs <- err
					}
				case 2:
					if _, err := safe.RangeSum(map[string]viewcube.ValueRange{
						"day": {Lo: "d1", Hi: "d3"},
					}); err != nil {
						errs <- err
					}
				case 3:
					if _, err := safe.Query("SELECT SUM(sales) GROUP BY region"); err != nil {
						errs <- err
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if safe.Stats().Queries == 0 {
		t.Fatal("no queries recorded")
	}
	v, err := safe.GroupBy("product")
	if err != nil {
		t.Fatal(err)
	}
	groups, _ := v.Groups()
	if groups["ale"] != 17 {
		t.Fatalf("concurrent use corrupted answers: %v", groups)
	}
}

// TestCubeLimits: a cube past what an element key can address (8 dimensions,
// extent 32 768) is refused where it is built — NewCube, Load/FromTable,
// NewAggEngine — instead of panicking inside the first query's planner; the
// largest allowed extent plans and answers.
func TestCubeLimits(t *testing.T) {
	if _, err := viewcube.NewCube([]string{"customer", "k"}, []int{65536, 2}); err == nil ||
		!strings.Contains(err.Error(), "dimension 0") || !strings.Contains(err.Error(), "32768") {
		t.Fatalf("extent 65536: err = %v", err)
	}
	names := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i"}
	if _, err := viewcube.NewCube(names, []int{2, 2, 2, 2, 2, 2, 2, 2, 2}); err == nil || !strings.Contains(err.Error(), "maximum of 8") {
		t.Fatalf("rank 9: err = %v", err)
	}

	tbl, err := viewcube.NewTable([]string{"customer", "k"}, "sales")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= 32768; i++ {
		if err := tbl.Append([]string{fmt.Sprintf("c%05d", i), "x"}, 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := viewcube.FromRelation(tbl); err == nil || !strings.Contains(err.Error(), "32768") {
		t.Fatalf("32 769 distinct values: FromRelation err = %v", err)
	}
	if _, err := viewcube.NewAggEngine(tbl, viewcube.EngineOptions{}); err == nil || !strings.Contains(err.Error(), "32768") {
		t.Fatalf("32 769 distinct values: NewAggEngine err = %v", err)
	}

	cube, err := viewcube.NewCube([]string{"customer", "k"}, []int{32768, 2})
	if err != nil {
		t.Fatal(err)
	}
	cube.Add(3, 32767, 1)
	eng, err := cube.NewEngine(viewcube.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	v, err := eng.GroupBy("k")
	if err != nil {
		t.Fatal(err)
	}
	if got := v.At(1); got != 3 {
		t.Fatalf("GroupBy(k)[1] = %v, want 3", got)
	}
}
