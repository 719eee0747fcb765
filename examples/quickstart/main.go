// Quickstart: load a small CSV relation into a data cube, attach an engine,
// and run GROUP BY and range-SUM queries through dynamically assembled view
// elements; then build the measure-vector engine of the same relation and
// ask it for AVG and COUNT.
package main

import (
	"fmt"
	"log"
	"strings"

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

func main() {
	// 1. Load the relation. Dimensions are dictionary-encoded onto
	// power-of-two domains; the measure is SUM-aggregated into cube cells.
	cube, err := viewcube.Load(strings.NewReader(salesCSV), "sales")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cube %v over dimensions %v, grand total %g\n",
		cube.Shape(), cube.Dimensions(), cube.Total())

	// 2. Attach an engine. Initially the cube itself is the only
	// materialised element; every view is assembled on demand.
	eng, err := cube.NewEngine(viewcube.EngineOptions{})
	if err != nil {
		log.Fatal(err)
	}

	// 3. GROUP BY product — assembled by a cascade of partial aggregations.
	byProduct, err := eng.GroupBy("product")
	if err != nil {
		log.Fatal(err)
	}
	groups, err := byProduct.Groups()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nsales by product:")
	for _, k := range viewcube.SortedGroupKeys(groups) {
		fmt.Printf("  %-8s %6g\n", k, groups[k])
	}
	fmt.Printf("  (assembled with %d add/subtract ops)\n", eng.Stats().LastPlanCost)

	// 4. Declare the hot views and let Algorithm 1 pick the optimal
	// non-redundant element basis; the hot view becomes free.
	w := cube.NewWorkload()
	if err := w.AddViewKeeping(0.8, "product"); err != nil {
		log.Fatal(err)
	}
	if err := w.AddViewKeeping(0.2, "region"); err != nil {
		log.Fatal(err)
	}
	if err := eng.Optimize(w); err != nil {
		log.Fatal(err)
	}
	if _, err := eng.GroupBy("product"); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nafter Optimize: %d elements materialised (%d cells), hot view plan cost %d\n",
		eng.MaterializedElements(), eng.StorageCells(), eng.Stats().LastPlanCost)

	// 5. Range aggregation via intermediate view elements (§6): total sales
	// for days d1..d2 across all products and regions.
	early, err := eng.RangeSum(map[string]viewcube.ValueRange{
		"day": {Lo: "d1", Hi: "d2"},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsales in days d1..d2: %g\n", early)

	// 6. AVG and COUNT: NewAggEngine builds the cube of the component vector
	// [Σv, Σv², Σ1] (three planes, one engine), and every aggregate of a
	// statement finalises from one assembled view.
	tbl, err := viewcube.ReadTable(strings.NewReader(salesCSV), "sales")
	if err != nil {
		log.Fatal(err)
	}
	agg, err := viewcube.NewAggEngine(tbl, viewcube.EngineOptions{})
	if err != nil {
		log.Fatal(err)
	}
	res, err := agg.Query("SELECT AVG(sales), COUNT(*) GROUP BY region")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%v\n", res.Columns)
	for _, row := range res.Rows {
		fmt.Printf("  %-8s %6g %6g\n", row.Key[0], row.Values[0], row.Values[1])
	}
}
