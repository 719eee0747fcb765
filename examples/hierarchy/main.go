// Hierarchy: dimension hierarchies and the SQL-like query layer on a
// synthetic retail cube — weeks roll up from days, categories from
// products, and every roll-up is answered as one grouped range aggregation
// through intermediate view elements.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sort"
	"strings"

	"viewcube"
	"viewcube/internal/workload"
)

func main() {
	rng := rand.New(rand.NewSource(5))
	tbl, err := workload.SalesTable(rng, 40, 6, 28, 30_000)
	if err != nil {
		log.Fatal(err)
	}
	cube, err := viewcube.FromTable(tbl)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cube %v over %v, %d rows\n\n", cube.Shape(), cube.Dimensions(), tbl.Len())

	// day-NNN → week-N (monotone in sorted order, so groups are contiguous
	// coordinate ranges).
	if err := cube.DefineHierarchy("day", "week", func(day string) string {
		var n int
		fmt.Sscanf(day, "day-%d", &n)
		return fmt.Sprintf("week-%d", n/7)
	}); err != nil {
		log.Fatal(err)
	}
	// product-NNN → category (ten products per category).
	if err := cube.DefineHierarchy("product", "category", func(p string) string {
		var n int
		fmt.Sscanf(p, "product-%d", &n)
		return fmt.Sprintf("category-%d", n/10)
	}); err != nil {
		log.Fatal(err)
	}

	eng, err := cube.NewEngine(viewcube.EngineOptions{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("weekly sales (roll-up of 28 days):")
	weeks, err := eng.RollUp("day", "week", nil)
	if err != nil {
		log.Fatal(err)
	}
	printSorted(weeks)

	fmt.Println("\ncategory sales in week-1 only (filtered roll-up):")
	cats, err := eng.RollUp("product", "category", map[string]viewcube.ValueRange{
		"day": {Lo: "day-007", Hi: "day-013"},
	})
	if err != nil {
		log.Fatal(err)
	}
	printSorted(cats)

	fmt.Println("\ndrill into category-0:")
	members, err := eng.DrillDown("product", "category", "category-0")
	if err != nil {
		log.Fatal(err)
	}
	top := topOf(members, 3)
	for _, kv := range top {
		fmt.Printf("  %-14s %8g\n", kv.k, kv.v)
	}

	fmt.Println("\nthe same analysis through the query language:")
	res, err := eng.Query(
		"SELECT SUM(sales) GROUP BY region WHERE day BETWEEN 'day-007' AND 'day-013'")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("  " + strings.Join(res.Columns, "  "))
	for _, row := range res.Rows {
		fmt.Printf("  %-12s %g\n", strings.Join(row.Key, "/"), row.Values[0])
	}
}

func printSorted(groups map[string]float64) {
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-14s %8g\n", k, groups[k])
	}
}

type kv struct {
	k string
	v float64
}

func topOf(groups map[string]float64, n int) []kv {
	out := make([]kv, 0, len(groups))
	for k, v := range groups {
		out = append(out, kv{k, v})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].v != out[j].v {
			return out[i].v > out[j].v
		}
		return out[i].k < out[j].k
	})
	if n < len(out) {
		out = out[:n]
	}
	return out
}
