// Rangequery: compares three ways to answer range-SUM queries on a cube
// (§6 of the paper): direct scans, the intermediate view elements of the
// Gaussian pyramid (dyadic decomposition), and the prefix-sum cube of Ho et
// al. — verifying they agree and reporting cells read and wall time.
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"
	"time"

	"viewcube/internal/assembly"
	"viewcube/internal/rangeagg"
	"viewcube/internal/velement"
	"viewcube/internal/workload"
)

func main() {
	shape := []int{256, 256, 16}
	rng := rand.New(rand.NewSource(3))
	cube := workload.RandomCube(rng, 100, shape...)
	space := velement.MustSpace(shape...)
	fmt.Printf("cube %v (%d cells), 500 random range-SUM queries\n\n", shape, cube.Size())

	boxes := rangeagg.RandomBoxes(shape, rng, 500)

	// Direct scan.
	scanStart := time.Now()
	scanCells := 0
	scanResults := make([]float64, len(boxes))
	for i, b := range boxes {
		v, err := rangeagg.DirectScan(cube, b)
		if err != nil {
			log.Fatal(err)
		}
		scanResults[i] = v
		scanCells += b.Cells()
	}
	scanTime := time.Since(scanStart)

	// Intermediate view elements (the §6 method). The Gaussian pyramid is
	// materialised lazily by the querier on first touch.
	mat, err := assembly.NewMaterializer(space, cube)
	if err != nil {
		log.Fatal(err)
	}
	q := rangeagg.NewQuerier(space, mat)
	elemStart := time.Now()
	for i, b := range boxes {
		v, err := q.RangeSum(b)
		if err != nil {
			log.Fatal(err)
		}
		if math.Abs(v-scanResults[i]) > 1e-6 {
			log.Fatalf("box %v: element method %g, scan %g", b, v, scanResults[i])
		}
	}
	elemTime := time.Since(elemStart)

	// Prefix-sum cube baseline.
	pc := rangeagg.NewPrefixCube(cube)
	prefStart := time.Now()
	for i, b := range boxes {
		v, err := pc.RangeSum(b)
		if err != nil {
			log.Fatal(err)
		}
		if math.Abs(v-scanResults[i]) > 1e-6 {
			log.Fatalf("box %v: prefix method %g, scan %g", b, v, scanResults[i])
		}
	}
	prefTime := time.Since(prefStart)

	fmt.Printf("%-28s %14s %12s\n", "method", "cells read", "time")
	fmt.Printf("%-28s %14d %12v\n", "direct scan", scanCells, scanTime)
	fmt.Printf("%-28s %14d %12v  (first query materialises the pyramid)\n",
		"intermediate view elements", q.CellsRead, elemTime)
	fmt.Printf("%-28s %14d %12v  (after one full prefix pass)\n",
		"prefix-sum cube", len(boxes)*8, prefTime)
	fmt.Printf("\nelement method read %.1fx fewer cells than scanning\n",
		float64(scanCells)/float64(q.CellsRead))
	fmt.Println("all three methods agreed on every query")
}
