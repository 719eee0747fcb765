// Package workload generates the synthetic query populations and data sets
// used by the paper's experiments and by this reproduction's examples and
// benchmarks. All generators are deterministic given a seeded *rand.Rand.
//
// The paper's experiments (§7.2) "assign a random probability of access to
// each of the aggregated views"; UniformViewPopulation reproduces exactly
// that. Zipf and hot-spot populations model the skewed access patterns that
// make dynamic re-selection worthwhile, and the relational generators
// provide realistic OLAP fact tables for the examples.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"viewcube/internal/core"
	"viewcube/internal/ndarray"
	"viewcube/internal/relation"
	"viewcube/internal/velement"
)

// UniformViewPopulation assigns an independent Uniform(0,1) weight to each
// aggregated view and normalises (the paper's Experiment 1 and 2 workload).
// If includeRoot is false the raw cube (mask 0) is excluded — see DESIGN.md
// for which experiments query it.
func UniformViewPopulation(s *velement.Space, rng *rand.Rand, includeRoot bool) []core.Query {
	views := s.AggregatedViews()
	start := 1
	if includeRoot {
		start = 0
	}
	queries := make([]core.Query, 0, len(views)-start)
	for _, v := range views[start:] {
		queries = append(queries, core.Query{Rect: v, Freq: rng.Float64()})
	}
	core.NormalizeFrequencies(queries)
	return queries
}

// ZipfViewPopulation assigns Zipf(skew) frequencies to the aggregated views
// in a random rank order: rank r gets weight (r+1)^-skew. skew = 0 is
// uniform; larger skews concentrate mass on a few views.
func ZipfViewPopulation(s *velement.Space, rng *rand.Rand, skew float64, includeRoot bool) []core.Query {
	views := s.AggregatedViews()
	start := 1
	if includeRoot {
		start = 0
	}
	views = views[start:]
	perm := rng.Perm(len(views))
	queries := make([]core.Query, len(views))
	for rank, vi := range perm {
		queries[vi] = core.Query{Rect: views[vi], Freq: math.Pow(float64(rank+1), -skew)}
	}
	core.NormalizeFrequencies(queries)
	return queries
}

// HotSpotPopulation puts all mass uniformly on k randomly chosen aggregated
// views (the pedagogical example is k=2). k is clamped to the number of
// available views.
func HotSpotPopulation(s *velement.Space, rng *rand.Rand, k int, includeRoot bool) []core.Query {
	views := s.AggregatedViews()
	start := 1
	if includeRoot {
		start = 0
	}
	views = views[start:]
	if k > len(views) {
		k = len(views)
	}
	if k < 1 {
		k = 1
	}
	perm := rng.Perm(len(views))
	queries := make([]core.Query, 0, k)
	for _, vi := range perm[:k] {
		queries = append(queries, core.Query{Rect: views[vi], Freq: 1 / float64(k)})
	}
	return queries
}

// RandomCube fills a cube of the given shape with integer-valued measures
// in [0, max).
func RandomCube(rng *rand.Rand, max float64, shape ...int) *ndarray.Array {
	a := ndarray.New(shape...)
	for i := range a.Data() {
		a.Data()[i] = math.Floor(rng.Float64() * max)
	}
	return a
}

// SparseCube fills a cube where each cell is nonzero with probability
// density — the sparse regime that motivates wavelet-packet compression.
func SparseCube(rng *rand.Rand, density, max float64, shape ...int) *ndarray.Array {
	a := ndarray.New(shape...)
	for i := range a.Data() {
		if rng.Float64() < density {
			a.Data()[i] = 1 + math.Floor(rng.Float64()*max)
		}
	}
	return a
}

// DyadicBlockCube returns a cube that is a constant value inside one
// randomly placed dyadic-aligned block of approximately frac of the cube's
// volume, and zero elsewhere — the clustered regime where wavelet-packet
// bases isolate the data region (§4.3's compression remark).
func DyadicBlockCube(rng *rand.Rand, value, frac float64, shape ...int) *ndarray.Array {
	a := ndarray.New(shape...)
	d := len(shape)
	// Split the total depth budget round-robin across dimensions.
	depthBudget := int(math.Round(-math.Log2(frac)))
	depths := make([]int, d)
	for b, m := 0, 0; b < depthBudget; m = (m + 1) % d {
		max := int(math.Log2(float64(shape[m])))
		if depths[m] < max {
			depths[m]++
			b++
			continue
		}
		// Dimension exhausted; if all are, stop.
		full := true
		for q := range depths {
			if depths[q] < int(math.Log2(float64(shape[q]))) {
				full = false
				break
			}
		}
		if full {
			break
		}
	}
	lo := make([]int, d)
	ext := make([]int, d)
	for m := range shape {
		ext[m] = shape[m] >> uint(depths[m])
		blocks := shape[m] / ext[m]
		lo[m] = rng.Intn(blocks) * ext[m]
	}
	idx := make([]int, d)
	var fill func(m int)
	fill = func(m int) {
		if m == d {
			a.Set(value, idx...)
			return
		}
		for i := lo[m]; i < lo[m]+ext[m]; i++ {
			idx[m] = i
			fill(m + 1)
		}
	}
	fill(0)
	return a
}

// SalesTable generates a synthetic retail fact table: the motivating OLAP
// scenario of the paper's introduction (sales by product, store/customer
// attribute, and date). Row measures are integral quantities, so all cube
// arithmetic is exact in float64.
func SalesTable(rng *rand.Rand, products, regions, days, rows int) (*relation.Table, error) {
	if products < 1 || regions < 1 || days < 1 || rows < 0 {
		return nil, fmt.Errorf("workload: domain sizes must be positive")
	}
	tbl, err := relation.NewTable(relation.Schema{
		Dimensions: []string{"product", "region", "day"},
		Measure:    "sales",
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < rows; i++ {
		// Skewed product popularity: low product ids sell more often.
		p := int(float64(products) * rng.Float64() * rng.Float64())
		if p >= products {
			p = products - 1
		}
		values := []string{
			fmt.Sprintf("product-%03d", p),
			fmt.Sprintf("region-%02d", rng.Intn(regions)),
			fmt.Sprintf("day-%03d", rng.Intn(days)),
		}
		if err := tbl.Append(values, float64(1+rng.Intn(9))); err != nil {
			return nil, err
		}
	}
	return tbl, nil
}
