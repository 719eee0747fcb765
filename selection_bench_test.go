// Benchmarks for selection and planning at the shapes the repository's
// benchmark (cmd/cubebench) serves: the 64×16×32×4 `sales` cube with the
// 14-view population `assemble_cold` optimizes for, and the 2 097 152-cell
// cube ROADMAP wants it to grow to. Numbers are recorded in EXPERIMENTS.md.
package viewcube_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"viewcube"
	"viewcube/internal/assembly"
	"viewcube/internal/core"
	"viewcube/internal/freq"
	"viewcube/internal/plan"
	"viewcube/internal/velement"
	"viewcube/internal/workload"
)

var benchDims = []string{"product", "region", "day", "channel"}

// benchPopulation is the group-by traffic cubebench posts to /optimize on
// assemble_cold (hotViews(coldPopulation(sales))): 14 aggregated views,
// Zipf-weighted.
var benchPopulation = []struct {
	keep []string
	freq float64
}{
	{[]string{"product", "channel"}, 0.21528112633168134},
	{[]string{"product", "region", "channel"}, 0.10764056316584067},
	{[]string{"channel"}, 0.07176037544389377},
	{[]string{"day"}, 0.053820281582920335},
	{[]string{"day", "channel"}, 0.04305622526633626},
	{[]string{"region", "day", "channel"}, 0.035880187721946885},
	{[]string{"region", "day"}, 0.030754446618811618},
	{[]string{"product", "day"}, 0.026910140791460167},
	{[]string{"region", "channel"}, 0.02392012514796459},
	{[]string{"region"}, 0.02152811263316813},
	{[]string{"product", "day", "channel"}, 0.0195710114846983},
	{[]string{"product"}, 0.017940093860973443},
	{nil, 0.016560086640898565},
	{[]string{"product", "region"}, 0.015377223309405809},
}

// benchQueries is benchPopulation as a core query population over s.
func benchQueries(s *velement.Space) []core.Query {
	queries := make([]core.Query, len(benchPopulation))
	for i, p := range benchPopulation {
		mask := uint(1<<len(benchDims)) - 1
		for _, name := range p.keep {
			for m, d := range benchDims {
				if d == name {
					mask &^= 1 << uint(m)
				}
			}
		}
		queries[i] = core.Query{Rect: s.ViewForMask(mask), Freq: p.freq}
	}
	return queries
}

func benchCube(b *testing.B, shape ...int) *viewcube.Cube {
	b.Helper()
	cube, err := viewcube.NewCube(benchDims, shape)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	idx := make([]int, len(shape))
	for i := 0; i < 100000; i++ {
		for m, n := range shape {
			idx[m] = rng.Intn(n)
		}
		cube.Add(float64(1+rng.Intn(99)), idx...)
	}
	return cube
}

// benchTable is a relation over benchDims whose dictionaries hold exactly
// shape[m] values each — every one present — so its cube has that shape,
// plus 100 000 random tuples.
func benchTable(b *testing.B, shape ...int) *viewcube.Table {
	b.Helper()
	tbl, err := viewcube.NewTable(benchDims, "sales")
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	vals := make([]string, len(shape))
	row := func(pick func(m, n int) int) {
		for m, n := range shape {
			vals[m] = fmt.Sprintf("%s-%03d", benchDims[m], pick(m, n))
		}
		if err := tbl.Append(vals, float64(1+rng.Intn(99))); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < slices.Max(shape); i++ {
		row(func(_, n int) int { return i % n })
	}
	for i := 0; i < 100000; i++ {
		row(func(_, n int) int { return rng.Intn(n) })
	}
	return tbl
}

// benchWorkload is benchPopulation as a workload on cube.
func benchWorkload(b *testing.B, cube *viewcube.Cube) *viewcube.Workload {
	b.Helper()
	w := cube.NewWorkload()
	for _, p := range benchPopulation {
		if err := w.AddViewKeeping(p.freq, p.keep...); err != nil {
			b.Fatal(err)
		}
	}
	return w
}

func benchOptimize(b *testing.B, cube *viewcube.Cube, budget int) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer() // building the fixture is not part of it
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		eng, err := cube.NewEngine(viewcube.EngineOptions{StorageBudget: budget * cube.Volume()})
		if err != nil {
			b.Fatal(err)
		}
		w := benchWorkload(b, cube)
		b.StartTimer()
		if err := eng.Optimize(w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimize131k is POST /optimize on the benchmark cube: Algorithm 1
// (budget 1) or Algorithm 1 + pruned Algorithm 2 (budget 2), then migration
// of the store from the root-only set to the selected one.
func BenchmarkOptimize131k(b *testing.B) {
	b.Run("budget=1", benchOptimize131kBudget1)
	b.Run("budget=2", benchOptimize131kBudget2)
}

func benchOptimize131kBudget1(b *testing.B) { benchOptimize(b, benchCube(b, 64, 16, 32, 4), 1) }
func benchOptimize131kBudget2(b *testing.B) { benchOptimize(b, benchCube(b, 64, 16, 32, 4), 2) }

// BenchmarkOptimizeAgg131k is BenchmarkOptimize131k/budget=1 over one
// table-built cube of the benchmark shape: on the scalar engine of its SUM
// cube and on the NewAggEngine engine of its measure vector [Σv, Σv², Σ1],
// which selects once and migrates all three planes in one cascade.
func BenchmarkOptimizeAgg131k(b *testing.B) {
	b.Run("scalar", benchOptimizeAgg131kScalar)
	b.Run("agg", benchOptimizeAgg131kAgg)
}

func benchOptimizeAgg131kScalar(b *testing.B) {
	cube, err := viewcube.FromRelation(benchTable(b, 64, 16, 32, 4))
	if err != nil {
		b.Fatal(err)
	}
	benchOptimize(b, cube, 1)
}

func benchOptimizeAgg131kAgg(b *testing.B) {
	tbl := benchTable(b, 64, 16, 32, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		eng, err := viewcube.NewAggEngine(tbl, viewcube.EngineOptions{StorageBudget: 64 * 16 * 32 * 4})
		if err != nil {
			b.Fatal(err)
		}
		w := benchWorkload(b, eng.Cube())
		b.StartTimer()
		if err := eng.Optimize(w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimize2M is the same reconfiguration at the 2 097 152-cell
// shape (budget 1).
func BenchmarkOptimize2M(b *testing.B) {
	benchOptimize(b, benchCube(b, 128, 32, 64, 8), 1)
}

// BenchmarkPlanCompileView measures a first-use Procedure 3 compile of a
// three-dimension view (product × region × day) on the benchmark shape,
// against the Algorithm 1 basis and against the root-only store.
func BenchmarkPlanCompileView(b *testing.B) {
	b.Run("basis", benchPlanCompileViewBasis)
	b.Run("root", benchPlanCompileViewRoot)
}

func benchPlanCompileViewBasis(b *testing.B) { benchPlanCompileView(b, true) }
func benchPlanCompileViewRoot(b *testing.B)  { benchPlanCompileView(b, false) }

func benchPlanCompileView(b *testing.B, fromBasis bool) {
	s := velement.MustSpace(64, 16, 32, 4)
	set := []freq.Rect{s.Root()}
	if fromBasis {
		sel, err := core.SelectBasis(s, benchQueries(s))
		if err != nil {
			b.Fatal(err)
		}
		set = sel.Basis
	}
	st, err := assembly.MaterializeSet(s, workload.RandomCube(rand.New(rand.NewSource(1)), 100, 64, 16, 32, 4), set)
	if err != nil {
		b.Fatal(err)
	}
	p := plan.NewPlanner(assembly.NewEngine(s, st))
	target := s.ViewForMask(1 << 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Invalidate()
		if _, err := p.Element(nil, target); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSelectBasis2M measures Algorithm 1 alone on the 2 097 152-cell
// shape (128×32×64×8: 30 525 495 view elements) with the 14-view population.
func BenchmarkSelectBasis2M(b *testing.B) {
	s := velement.MustSpace(128, 32, 64, 8)
	queries := benchQueries(s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.SelectBasis(s, queries); err != nil {
			b.Fatal(err)
		}
	}
}
