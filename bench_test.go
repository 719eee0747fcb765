// Benchmarks for every table and figure of the paper plus ablations for
// the design choices called out in DESIGN.md. Run:
//
//	go test -bench=. -benchmem
//
// The per-experiment mapping is recorded in DESIGN.md §4 and the measured
// numbers in EXPERIMENTS.md.
package viewcube_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"viewcube"
	"viewcube/internal/assembly"
	"viewcube/internal/core"
	"viewcube/internal/experiments"
	"viewcube/internal/freq"
	"viewcube/internal/haar"
	"viewcube/internal/obs"
	"viewcube/internal/plan"
	"viewcube/internal/rangeagg"
	"viewcube/internal/store"
	"viewcube/internal/velement"
	"viewcube/internal/workload"
)

// BenchmarkTable1Counts regenerates Table 1 (E1): closed-form view element
// counts for all five paper configurations.
func BenchmarkTable1Counts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table1()
		if rows[4].Nve != 5764801 {
			b.Fatal("Table 1 mismatch")
		}
	}
}

// BenchmarkTable2Pedagogical regenerates Table 2 (E2): Procedure 3 costs of
// the ten pedagogical element sets.
func BenchmarkTable2Pedagogical(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table2()
		if rows[0].Processing != 3 {
			b.Fatal("Table 2 mismatch")
		}
	}
}

// BenchmarkFig8Experiment1 runs one trial of Experiment 1 (E3) at the
// paper's scale: Algorithm 1 over the 923,521-element graph of the 16^4
// cube plus both baselines.
func BenchmarkFig8Experiment1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig8([]int{16, 16, 16, 16}, 1, int64(i+1), experiments.ModelEq29)
		if err != nil {
			b.Fatal(err)
		}
		if res.V[0] > res.D[0] {
			b.Fatal("[V] exceeded [D]")
		}
	}
}

// BenchmarkFig9Experiment2 runs one trial of Experiment 2 (E4) at the
// paper's scale: both greedy frontiers on the 4^4 cube.
func BenchmarkFig9Experiment2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig9([]int{4, 4, 4, 4}, 1, 10, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		if res.PointA > res.PointB {
			b.Fatal("point a exceeded point b")
		}
	}
}

// BenchmarkBasesStructural regenerates the §4.3 structural report (E5).
func BenchmarkBasesStructural(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Bases([]int{16, 16, 16}, int64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRangeAggregation regenerates the §6 comparison (E6) on a
// moderate cube.
func BenchmarkRangeAggregation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Ranges([]int{64, 64, 16}, 100, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		if res.MaxError > 1e-6 {
			b.Fatal("methods disagreed")
		}
	}
}

// --- Component benchmarks -------------------------------------------------

// BenchmarkAlgorithm1PaperGraph measures Algorithm 1 alone on the paper's
// Experiment 1 graph (923,521 elements, 16 queries).
func BenchmarkAlgorithm1PaperGraph(b *testing.B) {
	s := velement.MustSpace(16, 16, 16, 16)
	rng := rand.New(rand.NewSource(1))
	queries := workload.UniformViewPopulation(s, rng, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.SelectBasis(s, queries); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGreedyRedundant measures one full Algorithm 2 run on the
// Experiment 2 cube.
func BenchmarkGreedyRedundant(b *testing.B) {
	s := velement.MustSpace(4, 4, 4, 4)
	rng := rand.New(rand.NewSource(1))
	queries := workload.UniformViewPopulation(s, rng, false)
	init, err := core.SelectBasis(s, queries)
	if err != nil {
		b.Fatal(err)
	}
	all := core.AllElements(s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.GreedyRedundant(s, init.Basis, all, queries, 2*s.CubeVolume()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHaarPartial measures the first partial aggregation over a 1M
// cell cube (the innermost operator of every cascade).
func BenchmarkHaarPartial(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	cube := workload.RandomCube(rng, 100, 256, 64, 64)
	b.SetBytes(int64(8 * cube.Size()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := haar.Partial(cube, i%3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWaveletTransform measures the full multi-dimensional transform.
func BenchmarkWaveletTransform(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	cube := workload.RandomCube(rng, 100, 256, 256)
	b.SetBytes(int64(8 * cube.Size()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		haar.Transform(cube)
	}
}

// BenchmarkMaterializeWaveletBasis measures materialising a complete
// non-expansive basis from a 64^3 cube with prefix sharing.
func BenchmarkMaterializeWaveletBasis(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	s := velement.MustSpace(64, 64, 64)
	cube := workload.RandomCube(rng, 100, 64, 64, 64)
	basis := velement.WaveletBasis(s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := assembly.MaterializeSet(s, cube, basis); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAssembleViewFromBasis measures the steady-state serving path of
// one aggregated view from a materialised wavelet basis: cached plan
// lookup (the PR 3 planner) + pooled fused execution. This is the per-query
// cost a warmed engine pays — planning runs once per epoch, execution every
// time — so allocs/op here tracks the read kernel's pooling, not the DP.
func BenchmarkAssembleViewFromBasis(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	s := velement.MustSpace(32, 32, 32)
	cube := workload.RandomCube(rng, 100, 32, 32, 32)
	st, err := assembly.MaterializeSet(s, cube, velement.WaveletBasis(s))
	if err != nil {
		b.Fatal(err)
	}
	eng := assembly.NewEngine(s, st)
	pl := plan.NewPlanner(eng)
	views := s.AggregatedViews()
	// Warm the plan cache: every queried view compiles once.
	for _, v := range views[1:] {
		if _, err := pl.Element(nil, v); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ph, err := pl.Element(nil, views[1+i%(len(views)-1)])
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.Execute(nil, ph.Assembly); err != nil {
			b.Fatal(err)
		}
	}
}

// planBenchFixture builds a materialised engine plus its cached planner and
// picks a non-trivial aggregated view as the plan target.
func planBenchFixture(b *testing.B) (*plan.Planner, freq.Rect) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	s := velement.MustSpace(32, 32, 32)
	cube := workload.RandomCube(rng, 100, 32, 32, 32)
	st, err := assembly.MaterializeSet(s, cube, velement.WaveletBasis(s))
	if err != nil {
		b.Fatal(err)
	}
	eng := assembly.NewEngine(s, st)
	views := s.AggregatedViews()
	return plan.NewPlanner(eng), views[len(views)/2]
}

// BenchmarkPlanCacheMiss measures a full Procedure 3 compile per iteration:
// each lookup lands at a fresh epoch, so nothing is ever served from cache.
func BenchmarkPlanCacheMiss(b *testing.B) {
	p, target := planBenchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Invalidate()
		if _, err := p.Element(nil, target); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanCacheHit measures the steady-state cached lookup; it must
// beat BenchmarkPlanCacheMiss by skipping the DP entirely.
func BenchmarkPlanCacheHit(b *testing.B) {
	p, target := planBenchFixture(b)
	if _, err := p.Element(nil, target); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ph, err := p.Element(nil, target)
		if err != nil {
			b.Fatal(err)
		}
		if !ph.CacheHit {
			b.Fatal("warm lookup missed")
		}
	}
}

// BenchmarkPlanCacheHitParallel measures cached lookups racing from
// GOMAXPROCS goroutines: the read path is an RLock plus a map probe, so this
// should scale rather than serialise (use -cpu 1,2,4 to see the curve).
func BenchmarkPlanCacheHitParallel(b *testing.B) {
	p, target := planBenchFixture(b)
	if _, err := p.Element(nil, target); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			ph, err := p.Element(nil, target)
			if err != nil {
				b.Fatal(err)
			}
			if !ph.CacheHit {
				b.Fatal("warm lookup missed")
			}
		}
	})
}

// BenchmarkRangeSumViaElements vs BenchmarkRangeSumScan vs
// BenchmarkRangeSumPrefix isolate the three §6 range strategies.
func rangeFixture(b *testing.B) (*velement.Space, *rangeagg.Querier, []rangeagg.Box, interface {
	RangeSum(rangeagg.Box) (float64, error)
}, func(rangeagg.Box) (float64, error)) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	shape := []int{256, 256}
	cube := workload.RandomCube(rng, 100, shape...)
	s := velement.MustSpace(shape...)
	mat, err := assembly.NewMaterializer(s, cube)
	if err != nil {
		b.Fatal(err)
	}
	q := rangeagg.NewQuerier(s, mat)
	boxes := rangeagg.RandomBoxes(shape, rng, 256)
	// Warm the pyramid so the benchmark measures steady-state queries.
	if _, err := q.RangeSum(boxes[0]); err != nil {
		b.Fatal(err)
	}
	pc := rangeagg.NewPrefixCube(cube)
	scan := func(box rangeagg.Box) (float64, error) { return rangeagg.DirectScan(cube, box) }
	return s, q, boxes, pc, scan
}

func BenchmarkRangeSumViaElements(b *testing.B) {
	_, q, boxes, _, _ := rangeFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.RangeSum(boxes[i%len(boxes)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRangeSumScan(b *testing.B) {
	_, _, boxes, _, scan := rangeFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scan(boxes[i%len(boxes)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRangeSumPrefix(b *testing.B) {
	_, _, boxes, pc, _ := rangeFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pc.RangeSum(boxes[i%len(boxes)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineGroupBy measures the public API end to end: GroupBy on a
// relational cube's root (root/product), and every group-by of one to three
// dimensions of a 64×16×32×4, 100 000-row cube on its Algorithm 1 basis,
// through SafeEngine.GroupByResult (basis131k/<kept dimensions>). The basis
// stores some of these views and synthesizes the others.
func BenchmarkEngineGroupBy(b *testing.B) {
	b.Run("root/product", benchEngineGroupByRoot)
	var safe *viewcube.SafeEngine
	dims := []string{"product", "region", "day", "channel"}
	for mask := 1; mask < 1<<len(dims)-1; mask++ {
		var keep []string
		for m, d := range dims {
			if mask&(1<<m) != 0 {
				keep = append(keep, d)
			}
		}
		b.Run("basis131k/"+strings.Join(keep, ","), func(b *testing.B) {
			if safe == nil {
				safe = basis131k(b).Safe()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, _, err := safe.GroupByResult(false, keep...)
				if err != nil {
					b.Fatal(err)
				}
				r.Release()
			}
		})
	}
}

func benchEngineGroupByRoot(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tbl, err := workload.SalesTable(rng, 100, 8, 60, 20000)
	if err != nil {
		b.Fatal(err)
	}
	cube, err := viewcube.FromTable(tbl)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := cube.NewEngine(viewcube.EngineOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.GroupBy("product"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelGroupBy measures multi-core read throughput: the same
// workload as BenchmarkEngineGroupBy, but issued from GOMAXPROCS
// goroutines against one SafeEngine. With the read path reentrant, this
// should scale beyond the serial baseline (compare ns/op against
// BenchmarkEngineGroupBy; use -cpu 1,2,4 to see the curve).
func BenchmarkParallelGroupBy(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tbl, err := workload.SalesTable(rng, 100, 8, 60, 20000)
	if err != nil {
		b.Fatal(err)
	}
	cube, err := viewcube.FromTable(tbl)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := cube.NewEngine(viewcube.EngineOptions{})
	if err != nil {
		b.Fatal(err)
	}
	safe := eng.Safe()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := safe.GroupBy("product"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// tracedOverheadFixture builds the cached-plan serving fixture the traced
// overhead benchmarks share: a warmed engine where GroupBy("product") is a
// plan-cache hit, so each iteration measures the execute path plus whatever
// observability tier the variant adds.
func tracedOverheadFixture(b *testing.B) *viewcube.Engine {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	tbl, err := workload.SalesTable(rng, 100, 8, 60, 20000)
	if err != nil {
		b.Fatal(err)
	}
	cube, err := viewcube.FromTable(tbl)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := cube.NewEngine(viewcube.EngineOptions{})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := eng.GroupBy("product"); err != nil {
		b.Fatal(err)
	}
	return eng
}

// benchTracedOff is the sampling-disabled tier: the per-query observability
// cost is a single nil-sampler check in front of the plain cached GroupBy,
// so this must stay within noise of BenchmarkEngineGroupBy (the CI gate in
// TestTracedQueryOverheadGate holds it under 5%).
func benchTracedOff(b *testing.B) {
	eng := tracedOverheadFixture(b)
	sampler := obs.NewSampler(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sampler.Sample() {
			b.Fatal("rate-0 sampler fired")
		}
		if _, err := eng.GroupBy("product"); err != nil {
			b.Fatal(err)
		}
	}
}

// benchTracedSampled is the always-sampled tier: every query runs under an
// internal trace and lands in the in-memory query log, the way a server
// started with -tracesample 1 serves.
func benchTracedSampled(b *testing.B) {
	eng := tracedOverheadFixture(b)
	sampler := obs.NewSampler(1)
	qlog, err := obs.NewQueryLog(obs.QueryLogOptions{RingSize: 64})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !sampler.Sample() {
			b.Fatal("rate-1 sampler skipped")
		}
		start := time.Now()
		_, tr, err := eng.GroupByResult(true, "product")
		if err != nil {
			b.Fatal(err)
		}
		tree := tr.Tree()
		qlog.Record(obs.QueryEntry{
			Kind:       "groupby",
			Shape:      "product",
			DurationUS: time.Since(start).Microseconds(),
			TraceID:    tr.TraceID(),
			Ops:        tree.SumAttr("ops"),
			Sampled:    true,
			Trace:      tree,
		})
	}
}

// benchTracedFull is the explicit full-trace tier: GroupByResult traced,
// which builds the span tree and hands it back to the caller.
func benchTracedFull(b *testing.B) {
	eng := tracedOverheadFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, tr, err := eng.GroupByResult(true, "product")
		if err != nil {
			b.Fatal(err)
		}
		if tr.Ops() <= 0 {
			b.Fatal("empty trace")
		}
	}
}

// BenchmarkTracedQueryOverhead compares the three observability tiers on the
// cached-plan serving path: sampling off, every query sampled into the query
// log, and the explicit full-trace API.
func BenchmarkTracedQueryOverhead(b *testing.B) {
	b.Run("off", benchTracedOff)
	b.Run("sampled", benchTracedSampled)
	b.Run("traced", benchTracedFull)
}

// BenchmarkFileStoreRoundTrip measures disk persistence of a 64k-cell
// element (write-through Put plus cold Get).
func BenchmarkFileStoreRoundTrip(b *testing.B) {
	dir := b.TempDir()
	fs, err := store.Open(dir, 0) // no cache: measure disk
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	s := velement.MustSpace(256, 256)
	el := s.Root()
	arr := workload.RandomCube(rng, 100, 256, 256)
	b.SetBytes(int64(8 * arr.Size()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fs.Put(el, arr); err != nil {
			b.Fatal(err)
		}
		if _, ok := fs.Get(el); !ok {
			b.Fatal("get failed")
		}
	}
}

// --- Ablations (E7) -------------------------------------------------------

// BenchmarkAblationDPvsExhaustive compares Algorithm 1's DP against
// brute-force tiling enumeration on a cube small enough for the latter.
func BenchmarkAblationDPvsExhaustive(b *testing.B) {
	s := velement.MustSpace(4, 4)
	rng := rand.New(rand.NewSource(1))
	queries := workload.UniformViewPopulation(s, rng, true)
	b.Run("dp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.SelectBasis(s, queries); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("exhaustive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.ExhaustiveBestBasis(s, queries); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationGreedyPruning compares Algorithm 2 with and without the
// §7.2.2 obsolete-element pruning.
func BenchmarkAblationGreedyPruning(b *testing.B) {
	s := velement.MustSpace(4, 4, 4)
	rng := rand.New(rand.NewSource(1))
	queries := workload.UniformViewPopulation(s, rng, false)
	init, err := core.SelectBasis(s, queries)
	if err != nil {
		b.Fatal(err)
	}
	all := core.AllElements(s)
	target := 2 * s.CubeVolume()
	b.Run("plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.GreedyRedundant(s, init.Basis, all, queries, target); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pruned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.GreedyRedundantPruned(s, init.Basis, all, queries, target); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationMaterializerSharing compares prefix-sharing
// materialisation against independent per-element cascades.
func BenchmarkAblationMaterializerSharing(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	s := velement.MustSpace(64, 64)
	cube := workload.RandomCube(rng, 100, 64, 64)
	basis := velement.WaveletBasis(s)
	b.Run("shared", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := assembly.MaterializeSet(s, cube, basis); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("independent", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			st := assembly.NewMemStore()
			for _, r := range basis {
				a, err := haar.ApplyRect(cube, r)
				if err != nil {
					b.Fatal(err)
				}
				if err := st.Put(r, a); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkAdaptiveReconfigure measures one full observe→reselect→migrate
// cycle on a relational cube.
func BenchmarkAdaptiveReconfigure(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tbl, err := workload.SalesTable(rng, 30, 4, 30, 5000)
	if err != nil {
		b.Fatal(err)
	}
	cube, err := viewcube.FromTable(tbl)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		eng, err := cube.NewEngine(viewcube.EngineOptions{})
		if err != nil {
			b.Fatal(err)
		}
		w := cube.NewWorkload()
		if err := w.AddViewKeeping(1, "product"); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := eng.Optimize(w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryLanguage measures parse + plan + execute of a filtered
// GROUP BY through the SQL-like layer.
func BenchmarkQueryLanguage(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tbl, err := workload.SalesTable(rng, 50, 8, 60, 20000)
	if err != nil {
		b.Fatal(err)
	}
	cube, err := viewcube.FromTable(tbl)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := cube.NewEngine(viewcube.EngineOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Query(
			"SELECT SUM(sales) GROUP BY region WHERE day BETWEEN 'day-010' AND 'day-039'"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRollUp measures a hierarchy roll-up answered as per-group range
// aggregations.
func BenchmarkRollUp(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tbl, err := workload.SalesTable(rng, 50, 8, 56, 20000)
	if err != nil {
		b.Fatal(err)
	}
	cube, err := viewcube.FromTable(tbl)
	if err != nil {
		b.Fatal(err)
	}
	if err := cube.DefineHierarchy("day", "week", func(day string) string {
		var n int
		fmt.Sscanf(day, "day-%d", &n)
		return fmt.Sprintf("week-%d", n/7)
	}); err != nil {
		b.Fatal(err)
	}
	eng, err := cube.NewEngine(viewcube.EngineOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.RollUp("day", "week", nil); err != nil {
			b.Fatal(err)
		}
	}
}

// benchAvgTable builds a deterministic random relation sized for the AVG
// benchmarks: 64 products × 8 regions × 32 days, rows tuples.
func benchAvgTable(b *testing.B, rows int) *viewcube.Table {
	b.Helper()
	rng := rand.New(rand.NewSource(3))
	tbl, err := viewcube.NewTable([]string{"product", "region", "day"}, "sales")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		vals := []string{
			fmt.Sprintf("product-%03d", rng.Intn(64)),
			fmt.Sprintf("region-%d", rng.Intn(8)),
			fmt.Sprintf("day-%02d", rng.Intn(32)),
		}
		if err := tbl.Append(vals, rng.Float64()*100); err != nil {
			b.Fatal(err)
		}
	}
	return tbl
}

// BenchmarkGroupByAvgTwoEngine measures the historical AVG design this PR
// replaced: two full engines — a SUM cube and a COUNT cube, each with its
// own store and planner — answering GROUP BY twice and dividing.
func BenchmarkGroupByAvgTwoEngine(b *testing.B) {
	tbl := benchAvgTable(b, 20000)
	sumCube, err := viewcube.FromRelation(tbl)
	if err != nil {
		b.Fatal(err)
	}
	ct, err := tbl.CountTable()
	if err != nil {
		b.Fatal(err)
	}
	cntCube, err := viewcube.FromRelation(ct)
	if err != nil {
		b.Fatal(err)
	}
	sumEng, err := sumCube.NewEngine(viewcube.EngineOptions{})
	if err != nil {
		b.Fatal(err)
	}
	cntEng, err := cntCube.NewEngine(viewcube.EngineOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sv, err := sumEng.GroupBy("product")
		if err != nil {
			b.Fatal(err)
		}
		sums, err := sv.Groups()
		if err != nil {
			b.Fatal(err)
		}
		cv, err := cntEng.GroupBy("product")
		if err != nil {
			b.Fatal(err)
		}
		counts, err := cv.Groups()
		if err != nil {
			b.Fatal(err)
		}
		avgs := make(map[string]float64, len(counts))
		for k, c := range counts {
			if c == 0 {
				continue
			}
			avgs[k] = sums[k] / c
		}
		if len(avgs) == 0 {
			b.Fatal("no groups")
		}
	}
}

// BenchmarkGroupByAvgVector measures the measure-vector AVG path: one
// vector cube [Σv, Σv², Σ1], one plan, one pooled execution, finalised per
// group. Compare allocs/op and B/op against BenchmarkGroupByAvgTwoEngine.
func BenchmarkGroupByAvgVector(b *testing.B) {
	eng, err := viewcube.NewAggEngine(benchAvgTable(b, 20000), viewcube.EngineOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		avgs, err := eng.GroupByAgg(viewcube.AggAvg, "product")
		if err != nil {
			b.Fatal(err)
		}
		if len(avgs) == 0 {
			b.Fatal("no groups")
		}
	}
}

// rangeBenchCube is a four-dimension sales-like relation of the given
// extents: rows tuples, products Zipf-skewed, measures integers in [1, 99].
func rangeBenchCube(b *testing.B, shape [4]int, rows int) *viewcube.Cube {
	b.Helper()
	dims := []string{"product", "region", "day", "channel"}
	tbl, err := viewcube.NewTable(dims, "sales")
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(shape[0]-1))
	cover := max(shape[0], shape[1], shape[2], shape[3])
	row := make([]string, 4)
	for i := 0; i < rows; i++ {
		for m, n := range shape {
			c := rng.Intn(n)
			switch {
			case i < cover:
				c = i % n // every member appears
			case m == 0 && rng.Float64() < 0.7:
				c = int(zipf.Uint64())
			}
			row[m] = fmt.Sprintf("%s-%05d", dims[m], c)
		}
		if err := tbl.Append(row, float64(1+rng.Intn(99))); err != nil {
			b.Fatal(err)
		}
	}
	cube, err := viewcube.FromRelation(tbl)
	if err != nil {
		b.Fatal(err)
	}
	return cube
}

// basis131k is an engine over rangeBenchCube's 64×16×32×4, 100 000-row cube
// on the Algorithm 1 basis of a workload of four group-bys.
func basis131k(b *testing.B) *viewcube.Engine {
	b.Helper()
	cube := rangeBenchCube(b, [4]int{64, 16, 32, 4}, 100000)
	eng, err := cube.NewEngine(viewcube.EngineOptions{})
	if err != nil {
		b.Fatal(err)
	}
	w := cube.NewWorkload()
	for _, keep := range [][]string{{"product"}, {"region", "day"}, {"channel"}, {}} {
		if err := w.AddViewKeeping(1, keep...); err != nil {
			b.Fatal(err)
		}
	}
	if err := eng.Optimize(w); err != nil {
		b.Fatal(err)
	}
	return eng
}

// rangeBenchBoxes draws a pool of boxes filtering `filtered` dimensions.
func rangeBenchBoxes(shape [4]int, dims []string, filtered, count int) []map[string]viewcube.ValueRange {
	rng := rand.New(rand.NewSource(int64(filtered)))
	out := make([]map[string]viewcube.ValueRange, count)
	for i := range out {
		r := map[string]viewcube.ValueRange{}
		for _, m := range rng.Perm(4)[:filtered] {
			lo := rng.Intn(shape[m])
			hi := lo + rng.Intn(shape[m]-lo)
			r[dims[m]] = viewcube.ValueRange{Lo: fmt.Sprintf("%s-%05d", dims[m], lo), Hi: fmt.Sprintf("%s-%05d", dims[m], hi)}
		}
		out[i] = r
	}
	return out
}

// BenchmarkRangeContraction times engine-level range sums (RangeSum) over
// three stored sets — the Algorithm 1 basis of a 131 072-cell cube, a
// handed-over sparse root of 2^20 cells and an unoptimized dense root of
// 2^21 cells — with 1, 2 and 4 filtered dimensions, and grouped ranges
// (GroupByWhere) on the basis. warm repeats reads; cold drops what a read
// may reuse from earlier ones (DropRangeState) before each.
func BenchmarkRangeContraction(b *testing.B) {
	type set struct {
		name  string
		shape [4]int
		eng   func() *viewcube.Engine
	}
	sets := []set{
		{"basis131k", [4]int{64, 16, 32, 4}, nil},
		{"sparseRoot1M", [4]int{128, 16, 64, 8}, nil},
		{"denseRoot2M", [4]int{128, 16, 64, 16}, nil},
	}
	var basis *viewcube.Engine
	for i := range sets {
		s := &sets[i]
		var eng *viewcube.Engine
		s.eng = func() *viewcube.Engine {
			if eng != nil {
				return eng
			}
			var cube *viewcube.Cube
			var err error
			switch s.name {
			case "basis131k":
				eng = basis131k(b)
				basis = eng
			case "sparseRoot1M":
				cube = rangeBenchCube(b, s.shape, 70000)
				if eng, err = cube.NewEngine(viewcube.EngineOptions{}); err != nil {
					b.Fatal(err)
				}
				cube.ReleaseCells()
			default:
				cube = rangeBenchCube(b, s.shape, 200000)
				if eng, err = cube.NewEngine(viewcube.EngineOptions{}); err != nil {
					b.Fatal(err)
				}
			}
			return eng
		}
	}
	dims := []string{"product", "region", "day", "channel"}
	// run times read(i) over b.N reads, after one read of each of the 64
	// pooled boxes or filters, so a warm arm measures warm reads only.
	run := func(b *testing.B, eng *viewcube.Engine, cold bool, read func(i int) error) {
		for i := 0; i < 64; i++ {
			if err := read(i); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if cold {
				b.StopTimer()
				viewcube.DropRangeState(eng)
				b.StartTimer()
			}
			if err := read(i); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, s := range sets {
		for _, filtered := range []int{1, 2, 4} {
			boxes := rangeBenchBoxes(s.shape, dims, filtered, 64)
			for _, temp := range []string{"warm", "cold"} {
				b.Run(fmt.Sprintf("%s/%dd/%s", s.name, filtered, temp), func(b *testing.B) {
					eng := s.eng()
					run(b, eng, temp == "cold", func(i int) error {
						_, err := eng.RangeSum(boxes[i%len(boxes)])
						return err
					})
				})
			}
		}
	}
	filters := rangeBenchBoxes(sets[0].shape, dims, 2, 64)
	for i, f := range filters {
		delete(f, "product")
		if len(f) == 0 {
			filters[i] = map[string]viewcube.ValueRange{"day": {Lo: "day-00003", Hi: "day-00020"}}
		}
	}
	for _, temp := range []string{"warm", "cold"} {
		b.Run("grouped/"+temp, func(b *testing.B) {
			sets[0].eng()
			run(b, basis, temp == "cold", func(i int) error {
				_, err := basis.GroupByWhere([]string{"product"}, filters[i%len(filters)])
				return err
			})
		})
	}
}
