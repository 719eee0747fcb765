// Plan-cache integration tests: cache counters on the public engine, epoch
// bumps on Update/Reconfigure, and -race stress tests proving a cached plan
// answers exactly like a freshly compiled one while writers invalidate
// underneath (CI runs `go test -race -run Concurrent ./...`).
package viewcube_test

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"viewcube"
	"viewcube/internal/workload"
)

func salesCubeEngine(t *testing.T, seed int64, opts viewcube.EngineOptions) (*viewcube.Cube, *viewcube.Engine) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tbl, err := workload.SalesTable(rng, 10, 5, 24, 5000)
	if err != nil {
		t.Fatal(err)
	}
	cube, err := viewcube.FromTable(tbl)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := cube.NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	return cube, eng
}

func salesEngine(t *testing.T, seed int64, opts viewcube.EngineOptions) *viewcube.Engine {
	t.Helper()
	_, eng := salesCubeEngine(t, seed, opts)
	return eng
}

// TestPlanCacheServesRepeatedQueries checks the steady-state contract: the
// first query for a view misses and compiles, repeats hit, answers stay
// identical, and the counters are visible both through PlanCacheStats and
// the Prometheus exposition.
func TestPlanCacheServesRepeatedQueries(t *testing.T) {
	met := viewcube.NewMetrics()
	eng := salesEngine(t, 11, viewcube.EngineOptions{Metrics: met})

	first, err := eng.GroupBy("product")
	if err != nil {
		t.Fatal(err)
	}
	want, err := first.Groups()
	if err != nil {
		t.Fatal(err)
	}
	s0 := eng.PlanCacheStats()
	if s0.Misses == 0 || s0.Hits != 0 {
		t.Fatalf("after first query: %+v", s0)
	}
	for i := 0; i < 3; i++ {
		v, err := eng.GroupBy("product")
		if err != nil {
			t.Fatal(err)
		}
		got, err := v.Groups()
		if err != nil {
			t.Fatal(err)
		}
		sameGroups(t, got, want)
	}
	s1 := eng.PlanCacheStats()
	if s1.Hits < 3 {
		t.Fatalf("repeated queries hit %d times, want >= 3 (%+v)", s1.Hits, s1)
	}
	if s1.Misses != s0.Misses {
		t.Fatalf("repeated queries recompiled: %+v -> %+v", s0, s1)
	}
	if n := scrape(t, met, "viewcube_plan_cache_hits_total"); uint64(n) != s1.Hits {
		t.Fatalf("exposition hits %g != stats %d", n, s1.Hits)
	}
	if n := scrape(t, met, "viewcube_plan_cache_misses_total"); uint64(n) != s1.Misses {
		t.Fatalf("exposition misses %g != stats %d", n, s1.Misses)
	}
	// Explain goes through the same planner: it must hit the warmed cache,
	// not build a throwaway engine.
	if _, err := eng.ExplainGroupBy("product"); err != nil {
		t.Fatal(err)
	}
	if s2 := eng.PlanCacheStats(); s2.Hits != s1.Hits+1 {
		t.Fatalf("explain bypassed the shared plan cache: %+v -> %+v", s1, s2)
	}
}

// TestUpdateBumpsPlanCacheEpoch checks the write path's plan-cache protocol:
// an incremental cell update changes values, never the stored rectangle set
// a plan is compiled over, so it keeps the epoch and every cached plan, and
// the next query answers exactly from post-update state through them.
func TestUpdateBumpsPlanCacheEpoch(t *testing.T) {
	eng := salesEngine(t, 12, viewcube.EngineOptions{})
	before, err := eng.Total()
	if err != nil {
		t.Fatal(err)
	}
	e0 := eng.PlanCacheStats()
	if e0.Entries == 0 {
		t.Fatalf("warm query cached nothing: %+v", e0)
	}
	if err := eng.Update(5, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	e1 := eng.PlanCacheStats()
	if e1.Epoch != e0.Epoch || e1.Invalidations != e0.Invalidations || e1.Entries != e0.Entries {
		t.Fatalf("Update touched the plan cache: %+v -> %+v", e0, e1)
	}
	after, err := eng.Total()
	if err != nil {
		t.Fatal(err)
	}
	if after != before+5 {
		t.Fatalf("total after update %g, want exactly %g", after, before+5)
	}
	if e2 := eng.PlanCacheStats(); e2.Hits != e1.Hits+1 || e2.Misses != e1.Misses {
		t.Fatalf("post-update read recompiled its plan: %+v -> %+v", e1, e2)
	}
	// Unchanged reconfiguration (same observed workload, nothing migrates a
	// second time in a row) must NOT churn the epoch gratuitously — but a
	// changed one must. Either way the answers stay exact, which the
	// Concurrent stress tests below pin down; here only the Update
	// obligation is checked.
}

// TestConcurrentPlanCacheReconfigureStress hammers cached reads while a
// background writer keeps reconfiguring the materialised set: every answer
// (cached, coalesced, or freshly compiled at a new epoch) must match the
// serial oracle, and the cache must observe both hits and invalidations.
// Run under -race.
func TestConcurrentPlanCacheReconfigureStress(t *testing.T) {
	eng := salesEngine(t, 13, viewcube.EngineOptions{})
	safe := eng.Safe()

	oracleView, err := safe.GroupBy("product")
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := oracleView.Groups()
	if err != nil {
		t.Fatal(err)
	}
	oracleTotal, err := safe.Total()
	if err != nil {
		t.Fatal(err)
	}
	// Seed a skewed workload so reconfigurations actually migrate elements
	// (and therefore bump the plan-cache epoch).
	for i := 0; i < 8; i++ {
		if _, err := safe.GroupBy("region"); err != nil {
			t.Fatal(err)
		}
	}

	var stop atomic.Bool
	writerDone := make(chan error, 1)
	go func() {
		defer close(writerDone)
		flip := false
		for !stop.Load() {
			// Alternate between two workload skews so consecutive
			// reconfigurations keep changing the set.
			for i := 0; i < 4; i++ {
				var err error
				if flip {
					_, err = safe.GroupBy("day")
				} else {
					_, err = safe.GroupBy("region")
				}
				if err != nil {
					writerDone <- err
					return
				}
			}
			flip = !flip
			if _, err := safe.Reconfigure(); err != nil {
				writerDone <- err
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()

	const goroutines = 8
	const iters = 40
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	fail := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if (g+i)%2 == 0 {
					v, err := safe.GroupBy("product")
					if err != nil {
						fail(err)
						return
					}
					groups, err := v.Groups()
					if err != nil {
						fail(err)
						return
					}
					for k, w := range oracle {
						if !almostEqual(groups[k], w) {
							fail(errForGroup(k, groups[k], w))
							return
						}
					}
				} else {
					total, err := safe.Total()
					if err != nil {
						fail(err)
						return
					}
					if !almostEqual(total, oracleTotal) {
						fail(errForGroup("total", total, oracleTotal))
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	stop.Store(true)
	if err := <-writerDone; err != nil {
		t.Fatalf("background reconfigure: %v", err)
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := safe.PlanCacheStats()
	if st.Hits == 0 {
		t.Fatalf("stress run never hit the plan cache: %+v", st)
	}
	if st.Invalidations == 0 {
		t.Fatalf("background reconfigurations never invalidated: %+v", st)
	}
	// Post-storm serial check: cached state is coherent.
	v, err := safe.GroupBy("product")
	if err != nil {
		t.Fatal(err)
	}
	groups, err := v.Groups()
	if err != nil {
		t.Fatal(err)
	}
	sameGroups(t, groups, oracle)
}

// TestConcurrentPlanCacheUpdateStress interleaves incremental cell updates
// (which change values, never the stored set, so they keep the plan-cache
// epoch and every cached plan) with cached reads. The writer applies paired
// +d/-d deltas to one cell; readers aggregate a box that excludes that cell,
// so their answer is invariant whatever update state they observe — any
// divergence means a cached plan read a torn element. Run under -race.
func TestConcurrentPlanCacheUpdateStress(t *testing.T) {
	cube, eng := salesCubeEngine(t, 14, viewcube.EngineOptions{})
	safe := eng.Safe()

	cubeShape := cube.Shape()
	// The writer's cell: the highest index on dimension 0 (padding rows are
	// legal update targets and keep the excluded box simple).
	cell := make([]int, len(cubeShape))
	cell[0] = cubeShape[0] - 1
	// Readers sum the box excluding that cell's dim-0 slice.
	lo := make([]int, len(cubeShape))
	ext := append([]int(nil), cubeShape...)
	ext[0] = cubeShape[0] - 1

	oracleSum, err := safe.RangeSumIndex(lo, ext)
	if err != nil {
		t.Fatal(err)
	}
	oracleView, err := safe.GroupBy("product")
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := oracleView.Groups()
	if err != nil {
		t.Fatal(err)
	}
	epoch0 := safe.PlanCacheStats().Epoch

	var stop atomic.Bool
	writerDone := make(chan error, 1)
	go func() {
		defer close(writerDone)
		for !stop.Load() {
			if err := safe.Update(3, cell...); err != nil {
				writerDone <- err
				return
			}
			if err := safe.Update(-3, cell...); err != nil {
				writerDone <- err
				return
			}
			time.Sleep(50 * time.Microsecond)
		}
	}()

	const goroutines = 6
	const iters = 40
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	fail := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				sum, err := safe.RangeSumIndex(lo, ext)
				if err != nil {
					fail(err)
					return
				}
				if !almostEqual(sum, oracleSum) {
					fail(errForGroup("boxsum", sum, oracleSum))
					return
				}
			}
		}()
	}
	wg.Wait()
	stop.Store(true)
	if err := <-writerDone; err != nil {
		t.Fatalf("background update: %v", err)
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := safe.PlanCacheStats()
	if st.Epoch != epoch0 || st.Invalidations != 0 {
		t.Fatalf("updates moved the plan-cache epoch from %d: %+v", epoch0, st)
	}
	// Net delta is zero after the writer joins: the full aggregate must be
	// back to the oracle, through whatever the cache now holds.
	v, err := safe.GroupBy("product")
	if err != nil {
		t.Fatal(err)
	}
	groups, err := v.Groups()
	if err != nil {
		t.Fatal(err)
	}
	sameGroups(t, groups, oracle)
}
