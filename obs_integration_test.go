package viewcube_test

// End-to-end observability tests: the traced span tree must agree with the
// planner's own cost accounting, and the metrics registry must see cache
// and reselection activity on real engines.

import (
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"viewcube"
	"viewcube/internal/obs"
)

var explainCostRe = regexp.MustCompile(`total cost (\d+) ops`)

// explainCost extracts the planner's modelled op total from Explain's text.
func explainCost(t *testing.T, eng *viewcube.Engine, keep ...string) int64 {
	t.Helper()
	text, err := eng.ExplainGroupBy(keep...)
	if err != nil {
		t.Fatal(err)
	}
	m := explainCostRe.FindStringSubmatch(text)
	if m == nil {
		t.Fatalf("no cost in explain output:\n%s", text)
	}
	n, err := strconv.ParseInt(m[1], 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// findSpan returns the first span in the tree whose name starts with the
// prefix, or nil.
func findSpan(n *obs.Span, prefix string) *obs.Span {
	if n == nil {
		return nil
	}
	if strings.HasPrefix(n.Name, prefix) {
		return n
	}
	for _, c := range n.Children {
		if got := findSpan(c, prefix); got != nil {
			return got
		}
	}
	return nil
}

// TestTraceOpsMatchExplain is the acceptance check for the span tree: the
// "ops" attributes summed over a traced group-by must reproduce exactly the
// total cost Explain reports for the same view under the same materialised
// set — on the cold (plan-compiling) run AND on the warm (plan-cached) run.
// The trace is the executed plan; Explain is the predicted one; the plan
// cache must never let them diverge.
func TestTraceOpsMatchExplain(t *testing.T) {
	cube := loadSales(t)
	eng, err := cube.NewEngine(viewcube.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var nonZero bool
	for _, keep := range [][]string{{"product"}, {"region"}, {"product", "day"}, {}} {
		// Cold run: nothing has planned this view yet, so the plan span
		// must record a cache miss.
		_, cold, err := eng.GroupByResult(true, keep...)
		if err != nil {
			t.Fatal(err)
		}
		coldPlan := findSpan(cold.Tree(), "plan ")
		if coldPlan == nil {
			t.Fatalf("keep=%v: no plan span\n%s", keep, cold)
		}
		if hit, ok := coldPlan.Attrs["cache_hit"]; !ok || hit != 0 {
			t.Fatalf("keep=%v: cold plan span cache_hit=%d (present=%v), want 0", keep, hit, ok)
		}
		// Explain renders the plan the trace just compiled and cached.
		want := explainCost(t, eng, keep...)
		if got := cold.Ops(); got != want {
			t.Fatalf("keep=%v: cold trace ops %d != explain cost %d\ntrace:\n%s",
				keep, got, want, cold)
		}
		// Warm run: the plan comes from the cache, and the executed ops
		// must still agree with Explain exactly.
		_, warm, err := eng.GroupByResult(true, keep...)
		if err != nil {
			t.Fatal(err)
		}
		warmPlan := findSpan(warm.Tree(), "plan ")
		if warmPlan == nil {
			t.Fatalf("keep=%v: no plan span in warm trace\n%s", keep, warm)
		}
		if hit := warmPlan.Attrs["cache_hit"]; hit != 1 {
			t.Fatalf("keep=%v: warm plan span cache_hit=%d, want 1", keep, hit)
		}
		if got := warm.Ops(); got != want {
			t.Fatalf("keep=%v: cached-plan trace ops %d != explain cost %d\ntrace:\n%s",
				keep, got, want, warm)
		}
		if want > 0 {
			nonZero = true
			if cold.CellsRead() <= 0 || warm.CellsRead() <= 0 {
				t.Fatalf("keep=%v: plan costs %d ops but a trace read no cells", keep, want)
			}
		}
	}
	if !nonZero {
		t.Fatal("every tested view was free to assemble; test exercised nothing")
	}
}

// scrape renders the engine's Prometheus exposition and returns the value of
// one un-labelled series.
func scrape(t *testing.T, met *viewcube.Metrics, series string) float64 {
	t.Helper()
	var b strings.Builder
	if err := met.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(b.String(), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || name != series {
			continue
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("series %s: bad value %q", series, val)
		}
		return f
	}
	t.Fatalf("series %s missing from exposition:\n%s", series, b.String())
	return 0
}

// TestDiskCacheCounters drives a disk-backed engine and checks that the
// store's cache hit/miss counters move and agree with StoreStats. Writes
// admit into the LRU, so a freshly materialised engine reads warm; cold
// misses need a second engine reopening the same directory.
func TestDiskCacheCounters(t *testing.T) {
	cube := loadSales(t)
	met := viewcube.NewMetrics()
	dir := filepath.Join(t.TempDir(), "store")
	eng, err := cube.NewEngine(viewcube.EngineOptions{DiskDir: dir, Metrics: met})
	if err != nil {
		t.Fatal(err)
	}
	// Repeated reads of the same view hit the write-warmed cache.
	for i := 0; i < 2; i++ {
		if _, err := eng.GroupBy("product"); err != nil {
			t.Fatal(err)
		}
	}
	hits := scrape(t, met, "viewcube_store_cache_hits_total")
	if hits == 0 {
		t.Fatal("repeated reads produced no cache hits")
	}
	st := eng.StoreStats()
	if float64(st.CacheHits) != hits {
		t.Fatalf("StoreStats %+v disagrees with exposition hits=%g", st, hits)
	}
	if st.CachedCells <= 0 {
		t.Fatalf("cached cells gauge %d", st.CachedCells)
	}

	// Reopen the store cold (same metrics): the first reads must miss the
	// empty cache and fall through to disk.
	eng2, err := cube.NewEngine(viewcube.EngineOptions{DiskDir: dir, Metrics: met})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng2.GroupBy("product"); err != nil {
		t.Fatal(err)
	}
	misses := scrape(t, met, "viewcube_store_cache_misses_total")
	if misses == 0 {
		t.Fatal("cold reopened store produced no cache misses")
	}
	if eng2.StoreStats().CacheMisses == 0 {
		t.Fatalf("reopened StoreStats %+v shows no misses", eng2.StoreStats())
	}
}

// TestReselectionCounters checks that auto-reselection under ReselectEvery
// is visible in the metrics registry.
func TestReselectionCounters(t *testing.T) {
	cube := loadSales(t)
	met := viewcube.NewMetrics()
	eng, err := cube.NewEngine(viewcube.EngineOptions{
		ReselectEvery: 3,
		Metrics:       met,
	})
	if err != nil {
		t.Fatal(err)
	}
	// A skewed workload: hammer one view so adaptation has a signal.
	for i := 0; i < 10; i++ {
		if _, err := eng.GroupBy("product"); err != nil {
			t.Fatal(err)
		}
	}
	if n := scrape(t, met, "viewcube_reselections_total"); n < 1 {
		t.Fatalf("reselections_total %g after 10 queries with ReselectEvery=3", n)
	}
	if n := scrape(t, met, "viewcube_reselections_auto_total"); n < 1 {
		t.Fatalf("reselections_auto_total %g", n)
	}
	if n := scrape(t, met, `viewcube_queries_total{kind="groupby"}`); n != 10 {
		t.Fatalf("queries_total{groupby} %g, want 10", n)
	}
}

// TestTraceQueryEndToEnd exercises the traced Select: result rows are
// identical to an untraced Query and the span tree is non-trivial.
func TestTraceQueryEndToEnd(t *testing.T) {
	cube := loadSales(t)
	eng, err := cube.NewEngine(viewcube.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const sql = "SELECT SUM(sales) GROUP BY region"
	plain, err := eng.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	r, tr, err := eng.Select(true, sql)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.QueryResult()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(plain.Rows) {
		t.Fatalf("traced rows %d != plain rows %d", len(res.Rows), len(plain.Rows))
	}
	root := tr.Tree()
	if root.Name != "query" || len(root.Children) == 0 {
		t.Fatalf("trace tree %+v", root)
	}
	if !strings.Contains(tr.String(), "plan ") {
		t.Fatalf("trace text missing plan span:\n%s", tr)
	}
}
