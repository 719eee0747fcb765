// Concurrent stress tests for the Engine read path. Run under the race
// detector (CI runs `go test -race -run Concurrent ./...`): the point is
// not just that answers stay correct, but that overlapping reads, traced
// queries, and background reconfigurations share no unsynchronised state.
package viewcube_test

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"viewcube"
	"viewcube/internal/workload"
)

// almostEqual compares aggregates up to float reordering: reconfiguration
// changes the assembly plan, which reorders the summation.
func almostEqual(a, b float64) bool {
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= 1e-7*scale
}

func sameGroups(t *testing.T, got, want map[string]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("group count %d, want %d", len(got), len(want))
	}
	for k, w := range want {
		if g, ok := got[k]; !ok || !almostEqual(g, w) {
			t.Fatalf("group %q = %g, want %g", k, got[k], w)
		}
	}
}

// TestConcurrentSafeIsTheEngine: Safe returns the engine itself, so updates
// through one Safe() and Total reads through the engine and through a second
// Safe() serialise on one lock. Run under -race; once the writers finish the
// total equals the serial sum exactly (integer deltas).
func TestConcurrentSafeIsTheEngine(t *testing.T) {
	cube, err := viewcube.NewCube([]string{"a", "b"}, []int{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := cube.NewEngine(viewcube.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	writer, reader := eng.Safe(), eng.Safe()
	const writers, perWriter = 4, 50
	var wg sync.WaitGroup
	errs := make(chan error, writers+2)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := writer.Update(float64(w+1), i%4, w); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	for _, r := range []interface{ Total() (float64, error) }{eng, reader} {
		wg.Add(1)
		go func(r interface{ Total() (float64, error) }) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if _, err := r.Total(); err != nil {
					errs <- err
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	want := 0.0
	for w := 0; w < writers; w++ {
		want += float64(perWriter * (w + 1))
	}
	if got, err := eng.Total(); err != nil || got != want {
		t.Fatalf("total %v (%v), want %v", got, err, want)
	}
}

// TestConcurrentStressAgainstSerialOracle hammers one SafeEngine with
// goroutines mixing GroupBy, RangeSum, SQL and traced queries while a
// background goroutine keeps reconfiguring the materialised set. Assembly
// is exact, so every concurrent answer must match the serial oracle
// computed up front, whatever set the planner is working from.
func TestConcurrentStressAgainstSerialOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tbl, err := workload.SalesTable(rng, 12, 6, 30, 8000)
	if err != nil {
		t.Fatal(err)
	}
	cube, err := viewcube.FromTable(tbl)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := cube.NewEngine(viewcube.EngineOptions{ReselectEvery: 25})
	if err != nil {
		t.Fatal(err)
	}
	safe := eng.Safe()

	// Serial oracle, computed before any concurrency starts.
	dayRange := map[string]viewcube.ValueRange{"day": {Lo: "day-005", Hi: "day-019"}}
	const sql = "SELECT SUM(sales) GROUP BY region"
	oracleProductView, err := safe.GroupBy("product")
	if err != nil {
		t.Fatal(err)
	}
	oracleProduct, err := oracleProductView.Groups()
	if err != nil {
		t.Fatal(err)
	}
	oracleTotal, err := safe.Total()
	if err != nil {
		t.Fatal(err)
	}
	oracleRange, err := safe.RangeSum(dayRange)
	if err != nil {
		t.Fatal(err)
	}
	oracleSQL, err := safe.Query(sql)
	if err != nil {
		t.Fatal(err)
	}

	// Background writer: keep migrating the materialised set while the
	// readers run.
	var stop atomic.Bool
	var reconfigs int
	writerDone := make(chan error, 1)
	go func() {
		defer close(writerDone)
		for !stop.Load() {
			if _, err := safe.Reconfigure(); err != nil {
				writerDone <- err
				return
			}
			reconfigs++
			time.Sleep(200 * time.Microsecond)
		}
	}()

	const goroutines = 8
	const iters = 30
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
				switch (g + i) % 4 {
				case 0:
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
					for k, w := range oracleProduct {
						if !almostEqual(groups[k], w) {
							fail(errForGroup(k, groups[k], w))
							return
						}
					}
				case 1:
					total, err := safe.Total()
					if err != nil {
						fail(err)
						return
					}
					if !almostEqual(total, oracleTotal) {
						fail(errForGroup("total", total, oracleTotal))
						return
					}
				case 2:
					sum, err := safe.RangeSum(dayRange)
					if err != nil {
						fail(err)
						return
					}
					if !almostEqual(sum, oracleRange) {
						fail(errForGroup("range", sum, oracleRange))
						return
					}
				case 3:
					r, tr, err := safe.Select(true, sql)
					if err != nil {
						fail(err)
						return
					}
					res, err := r.QueryResult()
					if err != nil {
						fail(err)
						return
					}
					if tr == nil || tr.Tree() == nil {
						fail(errForGroup("trace", 0, 1))
						return
					}
					if len(res.Rows) != len(oracleSQL.Rows) {
						fail(errForGroup("sql rows", float64(len(res.Rows)), float64(len(oracleSQL.Rows))))
						return
					}
					for j, row := range res.Rows {
						if !almostEqual(row.Values[0], oracleSQL.Rows[j].Values[0]) {
							fail(errForGroup(row.Key[0], row.Values[0], oracleSQL.Rows[j].Values[0]))
							return
						}
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
	if reconfigs == 0 {
		t.Fatal("background writer never reconfigured")
	}
	if got := safe.Stats().Queries; got < goroutines*iters/2 {
		t.Fatalf("only %d queries recorded", got)
	}
	// Re-check serially after the storm: the store must still be a
	// consistent basis.
	v, err := safe.GroupBy("product")
	if err != nil {
		t.Fatal(err)
	}
	groups, err := v.Groups()
	if err != nil {
		t.Fatal(err)
	}
	sameGroups(t, groups, oracleProduct)
}

type groupMismatch struct {
	key       string
	got, want float64
}

func (e groupMismatch) Error() string {
	return "concurrent answer for " + e.key + " diverged from serial oracle"
}

func errForGroup(key string, got, want float64) error {
	return groupMismatch{key: key, got: got, want: want}
}

// TestConcurrentTraceIsolation runs many traced queries in parallel and
// checks each trace observed only its own query's spans: per-query
// execution contexts mean a trace can never pick up another goroutine's
// plan or store reads.
func TestConcurrentTraceIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tbl, err := workload.SalesTable(rng, 8, 4, 16, 2000)
	if err != nil {
		t.Fatal(err)
	}
	cube, err := viewcube.FromTable(tbl)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := cube.NewEngine(viewcube.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	safe := eng.Safe()
	// Reference trace, serially.
	_, want, err := safe.GroupByResult(true, "product")
	if err != nil {
		t.Fatal(err)
	}
	wantOps := want.Ops()
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				_, tr, err := safe.GroupByResult(true, "product")
				if err != nil {
					errs <- err
					return
				}
				// Same materialised set (no writer in this test) → same plan
				// → identical modelled ops in every isolated trace.
				if tr.Ops() != wantOps {
					errs <- errForGroup("trace ops", float64(tr.Ops()), float64(wantOps))
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestConcurrentSafeAggEngineAgainstSerialOracle is the measure-vector twin
// of the stress above: readers mixing every aggregate kind, range, SQL and
// traced queries overlap under one width-3 SafeEngine's read lock while
// automatic reselection and a background Optimize keep rewriting the shared
// vector store under its write lock. Every answer must match the serial
// oracle.
func TestConcurrentSafeAggEngineAgainstSerialOracle(t *testing.T) {
	agg, err := viewcube.NewAggEngine(loadSalesTable(t), viewcube.EngineOptions{ReselectEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	safe := agg.Safe()
	kinds := []viewcube.AggKind{viewcube.AggSum, viewcube.AggCount, viewcube.AggAvg, viewcube.AggVar}
	dayRange := map[string]viewcube.ValueRange{"day": {Lo: "d1", Hi: "d2"}}
	const sql = "SELECT AVG(sales), COUNT(*) GROUP BY region"
	oracleGroups := make(map[viewcube.AggKind]map[string]float64)
	oracleRange := make(map[viewcube.AggKind]float64)
	for _, kind := range kinds {
		if oracleGroups[kind], err = safe.GroupByAgg(kind, "product"); err != nil {
			t.Fatal(err)
		}
		if oracleRange[kind], err = safe.RangeAgg(kind, dayRange); err != nil {
			t.Fatal(err)
		}
	}
	oracleSQL, err := safe.Query(sql)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(1)
	go func() {
		defer bg.Done()
		keeps := [][]string{{"product"}, {"region", "day"}, {"day"}}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			w := safe.Cube().NewWorkload()
			if err := w.AddViewKeeping(1, keeps[i%len(keeps)]...); err != nil {
				t.Errorf("workload: %v", err)
				return
			}
			if err := safe.Optimize(w); err != nil {
				t.Errorf("background optimize: %v", err)
				return
			}
		}
	}()

	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := 0; i < 60; i++ {
				kind := kinds[(r+i)%len(kinds)]
				var (
					groups map[string]float64
					err    error
				)
				if i%2 == 0 {
					groups, err = safe.GroupByAgg(kind, "product")
				} else {
					var r *viewcube.Result
					if r, _, err = safe.GroupByAggResult(true, kind, "product"); err == nil {
						groups, err = r.Groups()
					}
				}
				if err != nil {
					t.Errorf("GroupByAgg %v: %v", kind, err)
					return
				}
				for k, w := range oracleGroups[kind] {
					if !almostEqual(groups[k], w) {
						t.Errorf("kind %v group %q = %g, want %g", kind, k, groups[k], w)
						return
					}
				}
				v, err := safe.RangeAgg(kind, dayRange)
				if err != nil || !almostEqual(v, oracleRange[kind]) {
					t.Errorf("RangeAgg %v = %g (%v), want %g", kind, v, err, oracleRange[kind])
					return
				}
				res, err := safe.Query(sql)
				if err != nil || len(res.Rows) != len(oracleSQL.Rows) {
					t.Errorf("Query: %v rows %v, want %v", err, res, oracleSQL.Rows)
					return
				}
				for j, row := range res.Rows {
					for c, val := range row.Values {
						if !almostEqual(val, oracleSQL.Rows[j].Values[c]) {
							t.Errorf("Query row %v = %v, want %v", row.Key, row.Values, oracleSQL.Rows[j].Values)
							return
						}
					}
				}
			}
		}(r)
	}
	readers.Wait()
	close(stop)
	bg.Wait()
	if st := safe.Stats(); st.Reconfigs == 0 {
		t.Fatalf("stats %+v: no reconfiguration ran under the readers", st)
	}
}
