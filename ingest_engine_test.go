// Streaming ingest tests: the zero-delta fast path, the end-to-end write
// path (append → merge → publish → query), WAL crash replay, and the
// concurrent-ingest-vs-serial-oracle stress (CI runs the Concurrent tests
// under -race). Deltas are integers throughout: integer sums are exact in
// float64 whatever order coalescing folds them in, so every published
// snapshot can be compared bit-identically against the serial oracle.
package viewcube_test

import (
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"viewcube"
	"viewcube/internal/workload"
)

// TestZeroDeltaUpdateKeepsPlanEpoch pins the zero-delta fast path: a no-op
// update must validate its address and touch nothing — no plan-cache epoch
// bump, no invalidation — so pollers and idempotent retries don't evict
// warm plans.
func TestZeroDeltaUpdateKeepsPlanEpoch(t *testing.T) {
	c := loadSales(t)
	eng, err := c.NewEngine(viewcube.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.GroupBy("product"); err != nil { // warm a plan
		t.Fatal(err)
	}
	before, version := eng.PlanCacheStats(), eng.DataVersion()
	if err := eng.Update(0, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := eng.UpdateValue(0, map[string]string{
		"product": "ale", "region": "east", "day": "d2",
	}); err != nil {
		t.Fatal(err)
	}
	after := eng.PlanCacheStats()
	if after.Epoch != before.Epoch {
		t.Fatalf("zero-delta update bumped plan epoch %d -> %d", before.Epoch, after.Epoch)
	}
	if after.Invalidations != before.Invalidations {
		t.Fatalf("zero-delta update invalidated plans %d -> %d", before.Invalidations, after.Invalidations)
	}
	if got := eng.DataVersion(); got != version {
		t.Fatalf("zero-delta update moved the data version %d -> %d", version, got)
	}
	// Validation still runs on the fast path.
	if err := eng.Update(0, 99, 0, 0); err == nil {
		t.Fatal("zero-delta update with out-of-range index must fail")
	}
	if err := eng.Update(0, 0, 0); err == nil {
		t.Fatal("zero-delta update with wrong rank must fail")
	}
	// A real delta moves the data version the result caches sync to; plans
	// depend only on the stored rectangle set, so it keeps the epoch too.
	if err := eng.Update(1, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if got := eng.DataVersion(); got == version {
		t.Fatal("non-zero update did not move the data version")
	}
	if got := eng.PlanCacheStats().Epoch; got != before.Epoch {
		t.Fatalf("non-zero update bumped the plan epoch %d -> %d", before.Epoch, got)
	}
}

// TestIngestEndToEnd walks the streaming write path on the small sales
// cube: enable, append, flush, query, disable, and confirm the locked
// write path takes over again afterwards.
func TestIngestEndToEnd(t *testing.T) {
	c := loadSales(t)
	eng, err := c.NewEngine(viewcube.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	safe := eng.Safe()
	if safe.IngestEnabled() {
		t.Fatal("ingest enabled before EnableIngest")
	}
	if err := safe.EnableIngest(viewcube.IngestOptions{Interval: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if !safe.IngestEnabled() {
		t.Fatal("IngestEnabled false after EnableIngest")
	}
	if err := safe.EnableIngest(viewcube.IngestOptions{}); err == nil {
		t.Fatal("double EnableIngest must fail")
	}

	if err := safe.UpdateValue(5, map[string]string{
		"product": "ale", "region": "east", "day": "d2",
	}); err != nil {
		t.Fatal(err)
	}
	if err := safe.Flush(); err != nil {
		t.Fatal(err)
	}
	v, err := safe.GroupBy("product")
	if err != nil {
		t.Fatal(err)
	}
	groups, err := v.Groups()
	if err != nil {
		t.Fatal(err)
	}
	if groups["ale"] != 22 {
		t.Fatalf("ale after streamed update = %g, want 22", groups["ale"])
	}
	total, err := safe.Total()
	if err != nil {
		t.Fatal(err)
	}
	if total != 43 {
		t.Fatalf("total after streamed update = %g, want 43", total)
	}
	early, err := safe.RangeSum(map[string]viewcube.ValueRange{"day": {Lo: "d1", Hi: "d2"}})
	if err != nil {
		t.Fatal(err)
	}
	if early != 33 {
		t.Fatalf("range after streamed update = %g, want 33", early)
	}

	// Zero deltas and bad addresses behave exactly as on the locked path.
	if err := safe.Update(0, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := safe.Update(1, 99, 0, 0); err == nil {
		t.Fatal("streamed update with out-of-range index must fail")
	}

	st := safe.IngestStats()
	if st.Appended != 1 {
		t.Fatalf("appended %d, want 1 (zero deltas and rejects don't count)", st.Appended)
	}
	if st.Merges < 1 || st.SnapshotEpoch < 2 || st.Published < 2 {
		t.Fatalf("merge counters %+v, want at least one merge past the initial snapshot", st)
	}
	if st.LagSeqs != 0 {
		t.Fatalf("lag %d after Flush, want 0", st.LagSeqs)
	}
	if pcs := safe.PlanCacheStats(); pcs.Snapshot != st.SnapshotEpoch {
		t.Fatalf("PlanCacheStats.Snapshot %d, want snapshot epoch %d", pcs.Snapshot, st.SnapshotEpoch)
	}

	if err := safe.DisableIngest(); err != nil {
		t.Fatal(err)
	}
	if safe.IngestEnabled() {
		t.Fatal("IngestEnabled true after DisableIngest")
	}
	if got := safe.IngestStats(); got != (viewcube.IngestStats{}) {
		t.Fatalf("IngestStats %+v after disable, want zero value", got)
	}
	// The locked write path sees the streamed state and keeps mutating it.
	if err := safe.UpdateValue(2, map[string]string{
		"product": "ale", "region": "east", "day": "d2",
	}); err != nil {
		t.Fatal(err)
	}
	total, err = safe.Total()
	if err != nil {
		t.Fatal(err)
	}
	if total != 45 {
		t.Fatalf("total after disable+update = %g, want 45", total)
	}
}

// TestIngestWALCrashReplay: acknowledged deltas survive a restart through
// the WAL, and a torn tail (the crash landing mid-record) is truncated
// rather than poisoning the replay.
func TestIngestWALCrashReplay(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "cube.wal")
	updates := []struct {
		delta  float64
		values map[string]string
	}{
		{5, map[string]string{"product": "ale", "region": "east", "day": "d2"}},
		{3, map[string]string{"product": "bock", "region": "west", "day": "d2"}},
		{2, map[string]string{"product": "cider", "region": "east", "day": "d3"}},
		{-4, map[string]string{"product": "stout", "region": "east", "day": "d4"}},
	}

	open := func() *viewcube.SafeEngine {
		t.Helper()
		eng, err := loadSales(t).NewEngine(viewcube.EngineOptions{})
		if err != nil {
			t.Fatal(err)
		}
		safe := eng.Safe()
		if err := safe.EnableIngest(viewcube.IngestOptions{WALPath: walPath, Interval: time.Millisecond}); err != nil {
			t.Fatal(err)
		}
		return safe
	}

	first := open()
	for _, u := range updates {
		if err := first.UpdateValue(u.delta, u.values); err != nil {
			t.Fatal(err)
		}
	}
	if err := first.Flush(); err != nil {
		t.Fatal(err)
	}
	wantTotal, err := first.Total()
	if err != nil {
		t.Fatal(err)
	}
	if wantTotal != 44 { // 38 + 5 + 3 + 2 - 4
		t.Fatalf("total before crash = %g, want 44", wantTotal)
	}
	v, err := first.GroupBy("product")
	if err != nil {
		t.Fatal(err)
	}
	wantGroups, err := v.Groups()
	if err != nil {
		t.Fatal(err)
	}
	if err := first.DisableIngest(); err != nil {
		t.Fatal(err)
	}

	// Restart: a fresh engine over the same pre-ingest cube replays the log.
	second := open()
	if got := second.IngestStats().WALReplayed; got != uint64(len(updates)) {
		t.Fatalf("replayed %d deltas, want %d", got, len(updates))
	}
	total, err := second.Total()
	if err != nil {
		t.Fatal(err)
	}
	if total != wantTotal {
		t.Fatalf("total after replay = %g, want %g", total, wantTotal)
	}
	v, err = second.GroupBy("product")
	if err != nil {
		t.Fatal(err)
	}
	groups, err := v.Groups()
	if err != nil {
		t.Fatal(err)
	}
	for k, w := range wantGroups {
		if groups[k] != w {
			t.Fatalf("group %q after replay = %g, want %g", k, groups[k], w)
		}
	}
	// The log keeps accepting appends after a replay.
	if err := second.UpdateValue(1, updates[0].values); err != nil {
		t.Fatal(err)
	}
	if err := second.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := second.DisableIngest(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail: chop one byte off the last record. Replay must keep
	// the four intact records and drop the torn fifth.
	info, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(walPath, info.Size()-1); err != nil {
		t.Fatal(err)
	}
	third := open()
	if got := third.IngestStats().WALReplayed; got != uint64(len(updates)) {
		t.Fatalf("replayed %d deltas after torn tail, want %d", got, len(updates))
	}
	total, err = third.Total()
	if err != nil {
		t.Fatal(err)
	}
	if total != wantTotal {
		t.Fatalf("total after torn-tail replay = %g, want %g", total, wantTotal)
	}
	if err := third.DisableIngest(); err != nil {
		t.Fatal(err)
	}
}

// TestIngestConcurrentPublishesMatchSerialOracle is the MVCC stress: several
// writers stream integer deltas while readers continuously query, and every
// observed total must be a prefix of the serial history — monotone
// non-decreasing, never past the oracle. After Flush the engine must match
// the single-writer serial oracle bit for bit.
func TestIngestConcurrentPublishesMatchSerialOracle(t *testing.T) {
	build := func() *viewcube.Engine {
		t.Helper()
		rng := rand.New(rand.NewSource(7))
		tbl, err := workload.SalesTable(rng, 10, 4, 20, 4000)
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
		return eng
	}

	const writers, perWriter = 4, 400
	shape := []int{10, 4, 20}
	drng := rand.New(rand.NewSource(99))
	type cellDelta struct {
		idx   []int
		delta float64
	}
	batches := make([][]cellDelta, writers)
	for w := range batches {
		batches[w] = make([]cellDelta, perWriter)
		for i := range batches[w] {
			batches[w][i] = cellDelta{
				idx:   []int{drng.Intn(shape[0]), drng.Intn(shape[1]), drng.Intn(shape[2])},
				delta: float64(1 + drng.Intn(9)), // positive: totals grow monotonically
			}
		}
	}

	// Serial single-writer oracle.
	oracle := build()
	for _, batch := range batches {
		for _, d := range batch {
			if err := oracle.Update(d.delta, d.idx...); err != nil {
				t.Fatal(err)
			}
		}
	}
	ov, err := oracle.GroupBy("product")
	if err != nil {
		t.Fatal(err)
	}
	oracleGroups, err := ov.Groups()
	if err != nil {
		t.Fatal(err)
	}
	oracleTotal, err := oracle.Total()
	if err != nil {
		t.Fatal(err)
	}

	live := build().Safe()
	if err := live.EnableIngest(viewcube.IngestOptions{Interval: 2 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	baseTotal, err := live.Total()
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			last := baseTotal
			for {
				select {
				case <-done:
					return
				default:
				}
				total, err := live.Total()
				if err != nil {
					t.Errorf("concurrent Total: %v", err)
					return
				}
				if total < last {
					t.Errorf("total went backwards: %g after %g", total, last)
					return
				}
				if total > oracleTotal {
					t.Errorf("total %g past the serial oracle %g", total, oracleTotal)
					return
				}
				last = total
			}
		}()
	}

	var writersWG sync.WaitGroup
	for _, batch := range batches {
		writersWG.Add(1)
		go func(batch []cellDelta) {
			defer writersWG.Done()
			for _, d := range batch {
				if err := live.Update(d.delta, d.idx...); err != nil {
					t.Errorf("streamed update: %v", err)
					return
				}
			}
		}(batch)
	}
	writersWG.Wait()
	if err := live.Flush(); err != nil {
		t.Fatal(err)
	}
	close(done)
	readers.Wait()

	total, err := live.Total()
	if err != nil {
		t.Fatal(err)
	}
	if total != oracleTotal {
		t.Fatalf("flushed total = %g, want serial oracle %g", total, oracleTotal)
	}
	lv, err := live.GroupBy("product")
	if err != nil {
		t.Fatal(err)
	}
	groups, err := lv.Groups()
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != len(oracleGroups) {
		t.Fatalf("group count %d, want %d", len(groups), len(oracleGroups))
	}
	for k, w := range oracleGroups {
		if groups[k] != w {
			t.Fatalf("group %q = %g, want bit-identical oracle %g", k, groups[k], w)
		}
	}

	st := live.IngestStats()
	if st.Appended != writers*perWriter {
		t.Fatalf("appended %d, want %d", st.Appended, writers*perWriter)
	}
	if st.LagSeqs != 0 {
		t.Fatalf("lag %d after Flush, want 0", st.LagSeqs)
	}
	if st.Merges == 0 || st.MergedCells == 0 {
		t.Fatalf("merge counters %+v, want progress", st)
	}
	if err := live.DisableIngest(); err != nil {
		t.Fatal(err)
	}
}

// TestAggConcurrentIngestMatchesOracle runs the measure-vector cube through
// the same streaming runtime as the scalar one, against a serial
// measure-vector engine as its oracle: concurrent observation streams fold
// in as width-3 deltas [v, v², 1], unlocked readers pin snapshots
// mid-stream and must see COUNT totals that only grow and never pass the
// oracle, and after Flush every aggregate (SUM, COUNT, AVG, VAR) must come
// out identical because vector deltas coalesce linearly. Then the agg WAL replays into a fresh engine.
func TestAggConcurrentIngestMatchesOracle(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "agg.wal")
	cells := []map[string]string{
		{"product": "ale", "region": "east", "day": "d2"},
		{"product": "bock", "region": "west", "day": "d2"},
		{"product": "cider", "region": "east", "day": "d3"},
		{"product": "stout", "region": "east", "day": "d4"},
	}
	const writers, perWriter = 3, 60
	orng := rand.New(rand.NewSource(5))
	type obs struct {
		measure float64
		values  map[string]string
	}
	batches := make([][]obs, writers)
	for w := range batches {
		batches[w] = make([]obs, perWriter)
		for i := range batches[w] {
			batches[w][i] = obs{
				measure: float64(1 + orng.Intn(9)),
				values:  cells[orng.Intn(len(cells))],
			}
		}
	}

	oracle, err := viewcube.NewAggEngine(loadSalesTable(t), viewcube.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range batches {
		for _, o := range batch {
			if err := oracle.UpdateValue(o.measure, o.values); err != nil {
				t.Fatal(err)
			}
		}
	}
	count := func(groups map[string]float64) float64 {
		n := 0.0
		for _, c := range groups {
			n += c
		}
		return n
	}
	oracleCounts, err := oracle.GroupByAgg(viewcube.AggCount, "product")
	if err != nil {
		t.Fatal(err)
	}
	oracleCount := count(oracleCounts)

	build := func() *viewcube.SafeEngine {
		t.Helper()
		agg, err := viewcube.NewAggEngine(loadSalesTable(t), viewcube.EngineOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return agg.Safe()
	}
	live := build()
	if err := live.EnableIngest(viewcube.IngestOptions{WALPath: walPath, Interval: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	baseCounts, err := live.GroupByAgg(viewcube.AggCount, "product")
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			last := count(baseCounts)
			for {
				select {
				case <-done:
					return
				default:
				}
				groups, err := live.GroupByAgg(viewcube.AggCount, "product")
				if err != nil {
					t.Errorf("concurrent GroupByAgg: %v", err)
					return
				}
				n := count(groups)
				if n < last {
					t.Errorf("count went backwards: %g after %g", n, last)
					return
				}
				if n > oracleCount {
					t.Errorf("count %g past the serial oracle %g", n, oracleCount)
					return
				}
				last = n
			}
		}()
	}

	var wg sync.WaitGroup
	for _, batch := range batches {
		wg.Add(1)
		go func(batch []obs) {
			defer wg.Done()
			for _, o := range batch {
				if err := live.UpdateValue(o.measure, o.values); err != nil {
					t.Errorf("agg ingest: %v", err)
					return
				}
			}
		}(batch)
	}
	wg.Wait()
	if err := live.Flush(); err != nil {
		t.Fatal(err)
	}
	close(done)
	readers.Wait()

	kinds := []viewcube.AggKind{viewcube.AggSum, viewcube.AggCount, viewcube.AggAvg, viewcube.AggVar}
	compare := func(eng *viewcube.SafeEngine, label string) {
		t.Helper()
		for _, kind := range kinds {
			want, err := oracle.GroupByAgg(kind, "product")
			if err != nil {
				t.Fatal(err)
			}
			got, err := eng.GroupByAgg(kind, "product")
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s kind %v: group count %d, want %d", label, kind, len(got), len(want))
			}
			for k, w := range want {
				if !almostEqual(got[k], w) {
					t.Fatalf("%s kind %v group %q = %g, want %g", label, kind, k, got[k], w)
				}
			}
		}
	}
	compare(live, "live")

	st := live.IngestStats()
	if st.Appended != writers*perWriter {
		t.Fatalf("appended %d, want %d", st.Appended, writers*perWriter)
	}
	if st.LagSeqs != 0 {
		t.Fatalf("lag %d after Flush, want 0", st.LagSeqs)
	}
	if st.Merges == 0 || st.MergedCells == 0 || st.SnapshotEpoch != live.SnapshotEpoch() {
		t.Fatalf("merge counters %+v (snapshot epoch %d), want progress", st, live.SnapshotEpoch())
	}
	if st.WALBytes == 0 {
		t.Fatal("WAL bytes 0 after streaming through a WAL")
	}
	if err := live.DisableIngest(); err != nil {
		t.Fatal(err)
	}

	// Crash replay: a fresh engine over the same base table replays the
	// vector WAL and matches the oracle too.
	fresh := build()
	if err := fresh.EnableIngest(viewcube.IngestOptions{WALPath: walPath}); err != nil {
		t.Fatal(err)
	}
	if got := fresh.IngestStats().WALReplayed; got != writers*perWriter {
		t.Fatalf("replayed %d observations, want %d", got, writers*perWriter)
	}
	compare(fresh, "replayed")
	if err := fresh.DisableIngest(); err != nil {
		t.Fatal(err)
	}

	// Back on the locked write path, an update is immediately visible.
	if err := oracle.UpdateValue(4, cells[0]); err != nil {
		t.Fatal(err)
	}
	if err := live.UpdateValue(4, cells[0]); err != nil {
		t.Fatal(err)
	}
	compare(live, "after disable")
}
