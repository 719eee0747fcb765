// Internal proofs of the non-blocking guarantees: these tests hold a
// guard's write lock directly — something no public API can do — and assert
// the paths that claim to be lock-free really are, at both measure widths.
// With ingest enabled, readers pin snapshots and appends go through the
// buffer, so both must complete while the lock is held; zero-delta updates
// skip the lock on either write path; DataVersion never takes it.
package viewcube

import (
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"viewcube/internal/workload"
)

const ingestInternalCSV = `product,region,day,sales
ale,east,d1,10
ale,west,d1,5
ale,east,d2,2
bock,east,d1,7
bock,west,d2,4
cider,west,d3,3
cider,east,d3,1
stout,east,d4,6
`

func internalSafeEngine(t *testing.T) *SafeEngine {
	t.Helper()
	c, err := Load(strings.NewReader(ingestInternalCSV), "sales")
	if err != nil {
		t.Fatal(err)
	}
	// ReselectEvery 0: reselectIfDue's unlocked fast path never needs s.mu,
	// so a read's only possible lock contact is the reader() pin itself.
	eng, err := c.NewEngine(EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return eng.Safe()
}

func internalStatsEngine(t *testing.T, opts EngineOptions) *SafeEngine {
	t.Helper()
	tbl, err := ReadTable(strings.NewReader(ingestInternalCSV), "sales")
	if err != nil {
		t.Fatal(err)
	}
	agg, err := NewAggEngine(tbl, opts)
	if err != nil {
		t.Fatal(err)
	}
	return agg.Safe()
}

// mustFinish fails the test if fn does not return within the deadline while
// the caller deliberately holds the engine write lock. unlock releases it
// before Fatal so cleanup can proceed.
func mustFinish(t *testing.T, what string, unlock func(), fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		fn()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		unlock()
		t.Fatalf("%s blocked on the held write lock", what)
	}
}

// readRow is one read of a guarded engine: a TraceX row names the untraced
// read whose answer it must reproduce bit-for-bit.
type readRow struct {
	name, same string
	read       func() (any, error)
}

// safeReads lists every SafeEngine read. Views are projected to their group
// maps so answers compare with DeepEqual.
func safeReads(s *SafeEngine) []readRow {
	groups := func(v *View, err error) (any, error) {
		if err != nil {
			return nil, err
		}
		return v.Groups()
	}
	days := map[string]ValueRange{"day": {Lo: "d1", Hi: "d2"}}
	const sql = "SELECT SUM(sales) GROUP BY product WHERE day BETWEEN 'd1' AND 'd3'"
	type within struct {
		sum float64
		ok  bool
	}
	return []readRow{
		{"View", "", func() (any, error) {
			el, err := s.core.cube.ViewKeeping("region")
			if err != nil {
				return nil, err
			}
			return groups(s.View(el))
		}},
		{"GroupBy", "", func() (any, error) { return groups(s.GroupBy("product")) }},
		{"GroupByWhere", "", func() (any, error) { return groups(s.GroupByWhere([]string{"product"}, days)) }},
		{"Total", "", func() (any, error) { return s.Total() }},
		{"RangeSum", "", func() (any, error) { return s.RangeSum(days) }},
		{"RangeSumWithin", "", func() (any, error) {
			sum, ok, err := s.RangeSumWithin(days)
			return within{sum, ok}, err
		}},
		{"RangeSumIndex", "", func() (any, error) { return s.RangeSumIndex([]int{0, 0, 0}, []int{2, 2, 2}) }},
		{"Query", "", func() (any, error) { return s.Query(sql) }},
		{"TraceQuery", "Query", func() (any, error) {
			res, _, err := asQuery(s.Select(true, sql))
			return res, err
		}},
		{"TraceGroupBy", "GroupBy", func() (any, error) {
			groups, _, err := asGroups(s.GroupByResult(true, "product"))
			return groups, err
		}},
		{"TraceTotal", "Total", func() (any, error) {
			total, _, _, err := s.RangeResult(true, RangeQuery{Total: true})
			return total, err
		}},
		{"TraceRangeSum", "RangeSum", func() (any, error) {
			sum, _, _, err := s.RangeResult(true, RangeQuery{Ranges: days})
			return sum, err
		}},
		{"TraceRangeSumWithin", "RangeSumWithin", func() (any, error) {
			sum, ok, _, err := s.RangeResult(true, RangeQuery{Ranges: days, Within: true})
			return within{sum, ok}, err
		}},
		{"Explain", "", func() (any, error) { return s.Explain(s.core.cube.GrandTotal()) }},
		{"ExplainGroupBy", "", func() (any, error) { return s.ExplainGroupBy("product") }},
	}
}

// safeAggReads lists every aggregate read of a SafeEngine over the
// measure-vector cube, each aggregate kind its own row.
func safeAggReads(s *SafeEngine) []readRow {
	days := map[string]ValueRange{"day": {Lo: "d1", Hi: "d2"}}
	const sql = "SELECT SUM(sales), COUNT(*), AVG(sales), VAR(sales) GROUP BY product WHERE day BETWEEN 'd1' AND 'd3'"
	rows := []readRow{
		{"Total", "", func() (any, error) { return s.RangeAgg(AggSum, nil) }},
		{"Query", "", func() (any, error) { return s.Query(sql) }},
		{"TraceQuery", "Query", func() (any, error) {
			res, _, err := asQuery(s.Select(true, sql))
			return res, err
		}},
	}
	for _, kind := range []AggKind{AggSum, AggCount, AggAvg, AggVar} {
		kind := kind
		rows = append(rows,
			readRow{"GroupByAgg " + kind.String(), "", func() (any, error) { return s.GroupByAgg(kind, "product") }},
			readRow{"TraceGroupByAgg " + kind.String(), "GroupByAgg " + kind.String(), func() (any, error) {
				groups, _, err := asGroups(s.GroupByAggResult(true, kind, "product"))
				return groups, err
			}},
			readRow{"RangeAgg " + kind.String(), "", func() (any, error) { return s.RangeAgg(kind, days) }},
			readRow{"TraceRangeAgg " + kind.String(), "RangeAgg " + kind.String(), func() (any, error) {
				v, _, _, err := s.RangeResult(true, RangeQuery{Ranges: days, Agg: &kind})
				return v, err
			}},
			readRow{"ExplainAgg " + kind.String(), "", func() (any, error) { return s.ExplainAgg(kind, "product") }},
		)
	}
	return rows
}

// TestIngestReadersIgnoreWriteLock is the barrier test for the MVCC
// contract, at both measure widths: with the guard's write lock held (as the
// merger or a reconfiguration would), every snapshot-pinned read — each read
// method, traced and untraced, and the explains — and streamed appends all
// complete, and each read returns exactly what it returned before the lock
// was taken.
func TestIngestReadersIgnoreWriteLock(t *testing.T) {
	cell := map[string]string{"product": "ale", "region": "east", "day": "d2"}
	t.Run("SafeEngine", func(t *testing.T) {
		s := internalSafeEngine(t)
		readersIgnoreWriteLock(t, s, safeReads(s), func(v float64) error { return s.UpdateValue(v, cell) })
	})
	t.Run("SafeEngineWidth3", func(t *testing.T) {
		s := internalStatsEngine(t, EngineOptions{})
		readersIgnoreWriteLock(t, s, safeAggReads(s), func(v float64) error { return s.UpdateValue(v, cell) })
	})
}

// readersIgnoreWriteLock is the body of TestIngestReadersIgnoreWriteLock.
// update streams one write adding v to the cube total; the "Total" row reads
// that total (38 on the fixture).
func readersIgnoreWriteLock(t *testing.T, g *Engine, reads []readRow, update func(v float64) error) {
	if err := g.EnableIngest(IngestOptions{Interval: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	defer g.DisableIngest()
	if err := update(5); err != nil {
		t.Fatal(err)
	}
	if err := g.Flush(); err != nil {
		t.Fatal(err)
	}

	// Unlocked answers. Each read runs twice so the second (kept) answer is
	// the plan-cache-warm one an explain renders under the lock too.
	want := make(map[string]any, len(reads))
	for _, r := range reads {
		for i := 0; i < 2; i++ {
			got, err := r.read()
			if err != nil {
				t.Fatalf("%s: %v", r.name, err)
			}
			want[r.name] = got
		}
	}
	if want["Total"] != 43.0 {
		t.Fatalf("total = %v, want 43", want["Total"])
	}
	for _, r := range reads {
		if r.same != "" && !reflect.DeepEqual(want[r.name], want[r.same]) {
			t.Fatalf("%s answered %v, %s answered %v", r.name, want[r.name], r.same, want[r.same])
		}
	}

	g.mu.Lock()
	unlock := g.mu.Unlock

	for _, r := range reads {
		var (
			got any
			err error
		)
		mustFinish(t, "snapshot-pinned "+r.name, unlock, func() { got, err = r.read() })
		if err != nil {
			unlock()
			t.Fatalf("%s under held write lock: %v", r.name, err)
		}
		if !reflect.DeepEqual(got, want[r.name]) {
			unlock()
			t.Fatalf("%s under held write lock = %v, want %v", r.name, got, want[r.name])
		}
	}

	// Appends acknowledge without the lock too; visibility waits for the
	// merger, which needs the lock we hold — so no Flush here. The zero is
	// the lock-free zero-delta path on a scalar cube and a zero-measure
	// observation (still one more tuple) on a vector cube.
	for _, v := range []float64{2, 0} {
		var upErr error
		mustFinish(t, "streamed append", unlock, func() { upErr = update(v) })
		if upErr != nil {
			unlock()
			t.Fatal(upErr)
		}
	}

	g.mu.Unlock()
	if err := g.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, r := range reads {
		if r.name != "Total" {
			continue
		}
		total, err := r.read()
		if err != nil {
			t.Fatal(err)
		}
		if total != 45.0 { // 38 + 5 + 2
			t.Fatalf("total after unlock+flush = %v, want 45", total)
		}
	}
}

// TestZeroDeltaUpdateIgnoresWriteLock pins the satellite bugfix on the
// locked write path: without ingest, a zero-delta Update/UpdateValue
// validates and returns without ever taking the write lock.
func TestZeroDeltaUpdateIgnoresWriteLock(t *testing.T) {
	s := internalSafeEngine(t)
	s.mu.Lock()
	unlock := s.mu.Unlock

	var idxErr error
	mustFinish(t, "zero-delta Update", unlock, func() {
		idxErr = s.Update(0, 0, 0, 0)
	})
	if idxErr != nil {
		unlock()
		t.Fatal(idxErr)
	}
	var valErr error
	mustFinish(t, "zero-delta UpdateValue", unlock, func() {
		valErr = s.UpdateValue(0, map[string]string{
			"product": "ale", "region": "east", "day": "d2",
		})
	})
	if valErr != nil {
		unlock()
		t.Fatal(valErr)
	}
	// Validation still runs lock-free.
	var badErr error
	mustFinish(t, "zero-delta Update with bad index", unlock, func() {
		badErr = s.Update(0, 99, 0, 0)
	})
	if badErr == nil {
		unlock()
		t.Fatal("zero-delta update with out-of-range index must fail")
	}
	s.mu.Unlock()
}

// TestIngestStatsDuringWALAppend races GET /stats against POST /ingest in
// miniature: IngestStats reads the WAL byte count with no lock while appends
// advance it (a data race under -race before WAL.bytes became atomic), and
// the viewcube_ingest_wal_bytes_total counter ends exactly equal to it — the
// runtime adds the Bytes() difference observed under appendMu, not a guess.
func TestIngestStatsDuringWALAppend(t *testing.T) {
	cell := map[string]string{"product": "ale", "region": "east", "day": "d2"}
	t.Run("SafeEngine", func(t *testing.T) {
		s := internalSafeEngine(t)
		statsDuringWALAppend(t, s, func() error { return s.UpdateValue(1, cell) })
	})
	t.Run("SafeEngineWidth3", func(t *testing.T) {
		s := internalStatsEngine(t, EngineOptions{})
		statsDuringWALAppend(t, s, func() error { return s.UpdateValue(1, cell) })
	})
}

func statsDuringWALAppend(t *testing.T, g *Engine, update func() error) {
	opts := IngestOptions{WALPath: filepath.Join(t.TempDir(), "cube.wal"), Interval: time.Millisecond}
	if err := g.EnableIngest(opts); err != nil {
		t.Fatal(err)
	}
	defer g.DisableIngest()
	const appends = 200
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < appends; i++ {
			if err := update(); err != nil {
				t.Errorf("streamed update: %v", err)
				return
			}
		}
	}()
	var last uint64
	for last == 0 || g.IngestStats().Appended < appends {
		b := g.IngestStats().WALBytes
		if b < last {
			t.Fatalf("WAL bytes went backwards: %d after %d", b, last)
		}
		last = b
		if t.Failed() {
			break
		}
	}
	wg.Wait()
	st := g.IngestStats()
	if st.Appended != appends || st.WALBytes == 0 {
		t.Fatalf("stats %+v, want %d appends and WAL bytes", st, appends)
	}
	if got := g.core.met.ingest.WALBytes.Value(); got != st.WALBytes {
		t.Fatalf("viewcube_ingest_wal_bytes_total = %d, want the WAL's exact %d", got, st.WALBytes)
	}
}

// TestDataVersion is the property the result caches rest on, at both measure
// widths: DataVersion strictly increases across every change to the data or
// the materialised set — locked update, optimize, automatic reselection,
// ingest enable, snapshot publish, disable, WAL replay — is left alone by
// reads and zero deltas, and returns while the write lock is held.
func TestDataVersion(t *testing.T) {
	cell := map[string]string{"product": "ale", "region": "east", "day": "d2"}
	opts := EngineOptions{ReselectEvery: 4}
	hot := func(c *Cube) *Workload {
		w := c.NewWorkload()
		if err := w.AddViewKeeping(1, "product"); err != nil {
			t.Fatal(err)
		}
		return w
	}
	t.Run("SafeEngine", func(t *testing.T) {
		build := func() *SafeEngine {
			c, err := Load(strings.NewReader(ingestInternalCSV), "sales")
			if err != nil {
				t.Fatal(err)
			}
			eng, err := c.NewEngine(opts)
			if err != nil {
				t.Fatal(err)
			}
			return eng.Safe()
		}
		s, replay := build(), build()
		dataVersion(t, s, replay, versionOps{
			read:     func(keep ...string) error { _, err := s.GroupBy(keep...); return err },
			update:   func(v float64) error { return s.UpdateValue(v, cell) },
			zero:     true,
			optimize: func() error { return s.Optimize(hot(s.core.cube)) },
		})
	})
	t.Run("SafeEngineWidth3", func(t *testing.T) {
		s, replay := internalStatsEngine(t, opts), internalStatsEngine(t, opts)
		dataVersion(t, s, replay, versionOps{
			read:     func(keep ...string) error { _, err := s.GroupByAgg(AggAvg, keep...); return err },
			update:   func(v float64) error { return s.UpdateValue(v, cell) },
			optimize: func() error { return s.Optimize(hot(s.Cube())) },
		})
	})
}

// versionOps is what TestDataVersion drives on an engine: a group-by, one
// write (zero says a zero value is a no-op delta rather than an observation),
// and an optimize for a product-only workload.
type versionOps struct {
	read     func(keep ...string) error
	update   func(v float64) error
	zero     bool
	optimize func() error
}

func dataVersion(t *testing.T, g, replay *Engine, ops versionOps) {
	last := g.DataVersion()
	moved := func(what string) {
		t.Helper()
		v := g.DataVersion()
		if v <= last {
			t.Fatalf("%s: data version %d after %d, want an increase", what, v, last)
		}
		last = v
	}
	still := func(what string) {
		t.Helper()
		if v := g.DataVersion(); v != last {
			t.Fatalf("%s moved the data version %d -> %d", what, last, v)
		}
	}
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	check(ops.read("product"))
	still("a read")
	if ops.zero {
		check(ops.update(0))
		still("a zero delta")
	}
	check(ops.update(3))
	moved("locked update")
	check(ops.optimize())
	moved("optimize")

	// Automatic reselection: a run of queries the product-only set serves
	// badly pushes the workload profile past ReselectEvery and rewrites the set.
	before := last
	for i := 0; i < 12 && g.DataVersion() == before; i++ {
		check(ops.read("region", "day"))
	}
	moved("automatic reselection")

	walPath := filepath.Join(t.TempDir(), "cube.wal")
	check(g.EnableIngest(IngestOptions{WALPath: walPath, Interval: time.Millisecond}))
	moved("enabling ingest")
	check(ops.read("product"))
	still("a snapshot read")
	if ops.zero {
		check(ops.update(0))
		still("a streamed zero delta")
	}
	check(ops.update(2))
	check(g.Flush())
	moved("snapshot publish")

	g.mu.Lock()
	mustFinish(t, "DataVersion", g.mu.Unlock, func() { still("reading the version under the write lock") })
	g.mu.Unlock()

	check(g.DisableIngest())
	moved("disabling ingest")

	// A fresh engine replaying the log starts from its own version and moves.
	if v := replay.DataVersion(); v != 0 {
		t.Fatalf("fresh engine at data version %d, want 0", v)
	}
	check(replay.EnableIngest(IngestOptions{WALPath: walPath}))
	if replay.IngestStats().WALReplayed != 1 || replay.DataVersion() == 0 {
		t.Fatalf("after WAL replay: stats %+v, data version %d", replay.IngestStats(), replay.DataVersion())
	}
	check(replay.DisableIngest())
}

// TestIngestFlushAfterTimerMergePublishesNothing: a Flush whose rows a
// timer merge publishes while the Flush waits leaves its poke behind in the
// merger's channel. That stale poke must not publish a generation with no
// deltas — no store copy, no data version move, no result-cache wipe — while
// Flush still returns once its rows are visible.
func TestIngestFlushAfterTimerMergePublishesNothing(t *testing.T) {
	s := internalSafeEngine(t)
	g := s
	if err := g.EnableIngest(IngestOptions{Interval: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	defer g.DisableIngest()
	rt := g.ing.Load()
	published := g.core.met.ingest.Published
	version, epoch, count := g.DataVersion(), g.SnapshotEpoch(), published.Value()

	// Hold the merger out of its merge: the timer fires, the merge blocks on
	// the engine lock, and the Flush below pokes while it is blocked.
	g.mu.RLock()
	if err := s.Update(5, 0, 0, 0); err != nil {
		g.mu.RUnlock()
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	flushed := make(chan error, 1)
	go func() { flushed <- s.Flush() }()
	time.Sleep(20 * time.Millisecond)
	g.mu.RUnlock()
	if err := <-flushed; err != nil {
		t.Fatal(err)
	}
	total, err := s.Total()
	if err != nil {
		t.Fatal(err)
	}
	if total != 43 {
		t.Fatalf("total after Flush = %g, want 43 (the flushed row visible)", total)
	}
	// Two more pokes: the second is taken only after the merge of whatever
	// the first found waiting (a stale poke) has finished.
	rt.flushCh <- struct{}{}
	rt.flushCh <- struct{}{}
	if err := g.Flush(); err != nil {
		t.Fatal(err)
	}
	g.mu.Lock() // the merge of the last poke, if it began, has finished
	g.mu.Unlock()
	if v, e, c := g.DataVersion(), g.SnapshotEpoch(), published.Value(); v != version+1 || e != epoch+1 || c != count+1 {
		t.Fatalf("one merged batch moved data version %d→%d, snapshot epoch %d→%d, published %d→%d; want one step each",
			version, v, epoch, e, count, c)
	}
}

// TestIngestRecycledGenerationsStayExact: every publish copies the stored set
// into arrays that retired generations handed back to the scratch pool.
// Readers pin generations across several publishes and keep the Views and
// Results they got; every answer must equal the serial oracle at its epoch,
// a pinned generation must keep answering it while later ones publish, and
// a kept View or Result must stay byte-identical after its generation
// retired and its arrays were reused. Run under -race by CI's concurrency
// step.
func TestIngestRecycledGenerationsStayExact(t *testing.T) {
	build := func(width3 bool) func(t *testing.T) *Engine {
		return func(t *testing.T) *Engine {
			tbl, err := workload.SalesTable(rand.New(rand.NewSource(5)), 10, 4, 20, 2000)
			if err != nil {
				t.Fatal(err)
			}
			var eng *Engine
			if width3 {
				eng, err = NewAggEngine(&Table{t: tbl}, EngineOptions{})
			} else {
				var c *Cube
				if c, err = FromTable(tbl); err == nil {
					eng, err = c.NewEngine(EngineOptions{})
				}
			}
			if err != nil {
				t.Fatal(err)
			}
			w := eng.core.cube.NewWorkload()
			for _, keep := range [][]string{{"product"}, {"region", "day"}, {}} {
				if err := w.AddViewKeeping(1, keep...); err != nil {
					t.Fatal(err)
				}
			}
			if err := eng.Optimize(w); err != nil {
				t.Fatal(err)
			}
			return eng
		}
	}
	t.Run("SafeEngine", func(t *testing.T) { recycledGenerationsStayExact(t, build(false)) })
	t.Run("SafeEngineWidth3", func(t *testing.T) { recycledGenerationsStayExact(t, build(true)) })
}

func recycledGenerationsStayExact(t *testing.T, build func(t *testing.T) *Engine) {
	const rounds, perRound, readers = 30, 8, 3
	type answer struct {
		groups []float64 // GroupBy("product") cells
		total  float64
	}
	oracle, live := build(t), build(t).Safe()
	ask := func(e *core) (*View, answer) {
		g, err := e.exec(nil, ask{r: &groupByRead, form: viewForm, keep: []string{"product"}})
		if err != nil {
			t.Error(err)
			return nil, answer{}
		}
		total, err := e.exec(nil, ask{r: &totalRead})
		if err != nil {
			t.Error(err)
		}
		return g.view, answer{g.view.Data(), total.v}
	}
	var mu sync.Mutex
	want := map[uint64]answer{}
	record := func(epoch uint64) {
		_, a := ask(&oracle.core)
		mu.Lock()
		want[epoch] = a
		mu.Unlock()
	}
	wantAt := func(epoch uint64) answer {
		mu.Lock()
		defer mu.Unlock()
		return want[epoch]
	}
	same := func(a, b answer) bool { return slices.Equal(a.groups, b.groups) && a.total == b.total }

	record(1)
	// Only Flush merges: one generation per round, at a known epoch.
	if err := live.EnableIngest(IngestOptions{Interval: time.Hour}); err != nil {
		t.Fatal(err)
	}
	defer live.DisableIngest()
	rt := live.ing.Load()

	type kept struct {
		epoch uint64
		view  *View
		res   *Result
		cells []float64 // the view's cells when the reader got it
		dense []float64 // and the result's
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	keptBy := make([][]kept, readers)
	for r := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				snap := rt.lc.Acquire()
				epoch, gen := snap.Epoch(), snap.Payload()
				v, got := ask(gen)
				if v == nil {
					snap.Release()
					return
				}
				if w := wantAt(epoch); !same(got, w) {
					t.Errorf("epoch %d answered %v, want the serial oracle %v", epoch, got, w)
				}
				res, err := v.Result()
				if err != nil {
					t.Error(err)
					snap.Release()
					return
				}
				dense, err := res.Dense()
				if err != nil {
					t.Error(err)
				}
				keptBy[r] = append(keptBy[r], kept{epoch, v, res, v.Data(), dense})
				// Keep the pin while two more generations publish: the pinned
				// one must not be recycled under it.
			pinned:
				for rt.lc.Current() < epoch+2 {
					select {
					case <-done:
						break pinned
					case <-time.After(time.Millisecond):
					}
				}
				if _, again := ask(gen); !same(again, wantAt(epoch)) {
					t.Errorf("pinned epoch %d drifted to %v while later generations published", epoch, again)
				}
				snap.Release()
			}
		}()
	}

	// The writer: one round of deltas per generation, the oracle first.
	rng := rand.New(rand.NewSource(9))
	reused, seen := 0, map[*float64]bool{}
	for round := range rounds {
		cells := make([][]int, perRound)
		deltas := make([]float64, perRound)
		for i := range cells {
			cells[i] = []int{rng.Intn(10), rng.Intn(4), rng.Intn(20)}
			deltas[i] = float64(1 + rng.Intn(9))
			if err := oracle.Update(deltas[i], cells[i]...); err != nil {
				t.Fatal(err)
			}
		}
		epoch := uint64(round + 2)
		record(epoch)
		for i := range cells {
			if err := live.Update(deltas[i], cells[i]...); err != nil {
				t.Fatal(err)
			}
		}
		if err := live.Flush(); err != nil {
			t.Fatal(err)
		}
		snap := rt.lc.Acquire()
		if snap.Epoch() != epoch {
			t.Fatalf("round %d published epoch %d, want %d", round, snap.Epoch(), epoch)
		}
		gen := snap.Payload()
		for _, r := range gen.st.Elements() {
			a, _ := gen.st.Get(r)
			if p := &a.Data()[0]; seen[p] {
				reused++
			} else {
				seen[p] = true
			}
		}
		snap.Release()
	}
	close(done)
	wg.Wait()
	if reused == 0 {
		t.Fatalf("no generation leased an array a retired one handed back")
	}

	// Every kept answer is as it was, its generation long retired.
	n := 0
	for _, ks := range keptBy {
		for _, k := range ks {
			n++
			if !slices.Equal(k.view.Data(), k.cells) {
				t.Fatalf("epoch %d view changed after retirement: %v, was %v", k.epoch, k.view.Data(), k.cells)
			}
			dense, err := k.res.Dense()
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(dense, k.dense) {
				t.Fatalf("epoch %d result changed after retirement: %v, was %v", k.epoch, dense, k.dense)
			}
		}
	}
	if n == 0 {
		t.Fatal("no reader finished a read")
	}
	if st := live.IngestStats(); st.Retired < rounds-readers {
		t.Fatalf("stats %+v: want at least %d retired generations", st, rounds-readers)
	}
}
