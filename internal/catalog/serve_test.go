package catalog

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"viewcube"
	"viewcube/internal/rescache"
)

// countingHandle wraps a CubeHandle counting how many times the underlying
// read paths actually execute, for singleflight/exactly-once assertions.
type countingHandle struct {
	CubeHandle
	groupBys atomic.Int64
	queries  atomic.Int64
	ranges   atomic.Int64
}

func (h *countingHandle) GroupBy(traced bool, keep ...string) (*viewcube.Result, *viewcube.QueryTrace, error) {
	h.groupBys.Add(1)
	return h.CubeHandle.GroupBy(traced, keep...)
}

func (h *countingHandle) Query(traced bool, sql string) (*viewcube.Result, *viewcube.QueryTrace, error) {
	h.queries.Add(1)
	return h.CubeHandle.Query(traced, sql)
}

func (h *countingHandle) RangeSum(traced bool, ranges map[string]viewcube.ValueRange) (float64, *viewcube.QueryTrace, error) {
	h.ranges.Add(1)
	return h.CubeHandle.RangeSum(traced, ranges)
}

// cachedSalesRegistry registers one sales cube and enables result caching.
func cachedSalesRegistry(t *testing.T) (*Registry, *countingHandle) {
	t.Helper()
	reg := NewRegistry()
	h := &countingHandle{CubeHandle: salesHandle(t)}
	if err := reg.Register("sales", func() (CubeHandle, error) {
		h.CubeHandle = salesHandle(t) // rebuilds get a fresh inner handle
		return h, nil
	}); err != nil {
		t.Fatal(err)
	}
	reg.EnableResultCache(rescache.Options{})
	return reg, h
}

func acquire(t *testing.T, reg *Registry) *Lease {
	t.Helper()
	lease, err := reg.Acquire("", "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lease.Release)
	return lease
}

func TestServeGroupByCachesAndInvalidatesOnUpdate(t *testing.T) {
	reg, h := cachedSalesRegistry(t)
	lease := acquire(t, reg)
	if !lease.Cached() {
		t.Fatal("lease should carry the result cache")
	}

	g1, _, hit, err := servedGroups(lease.ServeGroupBy(false, "product"))
	if err != nil || hit == nil || *hit {
		t.Fatalf("cold read: hit=%v err=%v", hit, err)
	}
	g2, _, hit, err := servedGroups(lease.ServeGroupBy(false, "product"))
	if err != nil || hit == nil || !*hit {
		t.Fatalf("warm read: hit=%v err=%v", hit, err)
	}
	if g2["ale"] != g1["ale"] || g2["ale"] != 17 {
		t.Fatalf("groups %v / %v", g1, g2)
	}
	if n := h.groupBys.Load(); n != 1 {
		t.Fatalf("underlying GroupBy ran %d times, want 1", n)
	}

	// An update bumps the engine's plan-cache epoch; the next read must
	// observe it via SyncUpstream, miss, and see the new value.
	if err := lease.Handle.UpdateValue(3, map[string]string{"product": "ale", "region": "east", "day": "d1"}); err != nil {
		t.Fatal(err)
	}
	g3, _, hit, err := servedGroups(lease.ServeGroupBy(false, "product"))
	if err != nil || *hit {
		t.Fatalf("post-update read: hit=%v err=%v", *hit, err)
	}
	if g3["ale"] != 20 {
		t.Fatalf("post-update ale = %v, want 20", g3["ale"])
	}
	if st := lease.ResultCacheStats(); st.Invalidations == 0 {
		t.Fatalf("update did not invalidate: %+v", st)
	}
}

func TestServeRangeAndQueryCached(t *testing.T) {
	reg, h := cachedSalesRegistry(t)
	lease := acquire(t, reg)

	ranges := map[string]viewcube.ValueRange{"day": {Lo: "d1", Hi: "d2"}}
	s1, _, _, err := lease.ServeRangeSum(false, ranges)
	if err != nil {
		t.Fatal(err)
	}
	s2, _, hit, err := lease.ServeRangeSum(false, ranges)
	if err != nil || !*hit || s2 != s1 {
		t.Fatalf("range warm: sum=%v/%v hit=%v err=%v", s1, s2, *hit, err)
	}
	if n := h.ranges.Load(); n != 1 {
		t.Fatalf("underlying RangeSum ran %d times, want 1", n)
	}

	const sql = "SELECT SUM(sales) GROUP BY product"
	a1, _, _, err := lease.ServeQuery(false, sql)
	if err != nil {
		t.Fatal(err)
	}
	a2, _, hit, err := lease.ServeQuery(false, sql)
	if err != nil || !*hit {
		t.Fatalf("query warm: hit=%v err=%v", *hit, err)
	}
	if r1, r2 := &a1.Body[0], &a2.Body[0]; r2 != r1 {
		t.Fatal("warm query should return the cached result pointer")
	}
	if n := h.queries.Load(); n != 1 {
		t.Fatalf("underlying Query ran %d times, want 1", n)
	}
}

// TestServeSingleflightExactlyOnce: an identical-query storm executes the
// underlying query exactly once — racers either coalesce onto the one
// in-flight computation or hit the stored entry.
func TestServeSingleflightExactlyOnce(t *testing.T) {
	reg, h := cachedSalesRegistry(t)
	const racers = 24
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lease, err := reg.Acquire("", "")
			if err != nil {
				t.Error(err)
				return
			}
			defer lease.Release()
			<-start
			g, _, _, err := servedGroups(lease.ServeGroupBy(false, "product"))
			if err != nil {
				t.Error(err)
				return
			}
			if g["ale"] != 17 {
				t.Errorf("ale = %v, want 17", g["ale"])
			}
		}()
	}
	close(start)
	wg.Wait()
	if n := h.groupBys.Load(); n != 1 {
		t.Fatalf("underlying GroupBy ran %d times under %d identical queries, want exactly 1", n, racers)
	}
}

// TestServeCacheSerialOracle interleaves updates with reads serially: after
// every write, the cached answer must be bit-identical to a direct
// (uncached) handle read.
func TestServeCacheSerialOracle(t *testing.T) {
	reg, _ := cachedSalesRegistry(t)
	lease := acquire(t, reg)
	for i := 0; i < 10; i++ {
		if err := lease.Handle.UpdateValue(float64(i+1), map[string]string{"product": "bock", "region": "west", "day": "d2"}); err != nil {
			t.Fatal(err)
		}
		cached, _, _, err := servedGroups(lease.ServeGroupBy(false, "product", "region"))
		if err != nil {
			t.Fatal(err)
		}
		direct, _, err := groupsOf(lease.Handle.GroupBy(false, "product", "region"))
		if err != nil {
			t.Fatal(err)
		}
		if len(cached) != len(direct) {
			t.Fatalf("iter %d: %d cached groups vs %d direct", i, len(cached), len(direct))
		}
		for k, v := range direct {
			if cached[k] != v {
				t.Fatalf("iter %d: group %q cached %v direct %v", i, k, cached[k], v)
			}
		}
		// The read after the oracle check must be a pure hit.
		if _, _, hit, _ := lease.ServeGroupBy(false, "product", "region"); !*hit {
			t.Fatalf("iter %d: repeat read missed", i)
		}
	}
}

// TestServeCacheConcurrentUpdateStorm races cached readers of every kind
// against an update writer under -race, then quiesces and proves the cached
// answers converged bit-identically onto the direct ones.
func TestServeCacheConcurrentUpdateStorm(t *testing.T) {
	reg, _ := cachedSalesRegistry(t)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer: paired updates keep the long-run answer stable
		defer wg.Done()
		defer close(stop)
		lease, err := reg.Acquire("", "")
		if err != nil {
			t.Error(err)
			return
		}
		defer lease.Release()
		cell := map[string]string{"product": "ale", "region": "east", "day": "d1"}
		for i := 0; i < 60; i++ {
			if err := lease.Handle.UpdateValue(5, cell); err != nil {
				t.Error(err)
				return
			}
			if err := lease.Handle.UpdateValue(-5, cell); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			lease, err := reg.Acquire("", "")
			if err != nil {
				t.Error(err)
				return
			}
			defer lease.Release()
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch g % 3 {
				case 0:
					if _, _, _, err := lease.ServeGroupBy(false, "product"); err != nil {
						t.Error(err)
						return
					}
				case 1:
					if _, _, _, err := lease.ServeRangeSum(false, map[string]viewcube.ValueRange{"day": {Lo: "d1", Hi: "d3"}}); err != nil {
						t.Error(err)
						return
					}
				case 2:
					if _, _, _, err := lease.ServeQuery(false, "SELECT SUM(sales) GROUP BY region"); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()

	// Quiesced: cached reads must now equal direct reads exactly.
	lease := acquire(t, reg)
	cached, _, _, err := servedGroups(lease.ServeGroupBy(false, "product"))
	if err != nil {
		t.Fatal(err)
	}
	direct, _, err := groupsOf(lease.Handle.GroupBy(false, "product"))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range direct {
		if cached[k] != v {
			t.Fatalf("group %q: cached %v direct %v", k, cached[k], v)
		}
	}
	sum, _, _, err := lease.ServeRangeSum(false, map[string]viewcube.ValueRange{"day": {Lo: "d1", Hi: "d3"}})
	if err != nil {
		t.Fatal(err)
	}
	dsum, _, err := lease.Handle.RangeSum(false, map[string]viewcube.ValueRange{"day": {Lo: "d1", Hi: "d3"}})
	if err != nil {
		t.Fatal(err)
	}
	if sum != dsum {
		t.Fatalf("range: cached %v direct %v", sum, dsum)
	}
}

// TestServeTraceZeroOpOnHit: a traced hit reports a one-span, zero-op tree
// labelled result_cache=hit; a computing miss keeps its real execution tree
// labelled result_cache=miss.
func TestServeTraceZeroOpOnHit(t *testing.T) {
	reg, _ := cachedSalesRegistry(t)
	lease := acquire(t, reg)

	_, trMiss, hit, err := lease.ServeGroupBy(true, "product")
	if err != nil || *hit {
		t.Fatalf("cold traced read: hit=%v err=%v", *hit, err)
	}
	if trMiss.Ops() <= 0 {
		t.Fatalf("miss trace has no ops: %s", trMiss)
	}
	if got := trMiss.Tree().Labels["result_cache"]; got != "miss" {
		t.Fatalf("miss trace label = %q, want miss", got)
	}

	_, trHit, hit, err := lease.ServeGroupBy(true, "product")
	if err != nil || !*hit {
		t.Fatalf("warm traced read: hit=%v err=%v", *hit, err)
	}
	if trHit.Ops() != 0 || trHit.CellsRead() != 0 {
		t.Fatalf("hit trace cost ops=%d cells=%d, want zero", trHit.Ops(), trHit.CellsRead())
	}
	if got := trHit.Tree().Labels["result_cache"]; got != "hit" {
		t.Fatalf("hit trace label = %q, want hit", got)
	}
	if !strings.HasPrefix(trHit.Tree().Name, "groupby") {
		t.Fatalf("hit trace name %q", trHit.Tree().Name)
	}
}

// TestLifecycleInvalidatesResultCache: rebuild and explicit invalidation
// both drop cached answers.
func TestLifecycleInvalidatesResultCache(t *testing.T) {
	reg, h := cachedSalesRegistry(t)
	lease := acquire(t, reg)
	if _, _, _, err := lease.ServeGroupBy(false, "product"); err != nil {
		t.Fatal(err)
	}
	lease.Release()

	if err := reg.Rebuild("sales"); err != nil {
		t.Fatal(err)
	}
	lease2 := acquire(t, reg)
	if _, _, hit, err := lease2.ServeGroupBy(false, "product"); err != nil || *hit {
		t.Fatalf("post-rebuild read: hit=%v err=%v", *hit, err)
	}
	if n := h.groupBys.Load(); n != 2 {
		t.Fatalf("underlying GroupBy ran %d times, want 2 (rebuild invalidated)", n)
	}

	if err := reg.InvalidateResults(""); err != nil {
		t.Fatal(err)
	}
	if _, _, hit, err := lease2.ServeGroupBy(false, "product"); err != nil || *hit {
		t.Fatalf("post-InvalidateResults read: hit=%v err=%v", *hit, err)
	}
	if err := reg.InvalidateResults("nope"); err == nil {
		t.Fatal("unknown cube must error")
	}
}

// TestUncachedLeaseServesDirect: without EnableResultCache the Serve*
// methods are a transparent pass-through reporting no cache participation.
func TestUncachedLeaseServesDirect(t *testing.T) {
	reg := salesRegistry(t)
	lease := acquire(t, reg)
	if lease.Cached() {
		t.Fatal("no cache was enabled")
	}
	g, tr, hit, err := servedGroups(lease.ServeGroupBy(false, "product"))
	if err != nil || hit != nil || tr != nil {
		t.Fatalf("uncached read: hit=%v tr=%v err=%v", hit, tr, err)
	}
	if g["ale"] != 17 {
		t.Fatalf("groups %v", g)
	}
	if st := lease.ResultCacheStats(); st != (rescache.Stats{}) {
		t.Fatalf("uncached stats = %+v", st)
	}
}

// TestPartitionedUpdateInvalidatesCachedAnswer: the shards of a partitioned
// table served as catalog entries each sync their answer cache against
// their own handle's data version. An update to a lagging shard, whose
// version is below its sibling's, must invalidate that shard's cached
// answers; a registry-wide max version would hide it and serve the old
// total as a hit. The sibling's cached answers stay valid.
func TestPartitionedUpdateInvalidatesCachedAnswer(t *testing.T) {
	tbl, err := viewcube.ReadTable(strings.NewReader(salesCSV), "sales")
	if err != nil {
		t.Fatal(err)
	}
	tables, err := viewcube.PartitionTable(tbl, "product", 2)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	var engines []*viewcube.Engine
	var names []string
	for i, st := range tables {
		if st.Len() == 0 {
			continue
		}
		cube, err := viewcube.FromRelation(st)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := cube.NewEngine(viewcube.EngineOptions{})
		if err != nil {
			t.Fatal(err)
		}
		name := "shard" + string(rune('0'+i))
		if err := reg.RegisterHandle(name, NewSafeHandle(cube, eng)); err != nil {
			t.Fatal(err)
		}
		engines = append(engines, eng)
		names = append(names, name)
	}
	if len(engines) != 2 {
		t.Fatalf("fixture hashes into %d live shards, want 2", len(engines))
	}
	reg.EnableResultCache(rescache.Options{})
	leases := make([]*Lease, len(names))
	for i, name := range names {
		lease, err := reg.Acquire(name, "")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(lease.Release)
		leases[i] = lease
	}
	total := func(shard int, wantHit bool) float64 {
		t.Helper()
		groups, _, hit, err := servedGroups(leases[shard].ServeGroupBy(false))
		if err != nil || hit == nil {
			t.Fatalf("shard %d ServeGroupBy: hit=%v err=%v", shard, hit, err)
		}
		if *hit != wantHit {
			t.Fatalf("shard %d ServeGroupBy: hit=%v, want %v (total %g)", shard, *hit, wantHit, groups[""])
		}
		return groups[""]
	}

	// Shard 0 runs ahead: two updates that cancel out.
	for _, delta := range []float64{1, -1} {
		if err := engines[0].Update(delta, 0, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	before := []float64{total(0, false), total(1, false)}
	for shard, want := range before {
		if got := total(shard, true); got != want {
			t.Fatalf("shard %d: warm total %g, cold total %g", shard, got, want)
		}
	}
	if v0, v1 := engines[0].DataVersion(), engines[1].DataVersion(); v1 >= v0 {
		t.Fatalf("shard 1 should lag: versions %d, %d", v0, v1)
	}
	if err := engines[1].Update(100, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if got := total(1, false); got != before[1]+100 {
		t.Fatalf("total after updating shard 1 = %g, want %g", got, before[1]+100)
	}
	if got := total(0, true); got != before[0] {
		t.Fatalf("shard 0 total after updating shard 1 = %g, want %g", got, before[0])
	}
}

// TestCacheHitIgnoresEngineWriteLock: a result-cache hit reads the handle's
// data version with no engine lock, so it completes while a writer holds (or
// waits for) the engine's write lock — a merge, a reconfiguration. The lock
// is contended from outside: SaveState holds the read lock on a writer that
// never returns, an Update queues for the write lock behind it, and from then
// on every new read-lock acquisition blocks.
func TestCacheHitIgnoresEngineWriteLock(t *testing.T) {
	cube, err := viewcube.Load(strings.NewReader(salesCSV), "sales")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := cube.NewEngine(viewcube.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	safe := eng
	reg := NewRegistry()
	if err := reg.RegisterHandle("sales", NewSafeHandle(cube, safe)); err != nil {
		t.Fatal(err)
	}
	reg.EnableResultCache(rescache.Options{})
	lease := acquire(t, reg)
	want, _, _, err := servedGroups(lease.ServeGroupBy(false, "product"))
	if err != nil {
		t.Fatal(err)
	}

	w := blockingWriter{entered: make(chan struct{}), release: make(chan struct{})}
	var held sync.WaitGroup
	held.Add(2)
	go func() {
		defer held.Done()
		safe.SaveState(w)
	}()
	<-w.entered // the read lock is held
	go func() {
		defer held.Done()
		if err := safe.Update(1, 0, 0, 0); err != nil {
			t.Errorf("queued update: %v", err)
		}
	}()
	defer held.Wait()
	defer close(w.release)
	// Wait until the writer is queued: a read-locking call stops returning.
	for blocked := false; !blocked; {
		probe := make(chan struct{})
		go func() {
			safe.Stats()
			close(probe)
		}()
		select {
		case <-probe:
		case <-time.After(50 * time.Millisecond):
			blocked = true
		}
	}

	done := make(chan struct{})
	var (
		got map[string]float64
		hit *bool
	)
	go func() {
		defer close(done)
		got, _, hit, err = servedGroups(lease.ServeGroupBy(false, "product"))
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("result-cache hit blocked on the engine's write lock")
	}
	if err != nil || hit == nil || !*hit || got["ale"] != want["ale"] {
		t.Fatalf("read under contended lock: hit=%v err=%v groups=%v, want a hit of %v", hit, err, got, want)
	}
}

// blockingWriter announces its first Write on entered, then blocks every
// Write until release closes.
type blockingWriter struct{ entered, release chan struct{} }

func (w blockingWriter) Write(p []byte) (int, error) {
	select {
	case <-w.entered:
	default:
		close(w.entered)
	}
	<-w.release
	return len(p), nil
}
