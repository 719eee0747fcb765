package rescache

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"viewcube/internal/freq"
	"viewcube/internal/obs"
)

func TestHitMissBasics(t *testing.T) {
	c := New[string, int](Options{})
	calls := 0
	compute := func() (int, error) { calls++; return 42, nil }

	v, hit, err := c.GetOrCompute("k", compute)
	if err != nil || hit || v != 42 {
		t.Fatalf("first lookup: got v=%d hit=%v err=%v, want miss 42", v, hit, err)
	}
	v, hit, err = c.GetOrCompute("k", compute)
	if err != nil || !hit || v != 42 {
		t.Fatalf("second lookup: got v=%d hit=%v err=%v, want hit 42", v, hit, err)
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 entry", st)
	}
}

func TestErrorsPropagateAndNothingCached(t *testing.T) {
	c := New[string, int](Options{})
	boom := errors.New("boom")
	if _, hit, err := c.GetOrCompute("k", func() (int, error) { return 0, boom }); !errors.Is(err, boom) || hit {
		t.Fatalf("got hit=%v err=%v, want miss with boom", hit, err)
	}
	if n := c.Stats().Entries; n != 0 {
		t.Fatalf("error result was cached: %d entries", n)
	}
	// The key is still computable after the failure.
	if v, _, err := c.GetOrCompute("k", func() (int, error) { return 7, nil }); err != nil || v != 7 {
		t.Fatalf("retry after error: v=%d err=%v", v, err)
	}
}

func TestLRUEvictionByEntries(t *testing.T) {
	c := New[string, int](Options{MaxEntries: 3, MaxBytes: -1})
	for i := 0; i < 3; i++ {
		c.GetOrCompute(fmt.Sprintf("k%d", i), func() (int, error) { return i, nil })
	}
	// Touch k0 so k1 is the coldest, then insert a fourth entry.
	if _, hit, _ := c.GetOrCompute("k0", nil); !hit {
		t.Fatal("k0 should be cached")
	}
	c.GetOrCompute("k3", func() (int, error) { return 3, nil })
	if n := c.Stats().Entries; n != 3 {
		t.Fatalf("len = %d, want 3", n)
	}
	if _, hit, _ := c.GetOrCompute("k1", func() (int, error) { return -1, nil }); hit {
		t.Fatal("k1 should have been evicted as the LRU entry")
	}
	if _, hit, _ := c.GetOrCompute("k0", nil); !hit {
		t.Fatal("recently used k0 should have survived eviction")
	}
	if st := c.Stats(); st.Evictions == 0 {
		t.Fatalf("stats = %+v, want evictions > 0", st)
	}
}

func TestLRUEvictionByBytes(t *testing.T) {
	c := New[string, string](Options{MaxEntries: -1, MaxBytes: 10, Size: func(v any) int { return len(v.(string)) }})
	c.GetOrCompute("a", func() (string, error) { return "xxxx", nil }) // 4 bytes
	c.GetOrCompute("b", func() (string, error) { return "yyyy", nil }) // 8 bytes total
	c.GetOrCompute("c", func() (string, error) { return "zzzz", nil }) // would be 12: evict "a"
	if n := c.Stats().Bytes; n > 10 {
		t.Fatalf("bytes = %d, exceeds bound 10", n)
	}
	if _, hit, _ := c.GetOrCompute("a", func() (string, error) { return "", nil }); hit {
		t.Fatal("coldest entry should have been evicted to fit the byte bound")
	}
	if _, hit, _ := c.GetOrCompute("c", nil); !hit {
		t.Fatal("newest entry should be cached")
	}
}

func TestUncacheableAndOversizedValues(t *testing.T) {
	c := New[string, string](Options{MaxBytes: 10, Size: func(v any) int {
		s := v.(string)
		if s == "partial" {
			return -1 // degraded answer: serve, never store
		}
		return len(s)
	}})
	v, hit, err := c.GetOrCompute("p", func() (string, error) { return "partial", nil })
	if err != nil || hit || v != "partial" {
		t.Fatalf("got v=%q hit=%v err=%v", v, hit, err)
	}
	if _, hit, _ := c.GetOrCompute("p", func() (string, error) { return "partial", nil }); hit {
		t.Fatal("negative-size value must not be stored")
	}
	// A value larger than the whole byte budget is returned but not stored.
	c.GetOrCompute("big", func() (string, error) { return "0123456789ab", nil })
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("oversized value stored: %+v", st)
	}
}

func TestInvalidateDropsEntriesAndBumpsEpoch(t *testing.T) {
	c := New[string, int](Options{})
	c.GetOrCompute("k", func() (int, error) { return 1, nil })
	if n := c.Invalidate(); n != 1 {
		t.Fatalf("epoch after invalidate = %d, want 1", n)
	}
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("invalidate left %+v", st)
	}
	if _, hit, _ := c.GetOrCompute("k", func() (int, error) { return 2, nil }); hit {
		t.Fatal("post-invalidation lookup must miss")
	}
	if st := c.Stats(); st.Invalidations != 1 || st.Epoch != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSyncUpstreamInvalidatesOnAnyChange(t *testing.T) {
	c := New[string, int](Options{})
	c.SyncUpstream(5)
	before := c.Stats().Invalidations
	c.GetOrCompute("k", func() (int, error) { return 1, nil })
	c.SyncUpstream(5) // unchanged: no-op
	if _, hit, _ := c.GetOrCompute("k", nil); !hit {
		t.Fatal("unchanged upstream epoch must not invalidate")
	}
	c.SyncUpstream(6) // moved forward
	if _, hit, _ := c.GetOrCompute("k", func() (int, error) { return 2, nil }); hit {
		t.Fatal("upstream change must invalidate")
	}
	// A rebuild can replace the engine and reset its epoch to a LOWER value;
	// "differs" (not "greater") must still invalidate.
	c.SyncUpstream(0)
	if _, hit, _ := c.GetOrCompute("k", func() (int, error) { return 3, nil }); hit {
		t.Fatal("upstream reset to a lower epoch must invalidate")
	}
	if got := c.Stats().Invalidations - before; got != 2 {
		t.Fatalf("invalidations = %d, want 2", got)
	}
}

// TestStaleComputationNeverServed pins the core epoch-monotonicity
// guarantee: a computation that began before an invalidation finishes and
// reaches its caller, but is neither stored nor served.
func TestStaleComputationNeverServed(t *testing.T) {
	c := New[string, int](Options{})
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.GetOrCompute("k", func() (int, error) {
			close(started)
			<-release
			return 111, nil // stale answer computed at epoch 0
		})
	}()
	<-started
	c.Invalidate() // epoch 0 → 1 while the flight is still computing
	close(release)
	<-done
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("stale computation was stored: %+v", st)
	}
	v, hit, err := c.GetOrCompute("k", func() (int, error) { return 222, nil })
	if err != nil || hit || v != 222 {
		t.Fatalf("got v=%d hit=%v err=%v; stale 111 must not be served", v, hit, err)
	}
}

// TestPostInvalidationNeverJoinsStaleFlight pins the flight-key guarantee:
// a caller that observes the post-invalidation epoch computes fresh instead
// of coalescing onto a flight started before the invalidation.
func TestPostInvalidationNeverJoinsStaleFlight(t *testing.T) {
	c := New[string, int](Options{})
	started := make(chan struct{})
	release := make(chan struct{})
	staleDone := make(chan struct{})
	go func() {
		defer close(staleDone)
		c.GetOrCompute("k", func() (int, error) {
			close(started)
			<-release
			return 111, nil
		})
	}()
	<-started
	c.Invalidate()
	// The stale flight is still blocked in compute; a new caller at the new
	// epoch must not wait on it. If it (wrongly) joined, this would deadlock
	// until `release` closes and return 111.
	v, hit, err := c.GetOrCompute("k", func() (int, error) { return 222, nil })
	if err != nil || hit || v != 222 {
		t.Fatalf("got v=%d hit=%v err=%v; caller joined a stale flight", v, hit, err)
	}
	close(release)
	<-staleDone
}

// TestSingleflightExactlyOnce proves N identical concurrent queries execute
// the underlying computation exactly once: every racer either coalesces
// onto the one flight or hits the stored entry.
func TestSingleflightExactlyOnce(t *testing.T) {
	c := New[string, int](Options{})
	var calls atomic.Int64
	entered := make(chan struct{})
	release := make(chan struct{})
	compute := func() (int, error) {
		calls.Add(1)
		close(entered)
		<-release
		return 7, nil
	}
	const racers = 32
	var wg sync.WaitGroup
	results := make([]int, racers)
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := c.GetOrCompute("k", compute)
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}(i)
	}
	<-entered // the one chosen computation is in flight; let racers pile on
	close(release)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("compute ran %d times under %d identical concurrent queries, want exactly 1", n, racers)
	}
	for i, v := range results {
		if v != 7 {
			t.Fatalf("racer %d got %d, want 7", i, v)
		}
	}
}

// TestCacheSingleflightConcurrent opens the one computation only after every
// racer has counted its miss: a racer whose lookup missed while the flight
// was finishing must find the stored value rather than compute a second
// time. Every racer but the computing one returns hit (its work was
// skipped), and each counts as a miss in the metered stats. Run under -race.
func TestCacheSingleflightConcurrent(t *testing.T) {
	c := New[string, int](Options{MaxEntries: -1, MaxBytes: -1})
	c.SetMetrics(obs.NewCacheMetrics(obs.NewRegistry(), obs.PlanCachePrefix))
	gate := make(chan struct{})
	var computes, coalesced atomic.Int64
	const goroutines = 16
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, hit, err := c.GetOrCompute("k", func() (int, error) {
				<-gate // hold every racer in the miss window
				computes.Add(1)
				return 42, nil
			})
			if err != nil || v != 42 {
				t.Errorf("v=%d err=%v, want 42", v, err)
			}
			if hit {
				coalesced.Add(1)
			}
		}()
	}
	for c.Stats().Misses < goroutines {
		runtime.Gosched()
	}
	close(gate)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	if n := coalesced.Load(); n != goroutines-1 {
		t.Fatalf("%d callers reported a hit, want %d", n, goroutines-1)
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != goroutines || st.Entries != 1 {
		t.Fatalf("stats = %+v, want %d misses, no hits, one entry", st, goroutines)
	}
}

// TestPinnedEpochNeitherServesNorInserts pins GetOrComputeAt: a caller still
// at epoch e after an invalidation computes its own value, is never served
// the e+1 entry, and stores nothing that e+1 callers could see.
func TestPinnedEpochNeitherServesNorInserts(t *testing.T) {
	c := New[string, int](Options{MaxEntries: -1, MaxBytes: -1})
	pinned := c.Epoch()
	c.Invalidate()
	old := func() (int, error) { return 1, nil }
	for i := 0; i < 2; i++ {
		if v, hit, err := c.GetOrComputeAt(pinned, "k", old); err != nil || hit || v != 1 {
			t.Fatalf("pinned lookup %d: v=%d hit=%v err=%v, want an uncached 1", i, v, hit, err)
		}
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("pinned caller inserted under the new epoch: %+v", st)
	}
	c.GetOrCompute("k", func() (int, error) { return 2, nil })
	if v, hit, _ := c.GetOrComputeAt(pinned, "k", old); hit || v != 1 {
		t.Fatalf("pinned caller served the new epoch's entry: v=%d hit=%v", v, hit)
	}
	if v, hit, _ := c.GetOrCompute("k", nil); !hit || v != 2 {
		t.Fatalf("current entry: v=%d hit=%v, want hit 2", v, hit)
	}
}

// TestStructKeyWidthsNeverCollide caches one element under a composite
// {element, measure layout} struct key for two widths: two entries, each
// serving its own value.
func TestStructKeyWidthsNeverCollide(t *testing.T) {
	type planKey struct {
		elem    freq.Key
		measure uint32
	}
	c := New[planKey, string](Options{MaxEntries: -1, MaxBytes: -1})
	elem := freq.Rect{2, 1}.Key()
	for _, w := range []uint32{0, 3} {
		c.GetOrCompute(planKey{elem, w}, func() (string, error) { return fmt.Sprint("width ", w), nil })
	}
	for _, w := range []uint32{0, 3} {
		if v, hit, _ := c.GetOrCompute(planKey{elem, w}, nil); !hit || v != fmt.Sprint("width ", w) {
			t.Fatalf("measure %d: v=%q hit=%v", w, v, hit)
		}
	}
	if st := c.Stats(); st.Entries != 2 {
		t.Fatalf("stats = %+v, want 2 entries", st)
	}
}

// TestConcurrentInvalidationStorm races lookups against invalidations under
// -race and asserts the monotonicity invariant end to end: a hit never
// serves a value computed before the epoch the caller observed. Values are
// stamped with the epoch they were computed at; any hit must carry the
// caller's pre-lookup epoch or later.
func TestConcurrentInvalidationStorm(t *testing.T) {
	c := New[string, uint64](Options{})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // invalidator
		defer wg.Done()
		for i := 0; i < 200; i++ {
			c.Invalidate()
		}
		close(stop)
	}()
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := fmt.Sprintf("k%d", g%4)
			for {
				select {
				case <-stop:
					return
				default:
				}
				before := c.Epoch()
				v, hit, err := c.GetOrCompute(key, func() (uint64, error) {
					return c.Epoch(), nil // stamp: epoch observed during compute
				})
				if err != nil {
					t.Error(err)
					return
				}
				if hit && v < before {
					t.Errorf("hit served a value stamped at epoch %d, but caller observed epoch %d before lookup", v, before)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestNilCacheIsAlwaysMiss(t *testing.T) {
	var c *Cache[string, int]
	v, hit, err := c.GetOrCompute("k", func() (int, error) { return 9, nil })
	if err != nil || hit || v != 9 {
		t.Fatalf("nil cache: v=%d hit=%v err=%v", v, hit, err)
	}
	c.SetMetrics(nil)
	c.SyncUpstream(3)
	if c.Invalidate() != 0 || c.Epoch() != 0 {
		t.Fatal("nil cache accessors must return zero values")
	}
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("nil cache stats = %+v", st)
	}
}

func TestMetricsWiring(t *testing.T) {
	reg := obs.NewRegistry()
	c := New[string, int](Options{MaxEntries: 1})
	m := obs.NewCacheMetrics(reg, obs.ResultCachePrefix)
	c.SetMetrics(m)
	c.GetOrCompute("a", func() (int, error) { return 1, nil })
	c.GetOrCompute("a", nil)
	c.GetOrCompute("b", func() (int, error) { return 2, nil }) // evicts a
	if m.Entries.Value() != 1 || m.Bytes.Value() != 1 {
		t.Fatalf("gauges entries=%d bytes=%d, want 1/1", m.Entries.Value(), m.Bytes.Value())
	}
	c.Invalidate()
	if m.Entries.Value() != 0 || m.Bytes.Value() != 0 {
		t.Fatalf("post-invalidate gauges entries=%d bytes=%d", m.Entries.Value(), m.Bytes.Value())
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Evictions != 1 || st.Invalidations != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("post-invalidate sizes = %+v", st)
	}
}
