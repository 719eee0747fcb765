package plan

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"viewcube/internal/assembly"
	"viewcube/internal/freq"
	"viewcube/internal/ndarray"
	"viewcube/internal/obs"
	"viewcube/internal/velement"
)

// meteredCache returns a cache with live (registered) instruments: the
// default no-op set never moves, so tests asserting on Stats need this.
func meteredCache[V any]() *Cache[V] {
	c := NewCache[V]()
	c.SetMetrics(obs.NewPlanMetrics(obs.NewRegistry()))
	return c
}

func key(parts ...freq.Node) freq.Key {
	return freq.Rect(parts).Key()
}

func TestCacheHitMissInvalidate(t *testing.T) {
	c := meteredCache[int]()
	computes := 0
	get := func(k freq.Key) (int, bool) {
		v, hit, err := c.GetOrCompute(k, func() (int, error) {
			computes++
			return computes, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return v, hit
	}
	k := key(1, 2)
	if v, hit := get(k); hit || v != 1 {
		t.Fatalf("first lookup: v=%d hit=%v, want miss v=1", v, hit)
	}
	if v, hit := get(k); !hit || v != 1 {
		t.Fatalf("second lookup: v=%d hit=%v, want hit v=1", v, hit)
	}
	if epoch := c.Invalidate(); epoch != 1 {
		t.Fatalf("epoch after invalidate %d, want 1", epoch)
	}
	if v, hit := get(k); hit || v != 2 {
		t.Fatalf("post-invalidate lookup: v=%d hit=%v, want recompute v=2", v, hit)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 2 || s.Invalidations != 1 || s.Epoch != 1 {
		t.Fatalf("stats %+v", s)
	}
}

// TestCacheEntryStoredDuringInvalidationIsStale races an invalidation into
// the middle of a compute: the entry lands tagged with the compute-time
// epoch, so the next lookup must not serve it.
func TestCacheEntryStoredDuringInvalidationIsStale(t *testing.T) {
	c := NewCache[int]()
	k := key(4)
	if _, _, err := c.GetOrCompute(k, func() (int, error) {
		c.Invalidate() // the materialised set changed under us
		return 10, nil
	}); err != nil {
		t.Fatal(err)
	}
	v, hit, err := c.GetOrCompute(k, func() (int, error) { return 20, nil })
	if err != nil {
		t.Fatal(err)
	}
	if hit || v != 20 {
		t.Fatalf("stale entry served: v=%d hit=%v", v, hit)
	}
}

func TestCacheErrorNotCachedAndRetried(t *testing.T) {
	c := NewCache[int]()
	k := key(2)
	boom := errors.New("boom")
	if _, _, err := c.GetOrCompute(k, func() (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	v, hit, err := c.GetOrCompute(k, func() (int, error) { return 7, nil })
	if err != nil || hit || v != 7 {
		t.Fatalf("retry after error: v=%d hit=%v err=%v", v, hit, err)
	}
}

// TestCacheSingleflightConcurrent launches many racing misses for one key:
// exactly one caller computes, everyone shares the result, and the compute
// never runs twice. Run under -race.
func TestCacheSingleflightConcurrent(t *testing.T) {
	c := meteredCache[int]()
	k := key(8, 8)
	gate := make(chan struct{})
	var computes atomic.Int64
	const goroutines = 16
	var wg sync.WaitGroup
	var coalesced atomic.Int64
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, hit, err := c.GetOrCompute(k, func() (int, error) {
				<-gate // hold every racer in the miss window
				computes.Add(1)
				return 42, nil
			})
			if err != nil {
				errs <- err
				return
			}
			if v != 42 {
				errs <- fmt.Errorf("value %d, want 42", v)
				return
			}
			if hit {
				coalesced.Add(1)
			}
		}()
	}
	// Wait until every racer has bumped Misses (each does so before
	// blocking on the flight), then open the gate.
	for c.Stats().Misses < goroutines {
		runtime.Gosched()
	}
	close(gate)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	if coalesced.Load() != goroutines-1 {
		t.Fatalf("coalesced %d waiters, want %d", coalesced.Load(), goroutines-1)
	}
}

// TestCacheInvalidationSplitsFlights checks the epoch is part of the flight
// key: a caller arriving after an invalidation must not join a flight
// started before it.
func TestCacheInvalidationSplitsFlights(t *testing.T) {
	c := NewCache[int]()
	k := key(16)
	gate := make(chan struct{})
	oldStarted := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.GetOrCompute(k, func() (int, error) {
			close(oldStarted)
			<-gate
			return 1, nil
		})
	}()
	<-oldStarted
	c.Invalidate()
	// New-epoch caller: must run its own compute, not wait on the old one.
	v, hit, err := c.GetOrCompute(k, func() (int, error) { return 2, nil })
	if err != nil || hit || v != 2 {
		t.Fatalf("new-epoch lookup joined stale flight: v=%d hit=%v err=%v", v, hit, err)
	}
	close(gate)
	<-done
}

func TestDecomposeBoxLegs(t *testing.T) {
	legs := DecomposeBox([]int{1, 0}, []int{6, 8}, []bool{false, true})
	if len(legs) != 2 {
		t.Fatalf("legs %v", legs)
	}
	if legs[0].Keep || len(legs[0].Blocks) != len(DyadicBlocks(1, 6)) {
		t.Fatalf("filtered leg %+v", legs[0])
	}
	if !legs[1].Keep || len(legs[1].Blocks) != 1 {
		t.Fatalf("kept leg %+v", legs[1])
	}
	// Blocks must tile [1,7) exactly.
	covered := 0
	for _, b := range legs[0].Blocks {
		covered += b.Size()
	}
	if covered != 6 {
		t.Fatalf("blocks cover %d cells, want 6", covered)
	}
}

func TestLowerRangeCost(t *testing.T) {
	lg := GroupedRange([]int{1, 0}, []int{6, 8}, []bool{false, true})
	ph, err := lg.LowerRange()
	if err != nil {
		t.Fatal(err)
	}
	want := len(DyadicBlocks(1, 6)) // kept dims don't multiply the cost
	if ph.Cost != want {
		t.Fatalf("cost %d, want %d", ph.Cost, want)
	}
	if ph.Assembly != nil || len(ph.Legs) != 2 {
		t.Fatalf("physical %+v", ph)
	}
	if _, err := Element(freq.Rect{1}).LowerRange(); err == nil {
		t.Fatal("LowerRange on an element node must fail")
	}
}

func newTestEngine(t testing.TB) *assembly.Engine {
	// Built by hand rather than via internal/workload: that package reaches
	// rangeagg, which imports plan — a test-only cycle.
	s := velement.MustSpace(8, 8)
	rng := rand.New(rand.NewSource(1))
	cube := ndarray.New(8, 8)
	data := cube.Data()
	for i := range data {
		data[i] = float64(rng.Intn(100))
	}
	st, err := assembly.MaterializeSet(s, cube, velement.WaveletBasis(s))
	if err != nil {
		t.Fatal(err)
	}
	return assembly.NewEngine(s, st)
}

// TestPlannerElementParity checks the cached planner returns exactly the
// plan the uncached Procedure 3 DP builds, serves it from the cache on the
// second call, and recompiles after an invalidation.
func TestPlannerElementParity(t *testing.T) {
	eng := newTestEngine(t)
	p := NewPlanner(eng)
	target := eng.Space().AggregatedViews()[1]

	fresh, err := eng.ComputePlan(target)
	if err != nil {
		t.Fatal(err)
	}
	ph1, err := p.Element(nil, target)
	if err != nil {
		t.Fatal(err)
	}
	if ph1.CacheHit {
		t.Fatal("first plan claims a cache hit")
	}
	if ph1.Cost != assembly.PlanCost(fresh) {
		t.Fatalf("cached planner cost %d, DP cost %d", ph1.Cost, assembly.PlanCost(fresh))
	}
	ph2, err := p.Element(nil, target)
	if err != nil {
		t.Fatal(err)
	}
	if !ph2.CacheHit {
		t.Fatal("second plan missed the cache")
	}
	if ph2.Assembly != ph1.Assembly {
		t.Fatal("cache hit returned a different plan tree")
	}
	epoch := p.Invalidate()
	ph3, err := p.Element(nil, target)
	if err != nil {
		t.Fatal(err)
	}
	if ph3.CacheHit || ph3.Epoch != epoch {
		t.Fatalf("post-invalidate plan: hit=%v epoch=%d, want miss at epoch %d",
			ph3.CacheHit, ph3.Epoch, epoch)
	}
	if ph3.Cost != ph1.Cost {
		t.Fatalf("recompiled cost %d, want %d", ph3.Cost, ph1.Cost)
	}
}

// TestPlannerLowerDispatch checks Lower routes element nodes through the
// cache and range nodes through pure geometry.
func TestPlannerLowerDispatch(t *testing.T) {
	eng := newTestEngine(t)
	p := NewPlanner(eng)
	el := Element(eng.Space().AggregatedViews()[1])
	ph, err := p.Lower(nil, el)
	if err != nil {
		t.Fatal(err)
	}
	if ph.Assembly == nil || ph.Logical != el {
		t.Fatalf("element lowering %+v", ph)
	}
	rg := RangeSum([]int{1, 1}, []int{5, 5})
	ph, err = p.Lower(nil, rg)
	if err != nil {
		t.Fatal(err)
	}
	if ph.Assembly != nil || len(ph.Legs) != 2 || ph.Epoch != p.Epoch() {
		t.Fatalf("range lowering %+v", ph)
	}
}

// TestPlannerHitAllocs pins the untraced plan-cache hit at the Physical, its
// Logical and the compile closure. Building the "plan <rect>" span name
// before checking for a trace used to add a Sprintf per dimension (8
// allocations on this 3-dimension cube).
func TestPlannerHitAllocs(t *testing.T) {
	eng := newTestEngine(t)
	p := NewPlanner(eng)
	target := eng.Space().AggregatedViews()[1]
	if _, err := p.Element(nil, target); err != nil {
		t.Fatal(err)
	}
	for _, x := range []*obs.ExecCtx{nil, obs.Traced(nil)} {
		if got := testing.AllocsPerRun(100, func() {
			if ph, err := p.Element(x, target); err != nil || !ph.CacheHit {
				t.Fatalf("hit=%v err=%v", ph != nil && ph.CacheHit, err)
			}
		}); got > 3 {
			t.Fatalf("untraced plan-cache hit allocates %v times, want ≤ 3", got)
		}
	}
}
