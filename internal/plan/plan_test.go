package plan

import (
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"

	"viewcube/internal/assembly"
	"viewcube/internal/freq"
	"viewcube/internal/ndarray"
	"viewcube/internal/velement"
)

// sourceFunc adapts a function to PlanSource, so the plan-cache tests
// control what each compile returns and when it finishes.
type sourceFunc func(r freq.Rect) (*assembly.Plan, error)

func (f sourceFunc) ComputePlan(r freq.Rect) (*assembly.Plan, error) { return f(r) }

// opsSource compiles a hand-built plan whose Ops is the running compile
// count, so a test can tell a cached plan from a recompiled one.
func opsSource(computes *int) sourceFunc {
	return func(r freq.Rect) (*assembly.Plan, error) {
		*computes++
		return &assembly.Plan{Rect: r, Ops: *computes}, nil
	}
}

func TestCacheHitMissInvalidate(t *testing.T) {
	computes := 0
	p := NewPlanner(opsSource(&computes))
	r := freq.Rect{1, 2}
	get := func() (int, bool) {
		ph, err := p.Element(nil, r)
		if err != nil {
			t.Fatal(err)
		}
		return ph.Cost, ph.CacheHit
	}
	if v, hit := get(); hit || v != 1 {
		t.Fatalf("first lookup: v=%d hit=%v, want miss v=1", v, hit)
	}
	if v, hit := get(); !hit || v != 1 {
		t.Fatalf("second lookup: v=%d hit=%v, want hit v=1", v, hit)
	}
	if epoch := p.Invalidate(); epoch != 1 {
		t.Fatalf("epoch after invalidate %d, want 1", epoch)
	}
	if v, hit := get(); hit || v != 2 {
		t.Fatalf("post-invalidate lookup: v=%d hit=%v, want recompute v=2", v, hit)
	}
	s := p.Stats()
	if s.Hits != 1 || s.Misses != 2 || s.Invalidations != 1 || s.Epoch != 1 || s.Entries != 1 {
		t.Fatalf("stats %+v", s)
	}
}

// TestCacheEntryStoredDuringInvalidationIsStale races an invalidation into
// the middle of a compile: the plan was compiled against the old
// materialised set, so the next lookup must recompile rather than serve it.
func TestCacheEntryStoredDuringInvalidationIsStale(t *testing.T) {
	var p *Planner
	ops := 10
	p = NewPlanner(sourceFunc(func(r freq.Rect) (*assembly.Plan, error) {
		if ops == 10 {
			p.Invalidate() // the materialised set changed under us
		}
		pl := &assembly.Plan{Rect: r, Ops: ops}
		ops = 20
		return pl, nil
	}))
	r := freq.Rect{4}
	if _, err := p.Element(nil, r); err != nil {
		t.Fatal(err)
	}
	ph, err := p.Element(nil, r)
	if err != nil {
		t.Fatal(err)
	}
	if ph.CacheHit || ph.Cost != 20 {
		t.Fatalf("stale plan served: cost=%d hit=%v", ph.Cost, ph.CacheHit)
	}
}

func TestCacheErrorNotCachedAndRetried(t *testing.T) {
	boom := errors.New("boom")
	fail := true
	p := NewPlanner(sourceFunc(func(r freq.Rect) (*assembly.Plan, error) {
		if fail {
			return nil, boom
		}
		return &assembly.Plan{Rect: r, Ops: 7}, nil
	}))
	r := freq.Rect{2}
	if _, err := p.Element(nil, r); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	fail = false
	ph, err := p.Element(nil, r)
	if err != nil || ph.CacheHit || ph.Cost != 7 {
		t.Fatalf("retry after error: ph=%+v err=%v", ph, err)
	}
}

// TestCacheInvalidationSplitsFlights checks the epoch is part of the flight
// key: a caller arriving after an invalidation must not join a compile
// started before it.
func TestCacheInvalidationSplitsFlights(t *testing.T) {
	gate := make(chan struct{})
	oldStarted := make(chan struct{})
	var first atomic.Bool
	first.Store(true)
	p := NewPlanner(sourceFunc(func(r freq.Rect) (*assembly.Plan, error) {
		if first.CompareAndSwap(true, false) {
			close(oldStarted)
			<-gate
			return &assembly.Plan{Rect: r, Ops: 1}, nil
		}
		return &assembly.Plan{Rect: r, Ops: 2}, nil
	}))
	r := freq.Rect{16}
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.Element(nil, r)
	}()
	<-oldStarted
	p.Invalidate()
	// New-epoch caller: must run its own compile, not wait on the old one.
	ph, err := p.Element(nil, r)
	if err != nil || ph.CacheHit || ph.Cost != 2 {
		t.Fatalf("new-epoch lookup joined stale flight: ph=%+v err=%v", ph, err)
	}
	close(gate)
	<-done
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
	if ph1.Cost != fresh.Ops {
		t.Fatalf("cached planner cost %d, DP cost %d", ph1.Cost, fresh.Ops)
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

// TestPlannerHitAllocs pins the untraced plan-cache hit at one allocation.
// Building the "plan <rect>" span name before checking for a trace used to
// add a Sprintf per dimension (8 allocations on this 3-dimension cube), and
// the Physical's one-field logical plan and its cloned rectangle two more.
func TestPlannerHitAllocs(t *testing.T) {
	eng := newTestEngine(t)
	p := NewPlanner(eng)
	target := eng.Space().AggregatedViews()[1]
	if _, err := p.Element(nil, target); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(100, func() {
		if ph, err := p.Element(nil, target); err != nil || !ph.CacheHit {
			t.Fatalf("hit=%v err=%v", ph != nil && ph.CacheHit, err)
		}
	}); got > 1 {
		t.Fatalf("untraced plan-cache hit allocates %v times, want ≤ 1", got)
	}
}
