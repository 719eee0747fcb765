package cluster_test

// Serving-tier hardening: the coordinator result cache, admission control
// and replica-balanced fan-out. The oracle discipline is the same as the
// rest of the package — merged answers must be bit-identical to the serial
// oracle, whatever the cache or the replica tier did.

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"viewcube/internal/cluster"
	"viewcube/internal/obs"
	"viewcube/internal/rescache"
)

// countingClient counts calls through to the inner transport.
type countingClient struct {
	inner cluster.ShardClient
	calls atomic.Int64
}

func (c *countingClient) Do(ctx context.Context, req *cluster.Request) (*cluster.Response, error) {
	c.calls.Add(1)
	return c.inner.Do(ctx, req)
}

func (c *countingClient) Close() error { return c.inner.Close() }

// gateClient blocks matching requests until release closes (or the context
// dies); other kinds pass straight through. Used to hold admission slots
// open mid-scatter without freezing the whole tier. arrived counts callers
// that reached the gate, so tests can wait for saturation.
type gateClient struct {
	inner   cluster.ShardClient
	block   cluster.Kind
	release chan struct{}
	arrived *atomic.Int32
}

func (g *gateClient) Do(ctx context.Context, req *cluster.Request) (*cluster.Response, error) {
	if req.Kind == g.block {
		if g.arrived != nil {
			g.arrived.Add(1)
		}
		select {
		case <-g.release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return g.inner.Do(ctx, req)
}

func (g *gateClient) Close() error { return g.inner.Close() }

func TestCoordinatorResultCacheHitsAndSingleflight(t *testing.T) {
	tables := shardTables(t, 1000, 3)
	engines := shardEngines(t, tables)
	oracle := newOracle(t, tables)
	want, err := oracle.GroupBy("product")
	if err != nil {
		t.Fatal(err)
	}

	counters := make([]*countingClient, len(engines))
	shards := make([]cluster.Shard, len(engines))
	for i, sh := range engines {
		counters[i] = &countingClient{inner: cluster.NewLoopback(sh)}
		shards[i] = cluster.Shard{Name: shardNames(len(engines))[i], Client: counters[i]}
	}
	qlog, err := obs.NewQueryLog(obs.QueryLogOptions{RingSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	coord, err := cluster.NewCoordinator(shards, cluster.Options{
		Timeout:  5 * time.Second,
		Retries:  -1,
		QueryLog: qlog,
		Cache:    &rescache.Options{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	// An identical-query storm executes the underlying scatter exactly once:
	// every racer either coalesces onto the single flight or hits the stored
	// entry.
	const racers = 24
	var wg sync.WaitGroup
	answers := make([]map[string]float64, racers)
	for r := 0; r < racers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			g, err := coord.GroupBy("product")
			if err != nil {
				t.Error(err)
				return
			}
			answers[r] = g
		}(r)
	}
	wg.Wait()
	for _, cc := range counters {
		if n := cc.calls.Load(); n != 1 {
			t.Fatalf("shard saw %d calls under an identical-query storm, want exactly 1", n)
		}
	}
	for _, g := range answers {
		sameGroupsExact(t, g, want)
	}

	// The query log separates the one miss from the hits, and hits carry no
	// shard legs (no shard was asked).
	var hits, misses int
	for _, e := range qlog.Recent(0) {
		if e.ResultCacheHit == nil {
			t.Fatalf("cache-wired entry without ResultCacheHit: %+v", e)
		}
		if *e.ResultCacheHit {
			hits++
			if len(e.Shards) != 0 {
				t.Fatalf("hit entry carries shard legs: %+v", e)
			}
		} else {
			misses++
			if len(e.Shards) != len(engines) {
				t.Fatalf("miss entry carries %d legs, want %d", len(e.Shards), len(engines))
			}
		}
	}
	if misses != 1 || hits < 1 {
		t.Fatalf("querylog: %d misses / %d hits, want exactly 1 miss and some hits", misses, hits)
	}

	// A post-storm repeat is a genuine stored-entry hit (the storm's racers
	// were coalesced flight waiters, which the counters class as misses).
	repeat, err := coord.GroupBy("product")
	if err != nil {
		t.Fatal(err)
	}
	sameGroupsExact(t, repeat, want)
	for _, cc := range counters {
		if n := cc.calls.Load(); n != 1 {
			t.Fatalf("warm repeat re-scattered: shard saw %d calls", n)
		}
	}
	st := coord.ResultCacheStats()
	if st.Entries != 1 || st.Hits < 1 {
		t.Fatalf("cache stats %+v", st)
	}

	// Invalidation drops the entry: the next query scatters again.
	before := counters[0].calls.Load()
	if epoch := coord.InvalidateResults(); epoch == 0 {
		t.Fatal("InvalidateResults returned epoch 0 on an enabled cache")
	}
	g, err := coord.GroupBy("product")
	if err != nil {
		t.Fatal(err)
	}
	sameGroupsExact(t, g, want)
	if counters[0].calls.Load() != before+1 {
		t.Fatal("post-invalidation query did not re-scatter")
	}

	// A write to any shard invalidates through the epoch piggyback, whose
	// epoch is the sum of the shards' data versions: shard 0 runs ahead
	// with two writes that cancel out, so a max would hide the later write
	// to shard 1 and keep serving the old total.
	for _, delta := range []float64{1, -1} {
		if err := engines[0].Engine().Update(delta, 0, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	total := func() float64 {
		t.Helper()
		v, _, _, err := coord.SumResult(context.Background(), false, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	total()
	old := total() // stored after shard 0's writes were seen
	if err := engines[1].Engine().Update(100, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := coord.GroupBy("region"); err != nil { // a scatter carries the new epochs
		t.Fatal(err)
	}
	if got := total(); got != old+100 {
		t.Fatalf("total after a write to shard 1 = %v, want %v", got, old+100)
	}
}

func TestCoordinatorCacheNeverStoresDegradedAnswers(t *testing.T) {
	tables := shardTables(t, 800, 3)
	engines := shardEngines(t, tables)
	flaky := &flakyClient{inner: cluster.NewLoopback(engines[0])}
	shards := loopbackShards(engines)
	shards[0].Client = flaky
	coord, err := cluster.NewCoordinator(shards, cluster.Options{
		Timeout: 200 * time.Millisecond,
		Retries: -1,
		Cache:   &rescache.Options{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	flaky.set(func(f *flakyClient) { f.failAll = true })
	got, part, _, err := asGroups(coord.GroupByResult(context.Background(), true, false, "region"))
	if err != nil {
		t.Fatal(err)
	}
	if part.Complete() {
		t.Fatal("expected a degraded answer with shard 0 down")
	}
	if coord.ResultCacheStats().Entries != 0 {
		t.Fatalf("degraded answer was cached: %+v", coord.ResultCacheStats())
	}

	// Shard 0 recovers; the same query must now see its contribution — a
	// cached degraded answer would hide the recovery.
	flaky.set(func(f *flakyClient) { f.failAll = false })
	oracle := newOracle(t, tables)
	want, err := oracle.GroupBy("region")
	if err != nil {
		t.Fatal(err)
	}
	healed, part, _, err := asGroups(coord.GroupByResult(context.Background(), true, false, "region"))
	if err != nil {
		t.Fatal(err)
	}
	if !part.Complete() {
		t.Fatalf("shard recovered but answer still partial: %+v", part)
	}
	sameGroupsExact(t, healed, want)
	for k, v := range got {
		if v > want[k] {
			t.Fatalf("degraded group %q=%v exceeds exact %v", k, v, want[k])
		}
	}

	// Exact mode must not coalesce onto a partial-mode flight: with shard 0
	// down again, partial succeeds degraded while exact fails.
	coord.InvalidateResults()
	flaky.set(func(f *flakyClient) { f.failAll = true })
	if _, _, _, err := coord.GroupByResult(context.Background(), true, false, "region"); err != nil {
		t.Fatal(err)
	}
	if _, err := coord.GroupBy("region"); err == nil {
		t.Fatal("exact-mode query succeeded with a shard down")
	}
}

func TestAdmissionControlShedsAndRecovers(t *testing.T) {
	engines := shardEngines(t, shardTables(t, 600, 2))
	release := make(chan struct{})
	arrived := &atomic.Int32{}
	shards := make([]cluster.Shard, len(engines))
	for i, sh := range engines {
		shards[i] = cluster.Shard{Name: shardNames(len(engines))[i], Client: &gateClient{
			inner:   cluster.NewLoopback(sh),
			block:   cluster.KindTotal,
			release: release,
			arrived: arrived,
		}}
	}
	const slots = 2
	coord, err := cluster.NewCoordinator(shards, cluster.Options{
		Timeout:      5 * time.Second,
		Retries:      -1,
		MaxInFlight:  slots,
		QueueTimeout: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	// Saturate: `slots` queries enter and block at the shard gate, each
	// holding an admission slot mid-scatter.
	admitted := make(chan error, slots)
	for i := 0; i < slots; i++ {
		go func() {
			_, _, _, err := coord.SumResult(context.Background(), false, false, nil)
			admitted <- err
		}()
	}
	waitFor(t, func() bool { return arrived.Load() >= int32(slots*len(engines)) })

	// Every further query sheds with ErrOverloaded after the queue wait —
	// fast-fail backpressure instead of piling onto the saturated tier.
	const shedLoad = 6
	errs := make([]error, shedLoad)
	var wg sync.WaitGroup
	for i := 0; i < shedLoad; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, _, errs[i] = coord.SumResult(context.Background(), false, false, nil)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, cluster.ErrOverloaded) {
			t.Fatalf("query %d under overload: %v, want ErrOverloaded", i, err)
		}
	}

	// Release the gate: the admitted queries drain successfully and the
	// tier recovers cleanly.
	close(release)
	for i := 0; i < slots; i++ {
		if err := <-admitted; err != nil {
			t.Fatalf("admitted query failed: %v", err)
		}
	}
	if _, _, _, err := coord.SumResult(context.Background(), false, false, nil); err != nil {
		t.Fatalf("post-overload query failed: %v", err)
	}

	var text strings.Builder
	if err := coord.Registry().WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "viewcube_admission_rejected_total 6") {
		t.Fatalf("admission metrics missing rejected count:\n%s", text.String())
	}
}

// waitFor polls cond up to 5s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never reached")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCacheHitsBypassAdmission(t *testing.T) {
	engines := shardEngines(t, shardTables(t, 600, 2))
	release := make(chan struct{})
	arrived := &atomic.Int32{}
	shards := make([]cluster.Shard, len(engines))
	for i, sh := range engines {
		shards[i] = cluster.Shard{Name: shardNames(len(engines))[i], Client: &gateClient{
			inner:   cluster.NewLoopback(sh),
			block:   cluster.KindTotal,
			release: release,
			arrived: arrived,
		}}
	}
	coord, err := cluster.NewCoordinator(shards, cluster.Options{
		Timeout:      5 * time.Second,
		Retries:      -1,
		MaxInFlight:  1,
		QueueTimeout: 20 * time.Millisecond,
		Cache:        &rescache.Options{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	// Warm the cache while the tier is idle (group-bys pass the gate).
	warm, err := coord.GroupBy("product")
	if err != nil {
		t.Fatal(err)
	}

	// Saturate the single admission slot with a gated Total: once its legs
	// reach the shard gates, the slot is held mid-scatter.
	done := make(chan error, 1)
	go func() {
		_, _, _, err := coord.SumResult(context.Background(), false, false, nil)
		done <- err
	}()
	waitFor(t, func() bool { return arrived.Load() >= int32(len(engines)) })

	// A fresh (uncached) query sheds...
	if _, err := coord.GroupBy("region"); !errors.Is(err, cluster.ErrOverloaded) {
		t.Fatalf("fresh query on a saturated tier: %v, want ErrOverloaded", err)
	}
	// ...but the cached one still answers — a hit costs a map lookup and no
	// admission slot, which is the point of caching on a saturated tier.
	hit, err := coord.GroupBy("product")
	if err != nil {
		t.Fatalf("cached query shed under load: %v", err)
	}
	sameGroupsExact(t, hit, warm)

	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
