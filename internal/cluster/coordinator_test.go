package cluster_test

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"viewcube"
	"viewcube/internal/cluster"
	"viewcube/internal/obs"
)

// fastOpts keeps failure-path tests quick.
var fastOpts = cluster.Options{
	Timeout: 100 * time.Millisecond,
	Retries: 2,
	Backoff: time.Millisecond,
}

// TestCoordinatorMatchesOracle pins the scatter-gather answers to the
// serial oracle: with every shard healthy, the networked merge must be
// bit-identical (distributivity in fixed shard order is exact, not
// approximate). The measures are integers, so the coordinator must also
// equal one unsharded engine over the whole relation exactly, even on a
// range whose bounds are no value any shard holds.
func TestCoordinatorMatchesOracle(t *testing.T) {
	_, single := tableEngine(t, salesTable(t, 3000))
	for _, n := range []int{4, 5} {
		tables := shardTables(t, 3000, n)
		oracle := newOracle(t, tables)
		coord, err := cluster.NewCoordinator(loopbackShards(shardEngines(t, tables)), fastOpts)
		if err != nil {
			t.Fatal(err)
		}
		defer coord.Close()

		for _, keep := range [][]string{{"product"}, {"region"}, {"day"}, {"product", "region"}, {}} {
			want, err := oracle.GroupBy(keep...)
			if err != nil {
				t.Fatal(err)
			}
			got, err := coord.GroupBy(keep...)
			if err != nil {
				t.Fatalf("%d shards: GroupBy(%v): %v", n, keep, err)
			}
			sameGroupsExact(t, got, want)
		}
		v, err := single.GroupBy("region")
		if err != nil {
			t.Fatal(err)
		}
		wantRegion, err := v.Groups()
		if err != nil {
			t.Fatal(err)
		}
		gotRegion, err := coord.GroupBy("region")
		if err != nil {
			t.Fatal(err)
		}
		sameGroupsExact(t, gotRegion, wantRegion)

		wantTotal, err := oracle.Total()
		if err != nil {
			t.Fatal(err)
		}
		if singleTotal, err := single.Total(); err != nil || singleTotal != wantTotal {
			t.Fatalf("unsharded total %v (%v), oracle %v", singleTotal, err, wantTotal)
		}
		gotTotal, _, _, err := coord.SumResult(context.Background(), false, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		if gotTotal != wantTotal {
			t.Fatalf("%d shards: Total = %v, want %v", n, gotTotal, wantTotal)
		}

		// The unsharded engine takes exact bounds. Each shard lacks some of
		// them, and between's bounds are no value at all.
		days := map[string]viewcube.ValueRange{"day": {Lo: "day-005", Hi: "day-019"}}
		products := map[string]viewcube.ValueRange{"product": {Lo: "product-010", Hi: "product-019"}}
		between := map[string]viewcube.ValueRange{"product": {Lo: "product-0095", Hi: "product-0195"}}
		for _, ranges := range []map[string]viewcube.ValueRange{
			{"day": {Lo: "day-005", Hi: "day-020"}, "product": {Lo: "prod-00", Hi: "prod-25"}},
			days, products, between,
		} {
			wantRange, err := oracle.RangeSum(ranges)
			if err != nil {
				t.Fatal(err)
			}
			gotRange, err := coord.RangeSum(ranges)
			if err != nil {
				t.Fatal(err)
			}
			if gotRange != wantRange {
				t.Fatalf("%d shards: RangeSum(%v) = %v, want %v", n, ranges, gotRange, wantRange)
			}
		}
		for _, c := range []struct {
			ranges, exact map[string]viewcube.ValueRange
		}{
			{days, days}, {products, products}, {between, products},
		} {
			want, err := single.RangeSum(c.exact)
			if err != nil {
				t.Fatal(err)
			}
			if want == 0 {
				t.Fatalf("fixture: range %v is empty on the unsharded cube", c.exact)
			}
			got, err := coord.RangeSum(c.ranges)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%d shards: RangeSum(%v) = %v, unsharded %v", n, c.ranges, got, want)
			}
		}

		unknown := map[string]viewcube.ValueRange{"nope": {}}
		if _, err := coord.RangeSum(unknown); err == nil {
			t.Fatalf("%d shards: want an error for an unknown range dimension", n)
		}
		if _, err := oracle.RangeSum(unknown); err == nil {
			t.Fatal("oracle: want an error for an unknown range dimension")
		}
	}
}

// TestCoordinatorRetriesTransientFailure: a shard that fails twice but has
// retry budget left still yields the exact answer.
func TestCoordinatorRetriesTransientFailure(t *testing.T) {
	tables := shardTables(t, 1500, 3)
	oracle := newOracle(t, tables)
	shards := loopbackShards(shardEngines(t, tables))
	flaky := &flakyClient{inner: shards[1].Client}
	shards[1].Client = flaky

	coord, err := cluster.NewCoordinator(shards, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	flaky.set(func(f *flakyClient) { f.failN = 2 })
	want, err := oracle.GroupBy("product")
	if err != nil {
		t.Fatal(err)
	}
	got, err := coord.GroupBy("product")
	if err != nil {
		t.Fatalf("query should survive 2 transient failures with 2 retries: %v", err)
	}
	sameGroupsExact(t, got, want)
	if flaky.callCount() != 3 {
		t.Fatalf("flaky shard saw %d calls, want 3 (1 + 2 retries)", flaky.callCount())
	}

	// Retry metrics flowed into the coordinator's registry.
	met := obs.NewClusterMetrics(coord.Registry()) // idempotent: same instruments
	if met.Retries.Value() != 2 {
		t.Fatalf("retries counter = %d, want 2", met.Retries.Value())
	}
}

// TestCoordinatorPartialResult: a shard that stays dead past the retry
// budget fails exact-mode queries, while the *Partial variants degrade to
// the remaining shards' combined answer and name the missing shard.
func TestCoordinatorPartialResult(t *testing.T) {
	tables := shardTables(t, 1500, 3)
	engines := shardEngines(t, tables)
	shards := loopbackShards(engines)
	dead := &flakyClient{inner: shards[2].Client}
	dead.set(func(f *flakyClient) { f.failAll = true })
	shards[2].Client = dead

	coord, err := cluster.NewCoordinator(shards, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	deadName := shards[2].Name
	if _, err := coord.GroupBy("product"); err == nil {
		t.Fatal("exact-mode GroupBy should fail with a dead shard")
	} else if !strings.Contains(err.Error(), deadName) {
		t.Fatalf("exact-mode error %q does not name shard %s", err, deadName)
	}

	got, part, _, err := asGroups(coord.GroupByResult(context.Background(), true, false, "product"))
	if err != nil {
		t.Fatalf("partial-mode GroupBy: %v", err)
	}
	if part.Complete() {
		t.Fatal("partial result claims to be complete")
	}
	if len(part.Missing) != 1 || part.Missing[0] != deadName {
		t.Fatalf("missing = %v, want [%s]", part.Missing, deadName)
	}
	if part.Errs[deadName] == "" {
		t.Fatalf("no error recorded for missing shard: %+v", part)
	}

	// The degraded answer is the exact merge of the live shards.
	want := make(map[string]float64)
	for i, sh := range engines[:2] {
		v, err := sh.Engine().GroupBy("product")
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		g, err := v.Groups()
		if err != nil {
			t.Fatal(err)
		}
		for k, val := range g {
			want[k] += val
		}
	}
	sameGroupsExact(t, got, want)

	met := obs.NewClusterMetrics(coord.Registry())
	if met.Partials.Value() == 0 {
		t.Fatal("partial answers not counted")
	}

	// A sum query degrades the same way.
	sum, part2, _, err := coord.SumResult(context.Background(), true, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if part2.Complete() {
		t.Fatal("TotalPartial claims complete with a dead shard")
	}
	var wantSum float64
	for _, sh := range engines[:2] {
		s, err := sh.Engine().Total()
		if err != nil {
			t.Fatal(err)
		}
		wantSum += s
	}
	if sum != wantSum {
		t.Fatalf("partial total = %v, want %v", sum, wantSum)
	}

	// Revive the shard: exact mode works again (graceful recovery).
	dead.set(func(f *flakyClient) { f.failAll = false })
	oracle := newOracle(t, tables)
	want2, err := oracle.GroupBy("region")
	if err != nil {
		t.Fatal(err)
	}
	got2, err := coord.GroupBy("region")
	if err != nil {
		t.Fatalf("after revival: %v", err)
	}
	sameGroupsExact(t, got2, want2)
}

// TestCoordinatorDeadline: a shard delayed past its per-attempt deadline is
// indistinguishable from a dead one — partial mode names it.
func TestCoordinatorDeadline(t *testing.T) {
	tables := shardTables(t, 800, 2)
	shards := loopbackShards(shardEngines(t, tables))
	slow := &flakyClient{inner: shards[0].Client}
	slow.set(func(f *flakyClient) { f.delay = 200 * time.Millisecond })
	shards[0].Client = slow

	coord, err := cluster.NewCoordinator(shards, cluster.Options{
		Timeout: 20 * time.Millisecond,
		Retries: 1,
		Backoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	_, part, _, err := coord.GroupByResult(context.Background(), true, false, "product")
	if err != nil {
		t.Fatal(err)
	}
	if part.Complete() || part.Missing[0] != shards[0].Name {
		t.Fatalf("want shard %s missing, got %+v", shards[0].Name, part)
	}
}

// TestCoordinatorFatalQueryError: a deterministic query error (unknown
// dimension) must fail even in degraded mode — it is not an unreachable
// shard, and retrying cannot fix it.
func TestCoordinatorFatalQueryError(t *testing.T) {
	tables := shardTables(t, 500, 2)
	shards := loopbackShards(shardEngines(t, tables))
	coord, err := cluster.NewCoordinator(shards, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	if _, _, _, err := coord.GroupByResult(context.Background(), true, false, "no_such_dim"); err == nil {
		t.Fatal("unknown dimension should fail even in partial mode")
	}
	if _, err := coord.RangeSum(map[string]viewcube.ValueRange{"bogus": {Lo: "a", Hi: "z"}}); err == nil {
		t.Fatal("unknown range dimension should fail")
	}
}

// TestCoordinatorAllShardsDown: nothing to merge is an error in every mode.
func TestCoordinatorAllShardsDown(t *testing.T) {
	tables := shardTables(t, 500, 2)
	shards := loopbackShards(shardEngines(t, tables))
	for i := range shards {
		dead := &flakyClient{inner: shards[i].Client}
		dead.set(func(f *flakyClient) { f.failAll = true })
		shards[i].Client = dead
	}
	coord, err := cluster.NewCoordinator(shards, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	if _, _, _, err := coord.GroupByResult(context.Background(), true, false, "product"); err == nil {
		t.Fatal("all shards down should fail even in partial mode")
	}
}

// TestCoordinatorHedging: with a static hedge delay, a stalled primary is
// raced by a speculative duplicate and the query still answers fast.
func TestCoordinatorHedging(t *testing.T) {
	tables := shardTables(t, 800, 2)
	shards := loopbackShards(shardEngines(t, tables))

	// Stall odd-numbered calls: the primary hangs, its hedge flies.
	stall := &stallEveryOther{inner: shards[0].Client, stall: 300 * time.Millisecond}
	shards[0].Client = stall

	coord, err := cluster.NewCoordinator(shards, cluster.Options{
		Timeout:       time.Second,
		Retries:       1,
		Backoff:       time.Millisecond,
		HedgeQuantile: 0.9,
		HedgeAfter:    5 * time.Millisecond,
		HedgeMin:      time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	oracle := newOracle(t, tables)
	want, err := oracle.GroupBy("product")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	got, err := coord.GroupBy("product")
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 250*time.Millisecond {
		t.Fatalf("hedged query took %v; the duplicate should have beaten the 300ms stall", d)
	}
	sameGroupsExact(t, got, want)

	met := obs.NewClusterMetrics(coord.Registry())
	if met.Hedges.Value() == 0 {
		t.Fatal("no hedge was launched")
	}
	if met.HedgeWins.Value() == 0 {
		t.Fatal("hedge never won against a 300ms stall")
	}
}

// stallEveryOther delays calls 1, 3, 5, ... and passes even calls through
// immediately — so a primary stalls while its hedge succeeds.
type stallEveryOther struct {
	inner cluster.ShardClient
	stall time.Duration

	mu    sync.Mutex
	calls int
}

func (s *stallEveryOther) Do(ctx context.Context, req *cluster.Request) (*cluster.Response, error) {
	s.mu.Lock()
	s.calls++
	odd := s.calls%2 == 1
	s.mu.Unlock()
	if odd {
		select {
		case <-time.After(s.stall):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return s.inner.Do(ctx, req)
}

func (s *stallEveryOther) Close() error { return s.inner.Close() }

// TestCoordinatorTraceSpans: the traced scatter records one span per shard
// with its outcome attributes.
func TestCoordinatorTraceSpans(t *testing.T) {
	tables := shardTables(t, 800, 3)
	shards := loopbackShards(shardEngines(t, tables))
	coord, err := cluster.NewCoordinator(shards, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	oracle := newOracle(t, tables)
	want, err := oracle.GroupBy("product")
	if err != nil {
		t.Fatal(err)
	}
	got, part, tr, err := asGroups(coord.GroupByResult(context.Background(), true, true, "product"))
	if err != nil {
		t.Fatal(err)
	}
	if !part.Complete() {
		t.Fatalf("unexpected partial: %+v", part)
	}
	sameGroupsExact(t, got, want)

	tree := tr.Tree()
	if len(tree.Children) != len(shards) {
		t.Fatalf("%d shard spans, want %d", len(tree.Children), len(shards))
	}
	for i, sp := range tree.Children {
		if want := "shard " + shards[i].Name; sp.Name != want {
			t.Fatalf("span %d named %q, want %q", i, sp.Name, want)
		}
		if sp.Attrs["ok"] != 1 {
			t.Fatalf("span %d not marked ok: %+v", i, sp.Attrs)
		}
		if sp.Attrs["groups"] == 0 {
			t.Fatalf("span %d has no group count: %+v", i, sp.Attrs)
		}
	}
}
