// Result-cache benchmarks: what a served query costs when its answer is
// already cached, what the cache machinery adds to a computing miss, and how
// the replicated scatter-gather path compares to the single-copy one. The
// hit path is the headline: it must beat the cached-plan execute path by an
// order of magnitude with (near) zero allocations, or the cache is not
// paying for its invalidation complexity.
package viewcube_test

import (
	"testing"

	"viewcube/internal/catalog"
	"viewcube/internal/cluster"
	"viewcube/internal/rescache"
)

// cachedLeaseFixture is registryOverheadFixture with the result cache
// enabled and the benchmark query's answer warmed into it.
func cachedLeaseFixture(b *testing.B) *catalog.Lease {
	b.Helper()
	reg := resultCachedRegistry(b)
	lease, err := reg.Acquire("bench", "")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(lease.Release)
	if _, _, _, err := lease.ServeGroupBy(false, "product"); err != nil {
		b.Fatal(err)
	}
	return lease
}

// resultCachedRegistry builds the overhead fixture's cube behind a registry
// with answer caching on.
func resultCachedRegistry(b *testing.B) *catalog.Registry {
	b.Helper()
	reg := registryOverheadFixture(b)
	reg.EnableResultCache(rescache.Options{})
	return reg
}

// BenchmarkResultCacheHit measures a served group-by whose answer is
// cached: one epoch sync, one key render, one lookup — no plan, no
// assembly, no aggregation.
func BenchmarkResultCacheHit(b *testing.B) {
	lease := cachedLeaseFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := lease.ServeGroupBy(false, "product"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkResultCacheHitParallel is the hit path under concurrent readers:
// the lookup takes the cache mutex briefly, so contention — not compute —
// is what scales here.
func BenchmarkResultCacheHitParallel(b *testing.B) {
	lease := cachedLeaseFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, _, _, err := lease.ServeGroupBy(false, "product"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkResultCacheMiss isolates the cache's own miss-path overhead —
// lookup, flight bookkeeping, store, LRU/size accounting — by invalidating
// before every round and computing a canned value. The full cost of a real
// miss is the underlying query plus this.
func BenchmarkResultCacheMiss(b *testing.B) {
	c := rescache.New[string, int](rescache.Options{})
	compute := func() (int, error) { return 42, nil }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Invalidate()
		if _, hit, err := c.GetOrCompute("k", compute); err != nil || hit {
			b.Fatalf("hit=%v err=%v", hit, err)
		}
	}
}

// BenchmarkClusterReplicaFanOut is BenchmarkClusterScatterGather with two
// copies of every shard: the coordinator picks the least-loaded replica per
// request, so the balancing bookkeeping is the only added cost.
func BenchmarkClusterReplicaFanOut(b *testing.B) {
	coord := benchReplicatedCoordinator(b, 20000, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := coord.GroupBy("product", "region"); err != nil {
			b.Fatal(err)
		}
	}
}

// benchReplicatedCoordinator builds the benchCoordinator loopback cluster
// and re-registers every shard with a second loopback over the same engine
// as a replica.
func benchReplicatedCoordinator(b *testing.B, rows, n int) *cluster.Coordinator {
	b.Helper()
	shards := benchShards(b, rows, n)
	for i := range shards {
		shards[i].Shard.Replicas = []cluster.ShardClient{cluster.NewLoopback(shards[i].engine)}
	}
	return benchCoordinatorOver(b, shards)
}
