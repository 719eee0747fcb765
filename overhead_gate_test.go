// The observability overhead gate: with sampling disabled, the serving path
// must pay nothing measurable for the tracing machinery. CI runs this as
//
//	go test -run TestTracedQueryOverheadGate -overheadgate
//
// and fails the build if the sampling-off path is more than 5% slower than
// the plain cached-plan GroupBy baseline. It is opt-in (skipped without the
// flag) because each side is measured several times under testing.Benchmark,
// which is far too slow for the ordinary test run.
package viewcube_test

import (
	"flag"
	"testing"
	"time"
)

var overheadGate = flag.Bool("overheadgate", false, "measure sampling-off tracing overhead and fail above 5%")

// benchCachedGroupBy is the baseline the gate compares against: the same
// warmed fixture and query as benchTracedOff, minus the sampler check.
func benchCachedGroupBy(b *testing.B) {
	eng := tracedOverheadFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.GroupBy("product"); err != nil {
			b.Fatal(err)
		}
	}
}

func TestTracedQueryOverheadGate(t *testing.T) {
	if !*overheadGate {
		t.Skip("enable with -overheadgate")
	}
	// Best-of-N on each side filters scheduler noise: the true sampling-off
	// overhead is one nil-sampler check per query, orders of magnitude under
	// the 5% budget, so only a measurement artefact can trip the gate.
	measure := func(fn func(*testing.B)) time.Duration {
		var best time.Duration
		for i := 0; i < 5; i++ {
			r := testing.Benchmark(fn)
			if d := time.Duration(r.NsPerOp()); best == 0 || d < best {
				best = d
			}
		}
		return best
	}
	baseline := measure(benchCachedGroupBy)
	off := measure(benchTracedOff)
	overhead := 100 * (float64(off)/float64(baseline) - 1)
	t.Logf("cached-plan baseline %v/op, sampling-off %v/op (%+.2f%% overhead)", baseline, off, overhead)
	if limit := baseline + baseline/20; off > limit {
		t.Errorf("sampling-off path %v/op exceeds 105%% of baseline %v/op (%+.2f%%)", off, baseline, overhead)
	}

	// The multi-cube routing tax — lease acquire, view alias resolution,
	// release — must stay under 1% of the query it wraps. Both sides run
	// the identical handle query; only the catalog bookkeeping differs.
	leased := measure(BenchmarkLeasedGroupBy)
	routed := measure(BenchmarkRegistryResolve)
	routing := 100 * (float64(routed)/float64(leased) - 1)
	t.Logf("leased baseline %v/op, registry+view routed %v/op (%+.2f%% overhead)", leased, routed, routing)
	if limit := leased + leased/100; routed > limit {
		t.Errorf("routed path %v/op exceeds 101%% of leased baseline %v/op (%+.2f%%)", routed, leased, routing)
	}

	// With the result cache disabled, Serve* must be a transparent shim over
	// the handle query: one nil check, under 1% of the work it wraps.
	uncached := measure(benchCacheDisabledGroupBy)
	cacheTax := 100 * (float64(uncached)/float64(leased) - 1)
	t.Logf("leased baseline %v/op, cache-disabled serve %v/op (%+.2f%% overhead)", leased, uncached, cacheTax)
	if limit := leased + leased/100; uncached > limit {
		t.Errorf("cache-disabled serve path %v/op exceeds 101%% of leased baseline %v/op (%+.2f%%)", uncached, leased, cacheTax)
	}

	// And the cache earns its keep: a hit must be at least 10x faster than
	// executing the same query through the cached plan.
	hit := measure(BenchmarkResultCacheHit)
	t.Logf("cached-plan execute %v/op, result-cache hit %v/op (%.1fx)", leased, hit, float64(leased)/float64(hit))
	if hit*10 > leased {
		t.Errorf("result-cache hit %v/op is not 10x faster than the execute path %v/op", hit, leased)
	}

	// And a served view goes back to the scratch pool: in steady state the
	// read kernel leases every buffer of an uncached request from it, the
	// answer's included. Leases must be counted at all, or the ratio
	// passes on nothing.
	r := testing.Benchmark(benchServeGroupByUncached(8192))
	t.Logf("uncached serve: %d B/op, read-kernel pool hit ratio %.4f over %.1f leases/op", r.AllocedBytesPerOp(), r.Extra["pool_hit_ratio"], r.Extra["pool_leases/op"])
	if leases := r.Extra["pool_leases/op"]; !(leases > 0) {
		t.Errorf("the uncached serve path counted %v scratch leases per op, want > 0", leases)
	}
	if ratio := r.Extra["pool_hit_ratio"]; !(ratio >= 0.99) {
		t.Errorf("assembly.pool_hit_ratio %.4f on the uncached serve path, want ≥ 0.99", ratio)
	}
}

// benchCacheDisabledGroupBy serves the overhead fixture's query through the
// catalog's Serve path with no result cache enabled: the same handle query
// as BenchmarkLeasedGroupBy plus only the cache-off fallback check.
func benchCacheDisabledGroupBy(b *testing.B) {
	reg := registryOverheadFixture(b)
	lease, err := reg.Acquire("bench", "")
	if err != nil {
		b.Fatal(err)
	}
	defer lease.Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := lease.ServeGroupBy(false, "product"); err != nil {
			b.Fatal(err)
		}
	}
}
