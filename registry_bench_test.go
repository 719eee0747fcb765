// Registry fast-path benchmarks: what the multi-cube catalog layer adds to
// a served query. Every request through the catalog surface pays one
// Acquire (registry mutex + refcount), one view resolution (alias map
// lookups) and one Release; the gate in TestTracedQueryOverheadGate holds
// that routing tax under 1% of the query itself.
package viewcube_test

import (
	"math/rand"
	"testing"

	"viewcube"
	"viewcube/internal/catalog"
	"viewcube/internal/workload"
)

// registryOverheadFixture builds the tracedOverheadFixture cube behind a
// one-cube registry with an aliasing view, plan cache warmed.
func registryOverheadFixture(b *testing.B) *catalog.Registry {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	tbl, err := workload.SalesTable(rng, 100, 8, 60, 20000)
	if err != nil {
		b.Fatal(err)
	}
	cube, err := viewcube.FromTable(tbl)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := cube.NewEngine(viewcube.EngineOptions{})
	if err != nil {
		b.Fatal(err)
	}
	reg := catalog.NewRegistry()
	if err := reg.RegisterHandle("bench", catalog.NewSafeHandle(cube, eng.Safe())); err != nil {
		b.Fatal(err)
	}
	err = reg.RegisterView(catalog.ViewSpec{
		Name: "aliased",
		Cube: "bench",
		Includes: catalog.IncludeList{Members: []catalog.MemberSpec{
			{Name: "product", Alias: "item"},
			{Name: "region"},
			{Name: "day"},
		}},
	})
	if err != nil {
		b.Fatal(err)
	}
	lease, err := reg.Acquire("bench", "")
	if err != nil {
		b.Fatal(err)
	}
	defer lease.Release()
	if _, _, err := lease.Handle.GroupBy(false, "product"); err != nil {
		b.Fatal(err)
	}
	return reg
}

// BenchmarkLeasedGroupBy is the no-routing baseline: the same handle query
// through a lease acquired once, so the loop body is exactly the work the
// routed path wraps.
func BenchmarkLeasedGroupBy(b *testing.B) {
	reg := registryOverheadFixture(b)
	lease, err := reg.Acquire("bench", "")
	if err != nil {
		b.Fatal(err)
	}
	defer lease.Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := handleGroupBy(lease, "product"); err != nil {
			b.Fatal(err)
		}
	}
}

// handleGroupBy is the work a served group-by wraps: the handle's query and
// the encoding of its columnar answer (what Groups() was before PR 19).
func handleGroupBy(lease *catalog.Lease, keep ...string) error {
	res, _, err := lease.Handle.GroupBy(false, keep...)
	if err != nil {
		return err
	}
	_, err = res.AppendGroupsJSON(nil)
	return err
}

// BenchmarkRegistryResolve is the full per-request catalog path: acquire a
// lease on the cube, resolve the view alias, answer the cached GroupBy
// through the handle and release.
func BenchmarkRegistryResolve(b *testing.B) {
	reg := registryOverheadFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lease, err := reg.Acquire("bench", "aliased")
		if err != nil {
			b.Fatal(err)
		}
		keep, err := lease.View.ResolveKeep([]string{"item"})
		if err != nil {
			lease.Release()
			b.Fatal(err)
		}
		if err := handleGroupBy(lease, keep...); err != nil {
			lease.Release()
			b.Fatal(err)
		}
		lease.Release()
	}
}
