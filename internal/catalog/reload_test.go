package catalog

// Catalog hot-reload: diffing two catalog files and applying adds, drops,
// spec changes and view changes through the normal lifecycle operations,
// plus the file watcher that drives it.

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"viewcube/internal/rescache"
)

const beerCSV = `product,region,day,sales
stout,north,d1,8
stout,south,d1,6
porter,north,d2,4
`

// reloadFixture writes the CSVs and returns (dir, initial file). The
// initial catalog declares cubes "alpha" (default) and "beta" with one
// aliasing view on alpha.
func reloadFixture(t *testing.T) (string, *File) {
	t.Helper()
	dir := t.TempDir()
	for name, csv := range map[string]string{"a.csv": salesCSV, "b.csv": beerCSV} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(csv), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	f := &File{
		Cubes: []CubeSpec{
			{Name: "alpha", CSV: "a.csv", Default: true},
			{Name: "beta", CSV: "b.csv"},
		},
		Views: []ViewSpec{{
			Name: "v", Cube: "alpha",
			Includes: IncludeList{Members: []MemberSpec{{Name: "product", Alias: "item"}, {Name: "region"}}},
		}},
	}
	return dir, f
}

func buildReloadRegistry(t *testing.T, dir string, f *File) *Registry {
	t.Helper()
	reg := NewRegistry()
	reg.EnableResultCache(rescache.Options{})
	if err := f.Build(reg, dir); err != nil {
		t.Fatal(err)
	}
	return reg
}

// cloneFile deep-copies a catalog file through its serialized form.
func cloneFile(t *testing.T, f *File) *File {
	t.Helper()
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func epochOf(t *testing.T, reg *Registry, name string) uint64 {
	t.Helper()
	for _, cs := range reg.Cubes() {
		if cs.Name == name {
			return cs.Epoch
		}
	}
	t.Fatalf("no cube %q in listing", name)
	return 0
}

func TestApplyUpdateAddsDropsRebuilds(t *testing.T) {
	dir, f := reloadFixture(t)
	reg := buildReloadRegistry(t, dir, f)

	// Warm alpha's result cache so the rebuild's invalidation is visible.
	lease, err := reg.Acquire("alpha", "")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := lease.ServeGroupBy(false, "product"); err != nil {
		t.Fatal(err)
	}
	lease.Release()
	alphaEpoch := epochOf(t, reg, "alpha")

	next := cloneFile(t, f)
	next.Cubes[0].Budget = 1.0                                         // alpha: spec change → rebuild
	next.Cubes = next.Cubes[:1]                                        // beta: dropped
	next.Cubes = append(next.Cubes, CubeSpec{Name: "gamma", Gen: 200}) // gamma: added

	report, err := ApplyUpdate(reg, f, next, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Added) != 1 || report.Added[0] != "gamma" {
		t.Fatalf("added %v, want [gamma]", report.Added)
	}
	if len(report.Dropped) != 1 || report.Dropped[0] != "beta" {
		t.Fatalf("dropped %v, want [beta]", report.Dropped)
	}
	if len(report.Rebuilt) != 1 || report.Rebuilt[0] != "alpha" {
		t.Fatalf("rebuilt %v, want [alpha]", report.Rebuilt)
	}
	if len(report.ViewsChanged) != 0 {
		t.Fatalf("views changed %v, want none", report.ViewsChanged)
	}

	// Alpha swapped generations and its cached answers were dropped.
	if e := epochOf(t, reg, "alpha"); e != alphaEpoch+1 {
		t.Fatalf("alpha epoch %d, want %d", e, alphaEpoch+1)
	}
	lease, err = reg.Acquire("alpha", "v")
	if err != nil {
		t.Fatal(err)
	}
	if st := lease.ResultCacheStats(); st.Invalidations == 0 {
		t.Fatalf("alpha result cache not invalidated by rebuild: %+v", st)
	}
	groups, _, _, err := servedGroups(lease.ServeGroupBy(false, "product"))
	if err != nil {
		t.Fatal(err)
	}
	if groups["ale"] != 17 {
		t.Fatalf("post-reload alpha groups %v", groups)
	}
	lease.Release()

	// Beta drained to unloaded; gamma serves.
	if _, err := reg.Acquire("beta", ""); !errors.Is(err, ErrCubeUnloaded) {
		t.Fatalf("beta acquire: %v, want ErrCubeUnloaded", err)
	}
	lease, err = reg.Acquire("gamma", "")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := lease.Handle.GroupBy(false, "product"); err != nil {
		t.Fatal(err)
	}
	lease.Release()

	// A later reload re-adds beta: the parked entry loads again.
	next2 := cloneFile(t, next)
	next2.Cubes = append(next2.Cubes, CubeSpec{Name: "beta", CSV: "b.csv"})
	report, err = ApplyUpdate(reg, next, next2, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Added) != 1 || report.Added[0] != "beta" {
		t.Fatalf("re-add: added %v, want [beta]", report.Added)
	}
	lease, err = reg.Acquire("beta", "")
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := groupsOf(lease.Handle.GroupBy(false, "product"))
	if err != nil {
		t.Fatal(err)
	}
	if g["stout"] != 14 {
		t.Fatalf("beta groups %v", g)
	}
	lease.Release()
}

func TestApplyUpdateViewAndDefaultChanges(t *testing.T) {
	dir, f := reloadFixture(t)
	reg := buildReloadRegistry(t, dir, f)

	next := cloneFile(t, f)
	next.Cubes[0].Default = false
	next.Cubes[1].Default = true
	next.Views[0].Includes.Members[0].Alias = "sku" // product now aliased "sku"

	report, err := ApplyUpdate(reg, f, next, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.ViewsChanged) != 1 || report.ViewsChanged[0] != "alpha" {
		t.Fatalf("views changed %v, want [alpha]", report.ViewsChanged)
	}
	if report.Default != "beta" || reg.Default() != "beta" {
		t.Fatalf("default %q / %q, want beta", report.Default, reg.Default())
	}
	lease, err := reg.Acquire("alpha", "v")
	if err != nil {
		t.Fatal(err)
	}
	defer lease.Release()
	resolved, err := lease.View.ResolveKeep([]string{"sku"})
	if err != nil {
		t.Fatalf("new alias not served: %v", err)
	}
	if resolved[0] != "product" {
		t.Fatalf("sku resolved to %q", resolved[0])
	}
	if _, err := lease.View.ResolveKeep([]string{"item"}); err == nil {
		t.Fatal("old alias still resolves after view reload")
	}
}

func TestApplyUpdateBadRebuildKeepsServing(t *testing.T) {
	dir, f := reloadFixture(t)
	reg := buildReloadRegistry(t, dir, f)

	next := cloneFile(t, f)
	next.Cubes[0].CSV = "missing.csv" // alpha's new source does not exist

	report, err := ApplyUpdate(reg, f, next, dir)
	if err == nil {
		t.Fatal("expected an error for a missing csv")
	}
	if len(report.Rebuilt) != 0 {
		t.Fatalf("rebuilt %v despite failed build", report.Rebuilt)
	}
	// The old generation keeps serving.
	lease, err := reg.Acquire("alpha", "")
	if err != nil {
		t.Fatal(err)
	}
	defer lease.Release()
	g, _, err := groupsOf(lease.Handle.GroupBy(false, "product"))
	if err != nil {
		t.Fatal(err)
	}
	if g["ale"] != 17 {
		t.Fatalf("groups %v", g)
	}
}

func TestReloaderWatchesFile(t *testing.T) {
	dir, f := reloadFixture(t)
	path := filepath.Join(dir, "catalog.json")
	raw, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	reg := buildReloadRegistry(t, dir, f)
	rl := NewReloader(reg, path, f, raw)

	// Unchanged file: no-op.
	report, err := rl.Check()
	if err != nil {
		t.Fatal(err)
	}
	if report != nil {
		t.Fatalf("unchanged file produced a report: %+v", report)
	}

	// Touch without content change: still a no-op (byte comparison).
	future := time.Now().Add(2 * time.Second)
	if err := os.Chtimes(path, future, future); err != nil {
		t.Fatal(err)
	}
	if report, err = rl.Check(); err != nil || report != nil {
		t.Fatalf("touched file: report %+v err %v", report, err)
	}

	// A parse failure leaves the catalog serving and reports the error.
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	forceMtime(t, path)
	if _, err := rl.Check(); err == nil {
		t.Fatal("invalid catalog file did not report an error")
	}
	if _, err := reg.Acquire("alpha", ""); err != nil {
		t.Fatalf("catalog stopped serving after a bad reload file: %v", err)
	}

	// A real edit applies: gamma appears.
	next := cloneFile(t, f)
	next.Cubes = append(next.Cubes, CubeSpec{Name: "gamma", Gen: 150})
	nraw, err := json.Marshal(next)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, nraw, 0o644); err != nil {
		t.Fatal(err)
	}
	forceMtime(t, path)
	report, err = rl.Check()
	if err != nil {
		t.Fatal(err)
	}
	if report == nil || len(report.Added) != 1 || report.Added[0] != "gamma" {
		t.Fatalf("reload report %+v, want gamma added", report)
	}
	lease, err := reg.Acquire("gamma", "")
	if err != nil {
		t.Fatal(err)
	}
	lease.Release()

	// And the applied state is the new baseline: re-checking is a no-op.
	if report, err = rl.Check(); err != nil || report != nil {
		t.Fatalf("post-apply check: report %+v err %v", report, err)
	}
}

// forceMtime bumps a file's mtime well past any previous observation, so
// coarse filesystem timestamp granularity cannot hide an edit from the
// poller.
func forceMtime(t *testing.T, path string) {
	t.Helper()
	future := time.Now().Add(10 * time.Second)
	if err := os.Chtimes(path, future, future); err != nil {
		t.Fatal(err)
	}
}
