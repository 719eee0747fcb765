package catalog

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"viewcube"
)

const salesCSV = `product,region,day,sales
ale,east,d1,10
ale,west,d1,5
ale,east,d2,2
bock,east,d1,7
bock,west,d2,4
cider,west,d3,3
`

func salesHandle(t *testing.T) CubeHandle {
	t.Helper()
	cube, err := viewcube.Load(strings.NewReader(salesCSV), "sales")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := cube.NewEngine(viewcube.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return NewSafeHandle(cube, eng)
}

func salesRegistry(t *testing.T) *Registry {
	t.Helper()
	reg := NewRegistry()
	if err := reg.Register("sales", func() (CubeHandle, error) {
		return salesHandle(t), nil
	}); err != nil {
		t.Fatal(err)
	}
	return reg
}

func TestViewCompileResolveAndRewrite(t *testing.T) {
	reg := salesRegistry(t)
	err := reg.RegisterView(ViewSpec{
		Name: "regional",
		Cube: "sales",
		Includes: IncludeList{Members: []MemberSpec{
			{Name: "product", Alias: "item"},
			{Name: "region"},
		}},
		Measures: []string{"sales"},
	})
	if err != nil {
		t.Fatal(err)
	}
	lease, err := reg.Acquire("sales", "regional")
	if err != nil {
		t.Fatal(err)
	}
	defer lease.Release()
	v := lease.View

	// Alias resolves to the underlying dimension.
	dim, err := v.ResolveMember("item")
	if err != nil || dim != "product" {
		t.Fatalf("ResolveMember(item) = %q, %v", dim, err)
	}
	// The underlying name is NOT exposed once aliased.
	if _, err := v.ResolveMember("product"); !errors.Is(err, ErrUnknownMember) {
		t.Fatalf("ResolveMember(product) err = %v, want ErrUnknownMember", err)
	}
	// A dimension the view never included is rejected identically.
	if _, err := v.ResolveMember("day"); !errors.Is(err, ErrUnknownMember) {
		t.Fatalf("ResolveMember(day) err = %v, want ErrUnknownMember", err)
	}
	var me *MemberError
	_, err = v.ResolveKeep([]string{"item", "day"})
	if !errors.As(err, &me) || me.Member != "day" {
		t.Fatalf("ResolveKeep err = %v, want MemberError{day}", err)
	}

	sql, err := v.RewriteSQL("SELECT SUM(sales) GROUP BY item WHERE region = 'east'")
	if err != nil {
		t.Fatal(err)
	}
	want := "SELECT SUM(sales) GROUP BY product WHERE region = 'east'"
	if sql != want {
		t.Fatalf("RewriteSQL = %q, want %q", sql, want)
	}
	if _, err := v.RewriteSQL("SELECT SUM(sales) GROUP BY day"); !errors.Is(err, ErrUnknownMember) {
		t.Fatalf("RewriteSQL(day) err = %v, want ErrUnknownMember", err)
	}
	if err := v.ResolveMeasure("profit"); !errors.Is(err, ErrUnknownMember) {
		t.Fatalf("ResolveMeasure(profit) err = %v, want ErrUnknownMember", err)
	}
	if err := v.ResolveMeasure("*"); err != nil {
		t.Fatalf("COUNT(*) should always be allowed, got %v", err)
	}

	// An aliased query answers identically to the raw one.
	aliased, _, err := rowsOf(lease.Handle.Query(false, sql))
	if err != nil {
		t.Fatal(err)
	}
	raw, _, err := rowsOf(lease.Handle.Query(false, want))
	if err != nil {
		t.Fatal(err)
	}
	if len(aliased.Rows) != len(raw.Rows) {
		t.Fatalf("aliased rows %d != raw rows %d", len(aliased.Rows), len(raw.Rows))
	}
	cols := v.RewriteColumns([]string{"product", "SUM(sales)"})
	if cols[0] != "item" || cols[1] != "SUM(sales)" {
		t.Fatalf("RewriteColumns = %v", cols)
	}
}

func TestViewValidationErrors(t *testing.T) {
	reg := salesRegistry(t)
	cases := []ViewSpec{
		{Name: "bad-exclude", Cube: "sales", Includes: All(), Excludes: []string{"nope"}},
		{Name: "bad-include", Cube: "sales", Includes: Include("nope")},
		{Name: "empty", Cube: "sales", Includes: IncludeList{}},
		{Name: "all-gone", Cube: "sales", Includes: All(), Excludes: []string{"product", "region", "day"}},
		{Name: "bad-measure", Cube: "sales", Includes: All(), Measures: []string{"profit"}},
		{Name: "dup", Cube: "sales", Includes: IncludeList{Members: []MemberSpec{
			{Name: "product", Alias: "x"}, {Name: "region", Alias: "x"},
		}}},
	}
	for _, spec := range cases {
		if err := reg.RegisterView(spec); err == nil {
			t.Errorf("view %q: want compile error, got nil", spec.Name)
		}
	}
	if err := reg.RegisterView(ViewSpec{Name: "v", Cube: "ghost", Includes: All()}); !errors.Is(err, ErrUnknownCube) {
		t.Fatalf("view on ghost cube err = %v, want ErrUnknownCube", err)
	}
}

func TestStarExcludesAndNilView(t *testing.T) {
	reg := salesRegistry(t)
	if err := reg.RegisterView(ViewSpec{
		Name: "public", Cube: "sales", Includes: All(), Excludes: []string{"region"},
	}); err != nil {
		t.Fatal(err)
	}
	lease, err := reg.Acquire("", "public") // "" resolves the default cube
	if err != nil {
		t.Fatal(err)
	}
	defer lease.Release()
	members := lease.View.Members()
	if len(members) != 2 || members[0].Name != "product" || members[1].Name != "day" {
		t.Fatalf("members = %v", members)
	}
	if _, err := lease.View.ResolveMember("region"); !errors.Is(err, ErrUnknownMember) {
		t.Fatalf("excluded member err = %v, want ErrUnknownMember", err)
	}

	// The nil view is the identity raw-cube surface.
	var nilView *View
	if dim, err := nilView.ResolveMember("region"); err != nil || dim != "region" {
		t.Fatalf("nil view ResolveMember = %q, %v", dim, err)
	}
	if sql, err := nilView.RewriteSQL("SELECT SUM(sales)"); err != nil || sql != "SELECT SUM(sales)" {
		t.Fatalf("nil view RewriteSQL = %q, %v", sql, err)
	}
}

func TestRegistryLifecycle(t *testing.T) {
	reg := salesRegistry(t)

	lease, err := reg.Acquire("sales", "")
	if err != nil {
		t.Fatal(err)
	}
	if lease.Epoch != 1 {
		t.Fatalf("epoch = %d, want 1", lease.Epoch)
	}

	// Unload blocks on the outstanding lease; release lets it drain.
	done := make(chan error, 1)
	go func() { done <- reg.Unload("sales") }()
	lease.Release()
	if err := <-done; err != nil {
		t.Fatalf("unload: %v", err)
	}
	if _, err := reg.Acquire("sales", ""); !errors.Is(err, ErrCubeUnloaded) {
		t.Fatalf("acquire unloaded err = %v, want ErrCubeUnloaded", err)
	}
	if err := reg.Unload("sales"); !errors.Is(err, ErrCubeUnloaded) {
		t.Fatalf("double unload err = %v, want ErrCubeUnloaded", err)
	}

	if err := reg.Load("sales"); err != nil {
		t.Fatal(err)
	}
	lease2, err := reg.Acquire("sales", "")
	if err != nil {
		t.Fatal(err)
	}
	if lease2.Epoch != 2 {
		t.Fatalf("epoch after reload = %d, want 2", lease2.Epoch)
	}

	// Rebuild is zero-downtime: the old generation keeps serving.
	if err := reg.Rebuild("sales"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := lease2.Handle.GroupBy(false, "product"); err != nil {
		t.Fatalf("old-generation lease after rebuild: %v", err)
	}
	lease3, err := reg.Acquire("sales", "")
	if err != nil {
		t.Fatal(err)
	}
	if lease3.Epoch != 3 {
		t.Fatalf("epoch after rebuild = %d, want 3", lease3.Epoch)
	}
	lease2.Release()
	lease3.Release()
	lease3.Release() // Release is idempotent.

	if _, err := reg.Acquire("ghost", ""); !errors.Is(err, ErrUnknownCube) {
		t.Fatalf("unknown cube err = %v, want ErrUnknownCube", err)
	}
	if _, err := reg.Acquire("sales", "ghost"); !errors.Is(err, ErrUnknownView) {
		t.Fatalf("unknown view err = %v, want ErrUnknownView", err)
	}
}

// TestConcurrentQueriesDuringLifecycle hammers a cube with queries while
// unload/load and rebuild cycle it. Every successfully acquired lease must
// see a working handle for its whole execution (no use-after-unload), and
// failed acquires must fail with a catalog sentinel.
func TestConcurrentQueriesDuringLifecycle(t *testing.T) {
	reg := salesRegistry(t)
	const (
		readers = 8
		rounds  = 40
	)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				lease, err := reg.Acquire("sales", "")
				if err != nil {
					if !errors.Is(err, ErrCubeUnloaded) && !errors.Is(err, ErrCubeBusy) {
						t.Errorf("acquire: %v", err)
					}
					continue
				}
				groups, _, err := groupsOf(lease.Handle.GroupBy(false, "product"))
				if err != nil {
					t.Errorf("groupby under lease: %v", err)
				} else if got := groups["ale"]; got != 17 {
					t.Errorf("groups[ale] = %v, want 17", got)
				}
				lease.Release()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if err := reg.Unload("sales"); err != nil {
				t.Errorf("unload: %v", err)
				return
			}
			if err := reg.Load("sales"); err != nil {
				t.Errorf("load: %v", err)
				return
			}
			if err := reg.Rebuild("sales"); err != nil {
				t.Errorf("rebuild: %v", err)
				return
			}
		}
	}()
	wg.Wait()
}

func TestRegistryListings(t *testing.T) {
	reg := salesRegistry(t)
	if err := reg.Register("inventory", func() (CubeHandle, error) {
		return salesHandle(t), nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterView(ViewSpec{Name: "public", Cube: "sales", Includes: All()}); err != nil {
		t.Fatal(err)
	}
	cubes := reg.Cubes()
	if len(cubes) != 2 || cubes[0].Name != "sales" || cubes[1].Name != "inventory" {
		t.Fatalf("cubes = %+v", cubes)
	}
	if !cubes[0].Default || cubes[1].Default {
		t.Fatalf("default flags wrong: %+v", cubes)
	}
	if cubes[0].State != "serving" || cubes[0].Info == nil || cubes[0].Info.Measure != "sales" {
		t.Fatalf("sales status = %+v", cubes[0])
	}
	views, err := reg.Views("sales")
	if err != nil || len(views) != 1 || views[0].Name != "public" || len(views[0].Members) != 3 {
		t.Fatalf("views = %+v, %v", views, err)
	}
	if err := reg.SetDefault("inventory"); err != nil {
		t.Fatal(err)
	}
	if reg.Default() != "inventory" {
		t.Fatalf("default = %q", reg.Default())
	}
	if err := reg.SetDefault("ghost"); !errors.Is(err, ErrUnknownCube) {
		t.Fatalf("SetDefault(ghost) err = %v", err)
	}
}

func TestParseCatalogFile(t *testing.T) {
	good := `{
	  "cubes": [
	    {"name": "sales", "csv": "sales.csv", "default": true},
	    {"name": "synth", "gen": 100, "seed": 7}
	  ],
	  "views": [
	    {"name": "public", "cube": "sales", "includes": "*", "excludes": ["day"]},
	    {"name": "aliased", "cube": "sales",
	     "includes": [{"name": "product", "alias": "item"}, "region"],
	     "measures": ["sales"]}
	  ]
	}`
	f, err := Parse([]byte(good))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Cubes) != 2 || len(f.Views) != 2 {
		t.Fatalf("parsed %d cubes, %d views", len(f.Cubes), len(f.Views))
	}
	if !f.Views[0].Includes.Star {
		t.Fatal("includes \"*\" should parse as Star")
	}
	if m := f.Views[1].Includes.Members; len(m) != 2 || m[0].Alias != "item" || m[1].Name != "region" {
		t.Fatalf("members = %+v", m)
	}

	bad := []string{
		`{"cubes": []}`,
		`{"cubes": [{"name": "a", "csv": "x"}, {"name": "a", "csv": "y"}]}`,
		`{"cubes": [{"name": "a"}]}`,
		`{"cubes": [{"name": "a", "csv": "x", "gen": 5}]}`,
		`{"cubes": [{"name": "a", "csv": "x", "default": true}, {"name": "b", "csv": "y", "default": true}]}`,
		`{"cubes": [{"name": "a", "csv": "x"}], "views": [{"name": "v", "cube": "ghost", "includes": "*"}]}`,
		`{"cubes": [{"name": "a", "csv": "x"}], "views": [{"name": "v", "cube": "a", "includes": "nope"}]}`,
	}
	for i, src := range bad {
		if _, err := Parse([]byte(src)); err == nil {
			t.Errorf("bad[%d]: want parse error, got nil", i)
		}
	}
}

func TestFileBuildAndRebuild(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "sales.csv")
	if err := os.WriteFile(csvPath, []byte(salesCSV), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := Parse([]byte(`{
	  "cubes": [
	    {"name": "sales", "csv": "sales.csv", "default": true},
	    {"name": "synth", "gen": 50, "seed": 3}
	  ],
	  "views": [
	    {"name": "public", "cube": "sales", "includes": "*", "excludes": ["day"]}
	  ]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	if err := f.Build(reg, dir); err != nil {
		t.Fatal(err)
	}
	lease, err := reg.Acquire("", "public")
	if err != nil {
		t.Fatal(err)
	}
	groups, _, err := groupsOf(lease.Handle.GroupBy(false, "product"))
	if err != nil || groups["ale"] != 17 {
		t.Fatalf("groups = %v, %v", groups, err)
	}
	lease.Release()

	// Rebuild re-reads the CSV: new rows show up in the next generation.
	if err := os.WriteFile(csvPath, []byte(salesCSV+"ale,east,d3,3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := reg.Rebuild("sales"); err != nil {
		t.Fatal(err)
	}
	lease2, err := reg.Acquire("sales", "")
	if err != nil {
		t.Fatal(err)
	}
	defer lease2.Release()
	groups, _, err = groupsOf(lease2.Handle.GroupBy(false, "product"))
	if err != nil || groups["ale"] != 20 {
		t.Fatalf("groups after rebuild = %v, %v", groups, err)
	}

	synth, err := reg.Acquire("synth", "")
	if err != nil {
		t.Fatal(err)
	}
	defer synth.Release()
	if info := synth.Handle.Info(); len(info.Dimensions) == 0 {
		t.Fatalf("synth info = %+v", info)
	}

	// The builder hands the cube's cells over to the engine: once a
	// reselection drops the root element nothing holds the raw cube.
	if err := synth.Handle.Optimize([]HotView{{Keep: []string{"product"}, Freq: 1}}); err != nil {
		t.Fatal(err)
	}
	if st := synth.Handle.Stats(); st.ResidentCells != st.StorageCells || st.StorageCells != synth.Handle.Info().Volume {
		t.Fatalf("after optimize: %d cells resident, %d stored, volume %d", st.ResidentCells, st.StorageCells, synth.Handle.Info().Volume)
	}
}
