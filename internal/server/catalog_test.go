package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"viewcube"
	"viewcube/internal/catalog"
	"viewcube/internal/obs"
)

const inventoryCSV = `item,warehouse,day,stock
ale,north,d1,4
ale,south,d1,6
bock,north,d2,9
cider,south,d3,1
`

// newCatalogRegistry builds a two-cube registry: "sales" (the default, with
// a star-minus-day view and an aliasing view) and "inventory".
func newCatalogRegistry(t *testing.T) *catalog.Registry {
	t.Helper()
	reg := catalog.NewRegistry()
	register := func(name, csv, measure string) {
		t.Helper()
		err := reg.Register(name, func() (catalog.CubeHandle, error) {
			cube, err := viewcube.Load(strings.NewReader(csv), measure)
			if err != nil {
				return nil, err
			}
			eng, err := cube.NewEngine(viewcube.EngineOptions{
				Metrics: reg.CubeMetrics(name),
			})
			if err != nil {
				return nil, err
			}
			return catalog.NewSafeHandle(cube, eng), nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	register("sales", salesCSV, "sales")
	register("inventory", inventoryCSV, "stock")
	if err := reg.RegisterView(catalog.ViewSpec{
		Name: "public", Cube: "sales",
		Includes: catalog.All(), Excludes: []string{"day"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterView(catalog.ViewSpec{
		Name: "aliased", Cube: "sales",
		Includes: catalog.IncludeList{Members: []catalog.MemberSpec{
			{Name: "product", Alias: "item"},
			{Name: "region"},
		}},
	}); err != nil {
		t.Fatal(err)
	}
	return reg
}

func newCatalogTS(t *testing.T, opts ...Option) (*httptest.Server, *catalog.Registry) {
	t.Helper()
	reg := newCatalogRegistry(t)
	return newTestServer(t, NewCatalog(reg, append([]Option{quiet}, opts...)...)), reg
}

func TestCatalogCubeRouting(t *testing.T) {
	ts, _ := newCatalogTS(t)

	var listing struct {
		Default string               `json:"default"`
		Cubes   []catalog.CubeStatus `json:"cubes"`
	}
	if resp := getJSON(t, ts.URL+"/cubes", &listing); resp.StatusCode != 200 {
		t.Fatalf("/cubes status %d", resp.StatusCode)
	}
	if listing.Default != "sales" || len(listing.Cubes) != 2 {
		t.Fatalf("listing = %+v", listing)
	}
	if listing.Cubes[0].State != "serving" || listing.Cubes[0].Epoch != 1 {
		t.Fatalf("sales status = %+v", listing.Cubes[0])
	}

	// One process, two cubes: each answers with its own schema.
	var sales, inv map[string]float64
	getJSON(t, ts.URL+"/cubes/sales/groupby?keep=product", &sales)
	getJSON(t, ts.URL+"/cubes/inventory/groupby?keep=item", &inv)
	if sales["ale"] != 17 || inv["ale"] != 10 {
		t.Fatalf("sales[ale]=%v inv[ale]=%v", sales["ale"], inv["ale"])
	}

	// Unknown cube → 404 with the unified error body.
	var errOut map[string]any
	if resp := getJSON(t, ts.URL+"/cubes/ghost/groupby?keep=x", &errOut); resp.StatusCode != 404 {
		t.Fatalf("unknown cube status %d", resp.StatusCode)
	}
	if errOut["code"].(float64) != 404 || errOut["error"] == "" {
		t.Fatalf("error body = %v", errOut)
	}
}

// TestLegacyRoutesGolden pins the byte-exact success bodies of the legacy
// single-cube routes: the catalog refactor must not change what existing
// clients parse.
func TestLegacyRoutesGolden(t *testing.T) {
	ts, _ := newCatalogTS(t)
	golden := []struct {
		path string
		want string
	}{
		{"/groupby?keep=region", `{"east":19,"west":12}` + "\n"},
		{"/range?day=d1:d2", `{"sum":28}` + "\n"},
		{"/info", `{"dimensions":["product","region","day"],"measure":"sales","shape":[4,2,4],"volume":32}` + "\n"},
	}
	for _, g := range golden {
		resp, body := getBody(t, ts.URL+g.path)
		if resp.StatusCode != 200 || body != g.want {
			t.Errorf("%s: status %d body %q, want %q", g.path, resp.StatusCode, body, g.want)
		}
		// The explicit default-cube route answers byte-identically.
		scoped := "/cubes/sales" + g.path
		resp, body = getBody(t, ts.URL+scoped)
		if resp.StatusCode != 200 || body != g.want {
			t.Errorf("%s: status %d body %q, want %q", scoped, resp.StatusCode, body, g.want)
		}
	}
}

func TestViewRoutingAliasesAndExcludes(t *testing.T) {
	ts, _ := newCatalogTS(t)

	// View listing.
	var vl struct {
		Views []catalog.ViewStatus `json:"views"`
	}
	if resp := getJSON(t, ts.URL+"/cubes/sales/views", &vl); resp.StatusCode != 200 {
		t.Fatalf("views status %d", resp.StatusCode)
	}
	if len(vl.Views) != 2 || vl.Views[0].Name != "public" || vl.Views[1].Name != "aliased" {
		t.Fatalf("views = %+v", vl.Views)
	}

	// An aliased SQL query answers identically to the raw one.
	_, aliased := postJSON(t, ts.URL+"/cubes/sales/views/aliased/query",
		map[string]string{"sql": "SELECT SUM(sales) GROUP BY item"})
	_, raw := postJSON(t, ts.URL+"/query",
		map[string]string{"sql": "SELECT SUM(sales) GROUP BY product"})
	if fmt.Sprint(aliased["rows"]) != fmt.Sprint(raw["rows"]) {
		t.Fatalf("aliased rows %v != raw rows %v", aliased["rows"], raw["rows"])
	}
	// ...but reports the view's column names.
	if cols := fmt.Sprint(aliased["columns"]); cols != "[item SUM(sales)]" {
		t.Fatalf("aliased columns = %v", cols)
	}

	// The aliased GROUP BY works through /groupby too.
	var groups map[string]float64
	getJSON(t, ts.URL+"/cubes/sales/views/aliased/groupby?keep=item", &groups)
	if groups["ale"] != 17 {
		t.Fatalf("groups = %v", groups)
	}

	// Members a view does not expose → 404, before any planning.
	for _, path := range []string{
		"/cubes/sales/views/public/groupby?keep=day",       // excluded
		"/cubes/sales/views/aliased/groupby?keep=product",  // hidden by alias
		"/cubes/sales/views/aliased/range?product=ale:ale", // hidden in ranges
		"/cubes/sales/views/public/explain?keep=day",       // excluded in explain
	} {
		var errOut map[string]any
		if resp := getJSON(t, ts.URL+path, &errOut); resp.StatusCode != 404 {
			t.Errorf("%s: status %d, want 404 (%v)", path, resp.StatusCode, errOut)
		}
	}
	resp, _ := postJSON(t, ts.URL+"/cubes/sales/views/public/query",
		map[string]string{"sql": "SELECT SUM(sales) GROUP BY day"})
	if resp.StatusCode != 404 {
		t.Errorf("excluded member in SQL: status %d, want 404", resp.StatusCode)
	}

	// Unknown view → 404.
	var errOut map[string]any
	if resp := getJSON(t, ts.URL+"/cubes/sales/views/ghost/groupby?keep=product", &errOut); resp.StatusCode != 404 {
		t.Fatalf("unknown view status %d", resp.StatusCode)
	}

	// /info through a view lists exposed member names.
	var info map[string]any
	getJSON(t, ts.URL+"/cubes/sales/views/aliased/info", &info)
	if dims := fmt.Sprint(info["dimensions"]); dims != "[item region]" {
		t.Fatalf("view info dimensions = %v", dims)
	}
}

func TestLifecycleEndpoints(t *testing.T) {
	ts, _ := newCatalogTS(t)

	resp, out := postJSON(t, ts.URL+"/cubes/sales/unload", nil)
	if resp.StatusCode != 200 || out["status"] != "ok" {
		t.Fatalf("unload: %d %v", resp.StatusCode, out)
	}
	// Queries against the unloaded cube 404; the other cube is untouched.
	var errOut map[string]any
	if resp := getJSON(t, ts.URL+"/groupby?keep=product", &errOut); resp.StatusCode != 404 {
		t.Fatalf("unloaded query status %d", resp.StatusCode)
	}
	var inv map[string]float64
	if resp := getJSON(t, ts.URL+"/cubes/inventory/groupby?keep=item", &inv); resp.StatusCode != 200 {
		t.Fatalf("inventory during sales unload: %d", resp.StatusCode)
	}
	// Double unload → 404; lifecycle ops on unknown cubes → 404.
	if resp, _ := postJSON(t, ts.URL+"/cubes/sales/unload", nil); resp.StatusCode != 404 {
		t.Fatalf("double unload status %d", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts.URL+"/cubes/ghost/rebuild", nil); resp.StatusCode != 404 {
		t.Fatalf("ghost rebuild status %d", resp.StatusCode)
	}

	if resp, _ := postJSON(t, ts.URL+"/cubes/sales/load", nil); resp.StatusCode != 200 {
		t.Fatalf("load status %d", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts.URL+"/cubes/sales/rebuild", nil); resp.StatusCode != 200 {
		t.Fatalf("rebuild status %d", resp.StatusCode)
	}
	var groups map[string]float64
	if resp := getJSON(t, ts.URL+"/groupby?keep=product", &groups); resp.StatusCode != 200 || groups["ale"] != 17 {
		t.Fatalf("after reload: %d %v", resp.StatusCode, groups)
	}
	// Epoch advanced once per load and once per rebuild.
	var listing struct {
		Cubes []catalog.CubeStatus `json:"cubes"`
	}
	getJSON(t, ts.URL+"/cubes", &listing)
	if listing.Cubes[0].Epoch != 3 {
		t.Fatalf("epoch = %d, want 3", listing.Cubes[0].Epoch)
	}
}

// TestUnloadDuringQueryStorm drives concurrent queries while the cube is
// unloaded and reloaded. Every response must be a clean 200, 404 or 409 —
// an in-flight query holds its lease until it finishes, so unload drains
// rather than racing (run under -race to check the engine side too).
func TestUnloadDuringQueryStorm(t *testing.T) {
	ts, _ := newCatalogTS(t)
	const readers = 8
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 25; j++ {
				resp, err := http.Get(ts.URL + "/cubes/sales/groupby?keep=product")
				if err != nil {
					t.Errorf("get: %v", err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					var groups map[string]float64
					if err := json.Unmarshal(body, &groups); err != nil || groups["ale"] != 17 {
						t.Errorf("bad 200 body: %s (%v)", body, err)
					}
				case http.StatusNotFound, http.StatusConflict:
					var e map[string]any
					if err := json.Unmarshal(body, &e); err != nil || e["code"] == nil {
						t.Errorf("bad error body: %s", body)
					}
				default:
					t.Errorf("unexpected status %d: %s", resp.StatusCode, body)
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			if resp, out := postJSON(t, ts.URL+"/cubes/sales/unload", nil); resp.StatusCode != 200 {
				t.Errorf("unload: %d %v", resp.StatusCode, out)
				return
			}
			if resp, out := postJSON(t, ts.URL+"/cubes/sales/load", nil); resp.StatusCode != 200 {
				t.Errorf("load: %d %v", resp.StatusCode, out)
				return
			}
		}
	}()
	wg.Wait()
	var groups map[string]float64
	if resp := getJSON(t, ts.URL+"/groupby?keep=product", &groups); resp.StatusCode != 200 || groups["ale"] != 17 {
		t.Fatalf("after storm: %d %v", resp.StatusCode, groups)
	}
}

func TestQueryLogRecordsCubeAndView(t *testing.T) {
	qlog, err := obs.NewQueryLog(obs.QueryLogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ts, _ := newCatalogTS(t, WithQueryLog(qlog))

	postJSON(t, ts.URL+"/cubes/sales/views/aliased/query",
		map[string]string{"sql": "SELECT SUM(sales) GROUP BY item"})
	getJSON(t, ts.URL+"/cubes/inventory/groupby?keep=item", new(map[string]float64))

	var out struct {
		Entries []map[string]any `json:"entries"`
	}
	getJSON(t, ts.URL+"/querylog?n=2", &out)
	if len(out.Entries) != 2 {
		t.Fatalf("entries = %d", len(out.Entries))
	}
	// Newest first: the inventory groupby, then the view query.
	if out.Entries[0]["cube"] != "inventory" || out.Entries[0]["view"] != nil {
		t.Fatalf("entry 0 = %v", out.Entries[0])
	}
	if out.Entries[1]["cube"] != "sales" || out.Entries[1]["view"] != "aliased" {
		t.Fatalf("entry 1 = %v", out.Entries[1])
	}
	// The logged shape is the client-facing (aliased) form.
	if out.Entries[1]["shape"] != "SELECT SUM(sales) GROUP BY item" {
		t.Fatalf("shape = %v", out.Entries[1]["shape"])
	}
}

func TestTraceCarriesCubeLabel(t *testing.T) {
	ts, _ := newCatalogTS(t)
	var out struct {
		Trace struct {
			Labels map[string]string `json:"labels"`
		} `json:"trace"`
	}
	getJSON(t, ts.URL+"/cubes/sales/views/public/groupby?keep=product&trace=1", &out)
	if out.Trace.Labels["cube"] != "sales" || out.Trace.Labels["view"] != "public" {
		t.Fatalf("trace labels = %v", out.Trace.Labels)
	}
}

func TestPerCubeMetricsLabels(t *testing.T) {
	ts, _ := newCatalogTS(t)
	getJSON(t, ts.URL+"/cubes/sales/groupby?keep=product", new(map[string]float64))
	getJSON(t, ts.URL+"/cubes/inventory/groupby?keep=item", new(map[string]float64))

	_, body := getBody(t, ts.URL+"/metrics")
	for _, want := range []string{
		`viewcube_http_cube_requests_total{cube="sales"}`,
		`viewcube_http_cube_requests_total{cube="inventory"}`,
		// Engine instruments ride the per-cube sub-registries.
		`cube="sales"`,
		`cube="inventory"`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestAggQueryTraceOpsMatchExplain mirrors TestTraceOpsMatchExplain for the
// vector SQL path: ?trace=1 on a measure-vector cube's /query returns a real
// span tree, and its summed "ops" reproduce exactly the cost ExplainAgg
// reports for the same group-by — the trace is the executed plan, Explain
// the predicted one.
func TestAggQueryTraceOpsMatchExplain(t *testing.T) {
	reg := catalog.NewRegistry()
	tbl, err := viewcube.ReadTable(strings.NewReader(salesCSV), "sales")
	if err != nil {
		t.Fatal(err)
	}
	agg, err := viewcube.NewAggEngine(tbl, viewcube.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterHandle("stats", catalog.NewSafeHandle(agg.Cube(), agg)); err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(t, NewCatalog(reg, quiet))

	var nonZero bool
	for _, keep := range []string{"product", "region", "product,day"} {
		var out struct {
			Trace *obs.Span `json:"trace"`
		}
		resp, err := http.Post(ts.URL+"/cubes/stats/query?trace=1", "application/json",
			strings.NewReader(`{"sql":"SELECT AVG(sales), COUNT(*) GROUP BY `+keep+`"}`))
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if out.Trace == nil || out.Trace.Name != "query" || out.Trace.Find("plan ") == nil {
			t.Fatalf("keep=%s: no real span tree on the agg SQL path: %+v", keep, out.Trace)
		}
		want, err := agg.ExplainAgg(viewcube.AggAvg, strings.Split(keep, ",")...)
		if err != nil {
			t.Fatal(err)
		}
		var cost int64
		if _, err := fmt.Sscanf(want[strings.LastIndex(want, "total cost "):], "total cost %d ops", &cost); err != nil {
			t.Fatalf("no cost in explain output:\n%s", want)
		}
		if got := out.Trace.SumAttr("ops"); got != cost {
			t.Fatalf("keep=%s: trace ops %d != explain cost %d", keep, got, cost)
		}
		nonZero = nonZero || cost > 0
	}
	if !nonZero {
		t.Fatal("every tested view was free to assemble; test exercised nothing")
	}
}
