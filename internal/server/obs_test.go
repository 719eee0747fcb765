package server

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"viewcube"
	"viewcube/internal/catalog"
)

func getBody(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(body)
}

func TestHealthz(t *testing.T) {
	ts := newServer(t)
	var out map[string]string
	if resp := getJSON(t, ts.URL+"/healthz", &out); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	if out["status"] != "ok" {
		t.Fatalf("healthz body %v", out)
	}
}

// ingestHandle is a handle with the streaming-write face.
type ingestHandle interface {
	catalog.CubeHandle
	catalog.Ingester
}

// degradedHandle reports its ingest as stopped on a failed merge.
type degradedHandle struct{ ingestHandle }

func (h degradedHandle) IngestStats() viewcube.IngestStats {
	st := h.ingestHandle.IngestStats()
	st.Degraded = "viewcube: ingest is degraded: injected"
	return st
}

// TestHealthzDegraded: a cube whose ingest is degraded turns /healthz into a
// 503 that names it.
func TestHealthzDegraded(t *testing.T) {
	cube, eng := newCubeEngine(t)
	h := catalog.NewSafeHandle(cube, eng)
	reg := catalog.NewRegistry()
	if err := reg.RegisterHandle("sales", degradedHandle{h.(ingestHandle)}); err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(t, NewCatalog(reg, quiet))
	var out struct {
		Status   string   `json:"status"`
		Degraded []string `json:"degraded"`
	}
	if resp := getJSON(t, ts.URL+"/healthz", &out); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz status %d, want 503", resp.StatusCode)
	}
	if out.Status != "degraded" || len(out.Degraded) != 1 || out.Degraded[0] != "sales" {
		t.Fatalf("healthz body %+v", out)
	}
}

func TestMetricsExposition(t *testing.T) {
	ts := newServer(t)
	// Drive some work so the counters move.
	postJSON(t, ts.URL+"/query", map[string]string{"sql": "SELECT SUM(sales) GROUP BY product"})
	var rangeOut map[string]float64
	getJSON(t, ts.URL+"/range?day=d1:d2", &rangeOut)

	resp, body := getBody(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	// Prometheus text exposition: every series line must be "name value" or
	// "name{labels} value", and every family needs HELP and TYPE headers.
	families := map[string]bool{}
	for _, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			families[strings.Fields(line)[2]] = true
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed exposition line %q", line)
		}
	}
	for _, want := range []string{
		"viewcube_query_seconds",          // latency histogram
		"viewcube_store_cache_hits_total", // store cache
		"viewcube_store_cache_misses_total",
		"viewcube_reselections_total", // adaptive reselection
		"viewcube_http_requests_total",
	} {
		if !families[want] {
			t.Fatalf("metric family %q missing from exposition:\n%s", want, body)
		}
	}
	// The histogram must expose cumulative buckets, sum and count, and the
	// traffic driven above must be visible in the query counters.
	for _, want := range []string{
		`viewcube_query_seconds_bucket{le="+Inf"}`,
		"viewcube_query_seconds_sum",
		"viewcube_query_seconds_count",
		`viewcube_queries_total{kind="sql"} 1`,
		`viewcube_queries_total{kind="range"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition missing %q:\n%s", want, body)
		}
	}
}

func TestQueryTraceParam(t *testing.T) {
	ts := newServer(t)
	resp, out := postJSON(t, ts.URL+"/query?trace=1", map[string]string{
		"sql": "SELECT SUM(sales) GROUP BY product",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, out)
	}
	tr, ok := out["trace"].(map[string]any)
	if !ok {
		t.Fatalf("trace missing from response: %v", out)
	}
	// Span tree shape: {name, duration_us, children}.
	if tr["name"] != "query" {
		t.Fatalf("root span %v", tr)
	}
	if _, ok := tr["duration_us"].(float64); !ok {
		t.Fatalf("root span has no duration: %v", tr)
	}
	children, ok := tr["children"].([]any)
	if !ok || len(children) == 0 {
		t.Fatalf("root span has no children: %v", tr)
	}
	// Untraced requests must not carry the field.
	_, out = postJSON(t, ts.URL+"/query", map[string]string{
		"sql": "SELECT SUM(sales) GROUP BY product",
	})
	if _, present := out["trace"]; present {
		t.Fatalf("untraced response carries a trace: %v", out)
	}
}

func TestGroupByAndRangeTraceParam(t *testing.T) {
	ts := newServer(t)
	var out map[string]any
	getJSON(t, ts.URL+"/groupby?keep=product&trace=1", &out)
	if _, ok := out["groups"].(map[string]any); !ok {
		t.Fatalf("traced groupby missing groups: %v", out)
	}
	if _, ok := out["trace"].(map[string]any); !ok {
		t.Fatalf("traced groupby missing trace: %v", out)
	}
	out = nil
	getJSON(t, ts.URL+"/range?day=d1:d2&trace=1", &out)
	if out["sum"].(float64) != 28 {
		t.Fatalf("traced range sum %v", out)
	}
	if _, ok := out["trace"].(map[string]any); !ok {
		t.Fatalf("traced range missing trace: %v", out)
	}
}

func TestExplainEndpoint(t *testing.T) {
	ts := newServer(t)
	var out map[string]any
	if resp := getJSON(t, ts.URL+"/explain?keep=product", &out); resp.StatusCode != http.StatusOK {
		t.Fatalf("explain status %d", resp.StatusCode)
	}
	text, ok := out["text"].(string)
	if !ok || !strings.Contains(text, "total cost") || !strings.Contains(text, "plan cache") {
		t.Fatalf("explain text %q", text)
	}
	pc, ok := out["plan_cache"].(map[string]any)
	if !ok {
		t.Fatalf("explain missing plan_cache: %v", out)
	}
	if pc["hits"].(float64)+pc["misses"].(float64) < 1 {
		t.Fatalf("explain did not touch the plan cache: %v", pc)
	}
	// Explaining twice must hit the shared plan cache the second time.
	out = nil
	getJSON(t, ts.URL+"/explain?keep=product", &out)
	if text := out["text"].(string); !strings.Contains(text, "plan cache hit") {
		t.Fatalf("second explain not a cache hit: %q", text)
	}
}

func TestEnrichedStats(t *testing.T) {
	ts := newServer(t)
	var groups map[string]float64
	getJSON(t, ts.URL+"/groupby?keep=product", &groups)
	var stats map[string]any
	getJSON(t, ts.URL+"/stats", &stats)
	// Historical flat keys survive the enrichment.
	if stats["Queries"].(float64) < 1 {
		t.Fatalf("stats lost the adaptive counters: %v", stats)
	}
	st, ok := stats["store"].(map[string]any)
	if !ok {
		t.Fatalf("stats missing store block: %v", stats)
	}
	for _, key := range []string{"cache_hits", "cache_misses", "cached_cells"} {
		if _, ok := st[key]; !ok {
			t.Fatalf("store stats missing %q: %v", key, st)
		}
	}
	if stats["materialized_elements"].(float64) <= 0 {
		t.Fatalf("stats materialized_elements: %v", stats)
	}
}

func TestPprofOptIn(t *testing.T) {
	// Default server: pprof absent.
	ts := newServer(t)
	resp, _ := getBody(t, ts.URL+"/debug/pprof/cmdline")
	if resp.StatusCode == http.StatusOK {
		t.Fatal("pprof reachable without opt-in")
	}
	// Opted in: index responds.
	cube, eng := newCubeEngine(t)
	ts2 := newTestServer(t, New(cube, eng, quiet, WithPprof()))
	resp, body := getBody(t, ts2.URL+"/debug/pprof/")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof index status %d", resp.StatusCode)
	}
}
