package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"viewcube"
	"viewcube/internal/relation"
)

// quiet discards request logs so test output stays readable.
var quiet = WithLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))

const salesCSV = `product,region,day,sales
ale,east,d1,10
ale,west,d1,5
ale,east,d2,2
bock,east,d1,7
bock,west,d2,4
cider,west,d3,3
`

func newCubeEngine(t *testing.T) (*viewcube.Cube, *viewcube.Engine) {
	t.Helper()
	cube, err := viewcube.Load(strings.NewReader(salesCSV), "sales")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := cube.NewEngine(viewcube.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return cube, eng
}

func newTestServer(t *testing.T, h http.Handler) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts
}

func newServer(t *testing.T) *httptest.Server {
	t.Helper()
	cube, eng := newCubeEngine(t)
	return newTestServer(t, New(cube, eng, quiet))
}

func postJSON(t *testing.T, url string, body any) (*http.Response, map[string]any) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func getJSON(t *testing.T, url string, into any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestQueryEndpoint(t *testing.T) {
	ts := newServer(t)
	resp, out := postJSON(t, ts.URL+"/query", map[string]string{
		"sql": "SELECT SUM(sales) GROUP BY product",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, out)
	}
	rows := out["rows"].([]any)
	if len(rows) != 3 {
		t.Fatalf("rows %v", rows)
	}
	first := rows[0].(map[string]any)
	if first["key"].([]any)[0] != "ale" || first["values"].([]any)[0].(float64) != 17 {
		t.Fatalf("first row %v", first)
	}
	// Bad SQL → 400 with an error body.
	resp, out = postJSON(t, ts.URL+"/query", map[string]string{"sql": "garbage"})
	if resp.StatusCode != http.StatusBadRequest || out["error"] == "" {
		t.Fatalf("bad sql: status %d body %v", resp.StatusCode, out)
	}
}

func TestGroupByAndRangeEndpoints(t *testing.T) {
	ts := newServer(t)
	var groups map[string]float64
	if resp := getJSON(t, ts.URL+"/groupby?keep=region", &groups); resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if groups["east"] != 19 || groups["west"] != 12 {
		t.Fatalf("groups %v", groups)
	}
	var rangeOut map[string]float64
	if resp := getJSON(t, ts.URL+"/range?day=d1:d2", &rangeOut); resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if rangeOut["sum"] != 28 {
		t.Fatalf("range %v", rangeOut)
	}
	var errOut map[string]any
	if resp := getJSON(t, ts.URL+"/range?day=oops", &errOut); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed range: status %d", resp.StatusCode)
	}
	if errOut["code"].(float64) != http.StatusBadRequest {
		t.Fatalf("error body should echo the status code: %v", errOut)
	}
}

func TestUpdateAndStatsEndpoints(t *testing.T) {
	ts := newServer(t)
	resp, _ := postJSON(t, ts.URL+"/update", map[string]any{
		"delta":  5,
		"values": map[string]string{"product": "ale", "region": "east", "day": "d1"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update status %d", resp.StatusCode)
	}
	var groups map[string]float64
	getJSON(t, ts.URL+"/groupby?keep=product", &groups)
	if groups["ale"] != 22 {
		t.Fatalf("post-update groups %v", groups)
	}
	var stats map[string]any
	if resp := getJSON(t, ts.URL+"/stats", &stats); resp.StatusCode != 200 {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
	if stats["Queries"].(float64) < 1 {
		t.Fatalf("stats %v", stats)
	}
	var info map[string]any
	getJSON(t, ts.URL+"/info", &info)
	if info["measure"] != "sales" {
		t.Fatalf("info %v", info)
	}
}

func TestOptimizeEndpoint(t *testing.T) {
	ts := newServer(t)
	resp, _ := postJSON(t, ts.URL+"/optimize", map[string]any{
		"views": []map[string]any{{"keep": []string{"product"}, "freq": 1.0}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("optimize status %d", resp.StatusCode)
	}
	var groups map[string]float64
	getJSON(t, ts.URL+"/groupby?keep=product", &groups)
	if groups["ale"] != 17 {
		t.Fatalf("post-optimize groups %v", groups)
	}
	resp, _ = postJSON(t, ts.URL+"/optimize", map[string]any{
		"views": []map[string]any{{"keep": []string{"nope"}, "freq": 1.0}},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad optimize status %d", resp.StatusCode)
	}
}

func TestConcurrentClients(t *testing.T) {
	ts := newServer(t)
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				var groups map[string]float64
				resp, err := http.Get(ts.URL + "/groupby?keep=product")
				if err != nil {
					errs <- err
					return
				}
				if err := json.NewDecoder(resp.Body).Decode(&groups); err != nil {
					errs <- err
				}
				resp.Body.Close()
				if groups["ale"] != 17 {
					errs <- err
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestUpdateOverflowRejected: finite deltas could sum a cell to +Inf (three
// of 6e307 do), after which every covering answer failed to encode. The
// delta that would take the cube's Σ|v| past the bound is rejected instead,
// and the group-bys stay answerable.
func TestUpdateOverflowRejected(t *testing.T) {
	cube, err := viewcube.Load(strings.NewReader("a,b,m\nx,p,1\ny,q,2\n"), "m")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := cube.NewEngine(viewcube.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(t, New(cube, eng, quiet))
	update := map[string]any{"delta": 6e307, "values": map[string]string{"a": "x", "b": "p"}}
	if resp, body := postJSON(t, ts.URL+"/update", update); resp.StatusCode != http.StatusOK {
		t.Fatalf("first update: %d %v", resp.StatusCode, body)
	}
	for i := 2; i <= 3; i++ {
		resp, body := postJSON(t, ts.URL+"/update", update)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(fmt.Sprint(body["error"]), "past") {
			t.Fatalf("update %d: %d %v, want a 400 naming the bound", i, resp.StatusCode, body)
		}
	}
	for _, keep := range []string{"a", "b"} {
		var groups map[string]float64
		if resp := getJSON(t, ts.URL+"/groupby?keep="+keep, &groups); resp.StatusCode != http.StatusOK {
			t.Fatalf("groupby keep=%s: status %d", keep, resp.StatusCode)
		}
	}
}

// TestUnencodableAnswerIs500: an answer the encoder cannot write is the
// server's fault, on a node and on a coordinator.
func TestUnencodableAnswerIs500(t *testing.T) {
	_, err := relation.AppendJSONFloat(nil, math.Inf(1))
	if !errors.Is(err, relation.ErrUnencodable) {
		t.Fatalf("AppendJSONFloat(+Inf): %v", err)
	}
	wrapped := fmt.Errorf("encoding: %w", err)
	if got := statusFor(wrapped); got != http.StatusInternalServerError {
		t.Fatalf("statusFor: %d", got)
	}
	if got := queryStatus(wrapped); got != http.StatusInternalServerError {
		t.Fatalf("queryStatus: %d", got)
	}
}

// postOversized posts a JSON body just past maxBodyBytes to path and wants a
// 413 with the usual JSON error body; a well-formed request on the same
// server still answers afterwards.
func postOversized(t *testing.T, path string) {
	t.Helper()
	ts := newServer(t)
	body := `{"pad":"` + strings.Repeat("a", maxBodyBytes+1024) + `"}`
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out errorBody
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge || out.Code != http.StatusRequestEntityTooLarge || out.Error == "" {
		t.Fatalf("%s: status %d body %+v, want 413 with an error body", path, resp.StatusCode, out)
	}
	var groups map[string]float64
	if resp := getJSON(t, ts.URL+"/groupby?keep=product", &groups); resp.StatusCode != http.StatusOK || groups["ale"] != 17 {
		t.Fatalf("groupby after the oversized body: status %d groups %v", resp.StatusCode, groups)
	}
}

func TestQueryBodyTooLarge(t *testing.T)    { postOversized(t, "/query") }
func TestUpdateBodyTooLarge(t *testing.T)   { postOversized(t, "/update") }
func TestIngestBodyTooLarge(t *testing.T)   { postOversized(t, "/ingest") }
func TestOptimizeBodyTooLarge(t *testing.T) { postOversized(t, "/optimize") }
