package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"viewcube"
	"viewcube/internal/cluster"
)

// downClient refuses every call, simulating a dead shard.
type downClient struct{}

func (downClient) Do(context.Context, *cluster.Request) (*cluster.Response, error) {
	return nil, errors.New("connection refused")
}
func (downClient) Close() error { return nil }

func shardEngineFromCSV(t *testing.T, csv string) *cluster.ShardEngine {
	t.Helper()
	cube, err := viewcube.Load(strings.NewReader(csv), "sales")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := cube.NewEngine(viewcube.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return cluster.NewShardEngine(cube, eng)
}

func newCoordinatorServer(t *testing.T, shards []cluster.Shard) (*httptest.Server, *cluster.Coordinator) {
	t.Helper()
	coord, err := cluster.NewCoordinator(shards, cluster.Options{
		Timeout: time.Second,
		Backoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	quietLog := WithCoordinatorLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))
	return newTestServer(t, NewCoordinator(coord, quietLog)), coord
}

func coordShards(t *testing.T) []cluster.Shard {
	t.Helper()
	shardA := shardEngineFromCSV(t, `product,region,day,sales
ale,east,d1,10
ale,west,d1,5
bock,east,d1,7
`)
	shardB := shardEngineFromCSV(t, `product,region,day,sales
ale,east,d2,2
bock,west,d2,4
cider,west,d3,3
`)
	return []cluster.Shard{
		{Name: "a", Client: cluster.NewLoopback(shardA)},
		{Name: "b", Client: cluster.NewLoopback(shardB)},
	}
}

func getJSONBody(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
	return resp.StatusCode
}

func TestCoordinatorServerGroupBy(t *testing.T) {
	ts, _ := newCoordinatorServer(t, coordShards(t))
	var groups map[string]float64
	if code := getJSONBody(t, ts.URL+"/groupby?keep=product", &groups); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	want := map[string]float64{"ale": 17, "bock": 11, "cider": 3}
	if len(groups) != len(want) {
		t.Fatalf("groups = %v, want %v", groups, want)
	}
	for k, v := range want {
		if groups[k] != v {
			t.Fatalf("group %q = %v, want %v", k, groups[k], v)
		}
	}
}

func TestCoordinatorServerTotalAndRange(t *testing.T) {
	ts, _ := newCoordinatorServer(t, coordShards(t))
	var total map[string]float64
	if code := getJSONBody(t, ts.URL+"/total", &total); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if total["sum"] != 31 {
		t.Fatalf("total = %v, want 31", total["sum"])
	}
	var rng map[string]float64
	if code := getJSONBody(t, ts.URL+"/range?day=d1:d2", &rng); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if rng["sum"] != 28 {
		t.Fatalf("range = %v, want 28", rng["sum"])
	}
}

func TestCoordinatorServerPartial(t *testing.T) {
	shards := coordShards(t)
	shards[1].Client = downClient{}
	ts, _ := newCoordinatorServer(t, shards)

	// Exact query must refuse to answer with a shard down.
	var errResp map[string]any
	if code := getJSONBody(t, ts.URL+"/total", &errResp); code != http.StatusBadGateway {
		t.Fatalf("exact query with dead shard: status %d, body %v", code, errResp)
	}

	// partial=1 answers with the live shard and names the dead one.
	var out struct {
		Sum     float64                `json:"sum"`
		Partial *cluster.PartialResult `json:"partial"`
	}
	if code := getJSONBody(t, ts.URL+"/total?partial=1", &out); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if out.Sum != 22 {
		t.Fatalf("partial total = %v, want 22 (shard a only)", out.Sum)
	}
	if out.Partial == nil || len(out.Partial.Missing) != 1 || out.Partial.Missing[0] != "b" {
		t.Fatalf("partial = %+v, want missing [b]", out.Partial)
	}
}

func TestCoordinatorServerBadQuery(t *testing.T) {
	ts, _ := newCoordinatorServer(t, coordShards(t))
	var errResp map[string]any
	if code := getJSONBody(t, ts.URL+"/groupby?keep=nope", &errResp); code != http.StatusBadRequest {
		t.Fatalf("unknown dimension: status %d, body %v", code, errResp)
	}
}

func TestCoordinatorServerMetricsAndShards(t *testing.T) {
	ts, _ := newCoordinatorServer(t, coordShards(t))
	var shards map[string][]string
	if code := getJSONBody(t, ts.URL+"/shards", &shards); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(shards["shards"]) != 2 {
		t.Fatalf("shards = %v", shards)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "viewcube_cluster_queries_total") {
		t.Fatal("metrics exposition is missing cluster counters")
	}
	var health map[string]any
	if code := getJSONBody(t, ts.URL+"/healthz", &health); code != http.StatusOK {
		t.Fatalf("healthz status %d", code)
	}
}
