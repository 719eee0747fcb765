package server

// Query-log and sampled-tracing tests for both HTTP faces: the single-node
// server's /querylog analytics feed and the coordinator's stitched-trace
// endpoint backed by the cluster query log.

import (
	"io"
	"log/slog"
	"testing"
	"time"

	"viewcube/internal/cluster"
	"viewcube/internal/obs"
)

func TestServerQueryLogAndSampling(t *testing.T) {
	cube, eng := newCubeEngine(t)
	qlog, err := obs.NewQueryLog(obs.QueryLogOptions{RingSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(t, New(cube, eng, quiet, WithQueryLog(qlog), WithTraceSampling(1)))

	// Two identical group-bys: the second must be a plan-cache hit.
	var groups map[string]float64
	for i := 0; i < 2; i++ {
		if resp := getJSON(t, ts.URL+"/groupby?keep=product", &groups); resp.StatusCode != 200 {
			t.Fatalf("groupby status %d", resp.StatusCode)
		}
	}
	if len(groups) == 0 {
		t.Fatal("no groups")
	}
	var rangeResp map[string]float64
	if resp := getJSON(t, ts.URL+"/range?day=d1:d2", &rangeResp); resp.StatusCode != 200 {
		t.Fatalf("range status %d", resp.StatusCode)
	}
	// A failing query must be logged too.
	var errOut map[string]any
	if resp := getJSON(t, ts.URL+"/groupby?keep=nope", &errOut); resp.StatusCode != 400 {
		t.Fatalf("bad groupby status %d", resp.StatusCode)
	}

	var log struct {
		Total   uint64           `json:"total"`
		Entries []obs.QueryEntry `json:"entries"`
	}
	if resp := getJSON(t, ts.URL+"/querylog", &log); resp.StatusCode != 200 {
		t.Fatalf("querylog status %d", resp.StatusCode)
	}
	if log.Total != 4 || len(log.Entries) != 4 {
		t.Fatalf("querylog total=%d entries=%d, want 4/4", log.Total, len(log.Entries))
	}
	// Newest first: bad groupby, range, warm groupby, cold groupby.
	bad, rng, warm, cold := log.Entries[0], log.Entries[1], log.Entries[2], log.Entries[3]
	if bad.Error == "" || bad.Shape != "nope" {
		t.Fatalf("error entry %+v", bad)
	}
	if rng.Kind != "range" || rng.Shape != "day=[d1,d2]" {
		t.Fatalf("range entry %+v", rng)
	}
	for _, e := range []obs.QueryEntry{cold, warm} {
		if e.Kind != "groupby" || e.Shape != "product" {
			t.Fatalf("groupby entry %+v", e)
		}
		if !e.Sampled || e.Trace == nil || e.TraceID == "" {
			t.Fatalf("entry not sampled with rate 1: %+v", e)
		}
		if e.Ops <= 0 || e.PlanCacheHit == nil {
			t.Fatalf("entry missing cost profile: %+v", e)
		}
	}
	if *cold.PlanCacheHit {
		t.Fatalf("first groupby was a plan-cache hit: %+v", cold)
	}
	if !*warm.PlanCacheHit {
		t.Fatalf("repeated groupby missed the plan cache: %+v", warm)
	}

	// ?n= bounds the response.
	if resp := getJSON(t, ts.URL+"/querylog?n=2", &log); resp.StatusCode != 200 {
		t.Fatalf("querylog?n=2 status %d", resp.StatusCode)
	}
	if log.Total != 4 || len(log.Entries) != 2 {
		t.Fatalf("querylog?n=2 total=%d entries=%d, want 4/2", log.Total, len(log.Entries))
	}
}

// TestServerSamplingDoesNotChangeResponses: a sampled query answers with
// the plain (traceless) response shape.
func TestServerSamplingDoesNotChangeResponses(t *testing.T) {
	cube, eng := newCubeEngine(t)
	ts := newTestServer(t, New(cube, eng, quiet, WithTraceSampling(1)))
	var out map[string]float64
	if resp := getJSON(t, ts.URL+"/groupby?keep=product", &out); resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	// A trace-bearing response would nest the groups under "groups" and
	// fail to decode as map[string]float64.
	if out["ale"] != 17 {
		t.Fatalf("groups %v", out)
	}
}

func TestCoordinatorServerTraceAndQueryLog(t *testing.T) {
	qlog, err := obs.NewQueryLog(obs.QueryLogOptions{RingSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	coord, err := cluster.NewCoordinator(coordShards(t), cluster.Options{
		Timeout:  time.Second,
		QueryLog: qlog,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	quietLog := WithCoordinatorLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))
	ts := newTestServer(t, NewCoordinator(coord, quietLog, WithCoordinatorQueryLog(qlog)))

	var out struct {
		Groups  map[string]float64 `json:"groups"`
		Partial *struct{}          `json:"partial"`
		Trace   *obs.Span          `json:"trace"`
	}
	if code := getJSONBody(t, ts.URL+"/groupby?keep=product&trace=1", &out); code != 200 {
		t.Fatalf("traced groupby status %d", code)
	}
	if out.Groups["ale"] != 17 || out.Groups["bock"] != 11 || out.Groups["cider"] != 3 {
		t.Fatalf("groups %v", out.Groups)
	}
	if out.Trace == nil || len(out.Trace.Children) != 2 {
		t.Fatalf("stitched trace missing shard legs: %+v", out.Trace)
	}
	for i, name := range []string{"shard a", "shard b"} {
		leg := out.Trace.Children[i]
		if leg.Name != name {
			t.Fatalf("leg %d named %q, want %q", i, leg.Name, name)
		}
		if len(leg.Children) != 1 || leg.Children[0].SumAttr("ops") <= 0 {
			t.Fatalf("leg %q has no shard subtree with ops: %+v", name, leg)
		}
	}

	var log struct {
		Total   uint64           `json:"total"`
		Entries []obs.QueryEntry `json:"entries"`
	}
	if code := getJSONBody(t, ts.URL+"/querylog", &log); code != 200 {
		t.Fatalf("querylog status %d", code)
	}
	if log.Total != 1 || len(log.Entries) != 1 {
		t.Fatalf("querylog total=%d entries=%d, want 1/1", log.Total, len(log.Entries))
	}
	e := log.Entries[0]
	if e.Kind != "groupby" || e.Shape != "product" || e.TraceID == "" || len(e.Shards) != 2 {
		t.Fatalf("entry %+v", e)
	}
}
