package server

// The coordinator's new error taxonomy and cache surface through HTTP:
// admission shed is 429, a fully dead tier is 503 (both as structured
// {error, code} bodies), and POST /invalidate drops cached answers.

import (
	"context"
	"io"
	"log/slog"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"viewcube/internal/cluster"
	"viewcube/internal/rescache"
)

func quietCoordLog() CoordinatorOption {
	return WithCoordinatorLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))
}

// stallClient parks every call until release closes (or the context dies).
type stallClient struct {
	inner   cluster.ShardClient
	release chan struct{}
	arrived atomic.Int32
}

func (s *stallClient) Do(ctx context.Context, req *cluster.Request) (*cluster.Response, error) {
	s.arrived.Add(1)
	select {
	case <-s.release:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return s.inner.Do(ctx, req)
}

func (s *stallClient) Close() error { return s.inner.Close() }

func TestCoordinatorServerOverloadAndUnavailable(t *testing.T) {
	// All shards down in exact mode → 503 with a structured body.
	downShards := []cluster.Shard{
		{Name: "a", Client: downClient{}},
		{Name: "b", Client: downClient{}},
	}
	ts, _ := newCoordinatorServer(t, downShards)
	var body struct {
		Error string `json:"error"`
		Code  int    `json:"code"`
	}
	if code := getJSONBody(t, ts.URL+"/total", &body); code != http.StatusServiceUnavailable {
		t.Fatalf("all shards down: status %d, body %+v", code, body)
	}
	if body.Code != http.StatusServiceUnavailable || body.Error == "" {
		t.Fatalf("503 body %+v, want structured {error, code}", body)
	}

	// A saturated admission valve → 429 with a structured body.
	stalled := &stallClient{inner: coordShards(t)[0].Client, release: make(chan struct{})}
	coord, err := cluster.NewCoordinator(
		[]cluster.Shard{{Name: "a", Client: stalled}},
		cluster.Options{
			Timeout:      5 * time.Second,
			Retries:      -1,
			MaxInFlight:  1,
			QueueTimeout: 10 * time.Millisecond,
		})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	ts2 := newTestServer(t, NewCoordinator(coord, quietCoordLog()))

	hold := make(chan error, 1)
	go func() {
		_, _, _, err := coord.SumResult(context.Background(), false, false, nil)
		hold <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for stalled.arrived.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stalled query never reached the shard")
		}
		time.Sleep(time.Millisecond)
	}
	if code := getJSONBody(t, ts2.URL+"/total", &body); code != http.StatusTooManyRequests {
		t.Fatalf("saturated tier: status %d, body %+v", code, body)
	}
	if body.Code != http.StatusTooManyRequests || body.Error == "" {
		t.Fatalf("429 body %+v, want structured {error, code}", body)
	}
	close(stalled.release)
	if err := <-hold; err != nil {
		t.Fatalf("held query failed after release: %v", err)
	}
}

func TestCoordinatorServerInvalidateEndpoint(t *testing.T) {
	coord, err := cluster.NewCoordinator(coordShards(t), cluster.Options{
		Timeout: time.Second,
		Cache:   &rescache.Options{},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	ts := newTestServer(t, NewCoordinator(coord, quietCoordLog()))

	var groups map[string]float64
	for i := 0; i < 2; i++ {
		if code := getJSONBody(t, ts.URL+"/groupby?keep=product", &groups); code != 200 {
			t.Fatalf("status %d", code)
		}
	}
	var shardsOut struct {
		ResultCache *rescache.Stats `json:"result_cache"`
	}
	if code := getJSONBody(t, ts.URL+"/shards", &shardsOut); code != 200 {
		t.Fatalf("shards status %d", code)
	}
	if shardsOut.ResultCache == nil || shardsOut.ResultCache.Hits < 1 || shardsOut.ResultCache.Entries != 1 {
		t.Fatalf("/shards result_cache %+v", shardsOut.ResultCache)
	}

	resp, body := postJSON(t, ts.URL+"/invalidate", map[string]any{})
	if resp.StatusCode != 200 || body["epoch"] == nil {
		t.Fatalf("invalidate: status %d body %v", resp.StatusCode, body)
	}
	if code := getJSONBody(t, ts.URL+"/shards", &shardsOut); code != 200 {
		t.Fatalf("shards status %d", code)
	}
	if shardsOut.ResultCache.Entries != 0 || shardsOut.ResultCache.Invalidations != 1 {
		t.Fatalf("post-invalidate result_cache %+v", shardsOut.ResultCache)
	}
	// The next read recomputes the same answer.
	var fresh map[string]float64
	if code := getJSONBody(t, ts.URL+"/groupby?keep=product", &fresh); code != 200 {
		t.Fatalf("status %d", code)
	}
	if fresh["ale"] != groups["ale"] {
		t.Fatalf("post-invalidate %v vs %v", fresh, groups)
	}
}
