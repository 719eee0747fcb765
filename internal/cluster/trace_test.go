package cluster_test

// Distributed-tracing tests: a traced coordinator query over real TCP
// shards must return one stitched trace whose shard subtrees price each
// shard exactly (ops == that shard's own Explain cost), the scatter must
// stay concurrent under a trace, and sampling must feed the query log.

import (
	"context"
	"fmt"
	"regexp"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"viewcube"
	"viewcube/internal/cluster"
	"viewcube/internal/obs"
)

var clusterExplainCostRe = regexp.MustCompile(`total cost (\d+) ops`)

// shardExplainCost extracts the planner's modelled op total for a group-by
// from one shard engine's own Explain output.
func shardExplainCost(t *testing.T, eng *viewcube.Engine, keep ...string) int64 {
	t.Helper()
	text, err := eng.ExplainGroupBy(keep...)
	if err != nil {
		t.Fatal(err)
	}
	m := clusterExplainCostRe.FindStringSubmatch(text)
	if m == nil {
		t.Fatalf("no cost in explain output:\n%s", text)
	}
	n, err := strconv.ParseInt(m[1], 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestTCPStitchedTraceMatchesExplain is the acceptance check for cluster
// tracing: a traced group-by over real TCP shard servers returns one
// stitched trace with a leg span per shard in shard order, each carrying
// the shard's own internal span subtree — and every subtree's summed "ops"
// reproduces exactly the total cost that shard's Explain reports for the
// same view.
func TestTCPStitchedTraceMatchesExplain(t *testing.T) {
	tables := shardTables(t, 2000, 3)
	engines := shardEngines(t, tables)
	if len(engines) < 2 {
		t.Fatalf("need at least 2 live shards, have %d", len(engines))
	}
	names := shardNames(len(engines))
	shards := make([]cluster.Shard, len(engines))
	for i, sh := range engines {
		addr, _ := startShardServer(t, sh)
		shards[i] = cluster.Shard{Name: names[i], Client: cluster.DialShard(addr, time.Second)}
	}
	coord, err := cluster.NewCoordinator(shards, cluster.Options{Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	oracle := newOracle(t, tables)
	want, err := oracle.GroupBy("product")
	if err != nil {
		t.Fatal(err)
	}
	got, part, tr, err := asGroups(coord.GroupByResult(context.Background(), true, true, "product"))
	if err != nil {
		t.Fatal(err)
	}
	if !part.Complete() {
		t.Fatalf("degraded answer with all shards up: %+v", part)
	}
	sameGroupsExact(t, got, want)

	tree := tr.Tree()
	if len(tree.Children) != len(engines) {
		t.Fatalf("stitched trace has %d legs, want %d:\n%s", len(tree.Children), len(engines), tr)
	}
	var totalOps int64
	for i, leg := range tree.Children {
		if wantName := "shard " + names[i]; leg.Name != wantName {
			t.Fatalf("leg %d named %q, want %q (shard order must be deterministic)", i, leg.Name, wantName)
		}
		if leg.Attrs["ok"] != 1 {
			t.Fatalf("leg %s not ok:\n%s", leg.Name, tr)
		}
		// The shard's internal subtree is grafted as the leg's only child.
		if len(leg.Children) != 1 {
			t.Fatalf("leg %s carries %d subtrees, want 1", leg.Name, len(leg.Children))
		}
		sub := leg.Children[0]
		if sub.Find("plan ") == nil {
			t.Fatalf("shard subtree of %s has no plan span:\n%s", leg.Name, obs.RenderNode(sub))
		}
		wantOps := shardExplainCost(t, engines[i].Engine(), "product")
		if gotOps := sub.SumAttr("ops"); gotOps != wantOps {
			t.Fatalf("leg %s trace ops %d != shard explain cost %d\n%s",
				leg.Name, gotOps, wantOps, obs.RenderNode(sub))
		}
		totalOps += sub.SumAttr("ops")
	}
	if tree.SumAttr("ops") != totalOps {
		t.Fatalf("whole-trace ops %d != sum of shard subtrees %d", tree.SumAttr("ops"), totalOps)
	}
	if totalOps == 0 {
		t.Fatal("every shard priced the view at 0 ops; test exercised nothing")
	}
}

// barrierClient blocks inside Do until every sibling has also entered Do,
// then answers through the inner client. A coordinator that scatters
// serially under a trace deadlocks here (and fails on the timeout).
type barrierClient struct {
	inner   cluster.ShardClient
	arrived *atomic.Int32
	total   int32
	release chan struct{}
}

func (b *barrierClient) Do(ctx context.Context, req *cluster.Request) (*cluster.Response, error) {
	if b.arrived.Add(1) == b.total {
		close(b.release)
	}
	select {
	case <-b.release:
	case <-time.After(5 * time.Second):
		return nil, fmt.Errorf("barrier timeout: scatter is not concurrent under a trace")
	}
	return b.inner.Do(ctx, req)
}

func (b *barrierClient) Close() error { return b.inner.Close() }

// TestTracedScatterIsConcurrent proves the serial-under-trace fallback is
// gone: every shard leg must be in flight at once even when the query
// carries a trace.
func TestTracedScatterIsConcurrent(t *testing.T) {
	engines := shardEngines(t, shardTables(t, 1000, 3))
	if len(engines) < 2 {
		t.Fatalf("need at least 2 live shards, have %d", len(engines))
	}
	arrived := &atomic.Int32{}
	release := make(chan struct{})
	names := shardNames(len(engines))
	shards := make([]cluster.Shard, len(engines))
	for i, sh := range engines {
		shards[i] = cluster.Shard{Name: names[i], Client: &barrierClient{
			inner:   cluster.NewLoopback(sh),
			arrived: arrived,
			total:   int32(len(engines)),
			release: release,
		}}
	}
	coord, err := cluster.NewCoordinator(shards, cluster.Options{Timeout: 10 * time.Second, Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	got, part, tr, err := asGroups(coord.GroupByResult(context.Background(), true, true, "region"))
	if err != nil {
		t.Fatal(err)
	}
	if !part.Complete() {
		t.Fatalf("degraded answer: %+v", part)
	}
	if len(got) == 0 {
		t.Fatal("no groups")
	}
	if legs := len(tr.Tree().Children); legs != len(engines) {
		t.Fatalf("trace has %d legs, want %d", legs, len(engines))
	}
}

// TestSampledTracingAndQueryLog: with TraceSampleRate=1 every query runs
// under a sampled trace and lands in the query log with its stitched tree
// and per-shard cost legs; explicit traces log their ID but not the tree.
func TestSampledTracingAndQueryLog(t *testing.T) {
	engines := shardEngines(t, shardTables(t, 1000, 2))
	qlog, err := obs.NewQueryLog(obs.QueryLogOptions{RingSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	coord, err := cluster.NewCoordinator(loopbackShards(engines), cluster.Options{
		TraceSampleRate: 1,
		QueryLog:        qlog,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	if _, err := coord.GroupBy("product"); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := coord.SumResult(context.Background(), false, false, nil); err != nil {
		t.Fatal(err)
	}
	entries := qlog.Recent(0)
	if len(entries) != 2 {
		t.Fatalf("query log has %d entries, want 2", len(entries))
	}
	// Newest first: Total then GroupBy.
	if entries[0].Kind != "total" || entries[1].Kind != "groupby" {
		t.Fatalf("entry kinds %q, %q; want total, groupby", entries[0].Kind, entries[1].Kind)
	}
	if entries[1].Shape != "product" {
		t.Fatalf("groupby shape %q, want %q", entries[1].Shape, "product")
	}
	for _, e := range entries {
		if !e.Sampled {
			t.Fatalf("entry %+v not sampled with TraceSampleRate=1", e)
		}
		if e.TraceID == "" || e.Trace == nil {
			t.Fatalf("sampled entry missing trace: id=%q tree=%v", e.TraceID, e.Trace)
		}
		if e.Ops <= 0 {
			t.Fatalf("sampled entry has no ops: %+v", e)
		}
		if len(e.Shards) != len(engines) {
			t.Fatalf("entry has %d shard legs, want %d", len(e.Shards), len(engines))
		}
		for _, leg := range e.Shards {
			if !leg.OK || leg.Ops <= 0 {
				t.Fatalf("shard leg %+v: want ok with positive ops", leg)
			}
		}
	}

	// An unsampled coordinator still logs every query — without a trace.
	qlog2, err := obs.NewQueryLog(obs.QueryLogOptions{RingSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	coord2, err := cluster.NewCoordinator(loopbackShards(engines), cluster.Options{QueryLog: qlog2})
	if err != nil {
		t.Fatal(err)
	}
	defer coord2.Close()
	if _, err := coord2.GroupBy("product"); err != nil {
		t.Fatal(err)
	}
	// An explicit trace logs its ID but leaves the tree to the caller.
	if _, _, _, err := coord2.GroupByResult(context.Background(), true, true, "product"); err != nil {
		t.Fatal(err)
	}
	entries = qlog2.Recent(0)
	if len(entries) != 2 {
		t.Fatalf("query log has %d entries, want 2", len(entries))
	}
	traced, plain := entries[0], entries[1]
	if plain.Sampled || plain.TraceID != "" || plain.Trace != nil {
		t.Fatalf("plain entry carries trace state: %+v", plain)
	}
	if plain.DurationUS < 0 || len(plain.Shards) != len(engines) {
		t.Fatalf("plain entry malformed: %+v", plain)
	}
	if traced.Sampled || traced.TraceID == "" || traced.Trace != nil {
		t.Fatalf("explicit-trace entry: sampled=%v id=%q tree=%v; want unsampled, ID set, no tree",
			traced.Sampled, traced.TraceID, traced.Trace)
	}
	if traced.Ops <= 0 {
		t.Fatalf("explicit-trace entry has no ops: %+v", traced)
	}
}
