package cluster_test

import (
	"bytes"
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"viewcube"
	"viewcube/internal/cluster"
	"viewcube/internal/obs"
	"viewcube/internal/workload"
)

// deterministicOpts are the options of every engine the oracle tests build:
// plan execution is deterministic, so two engines built from the same table
// produce bit-identical answers — the basis of the exact-equality oracles.
var deterministicOpts = viewcube.EngineOptions{}

// salesTable generates a synthetic sales relation as a public Table.
func salesTable(t testing.TB, rows int) *viewcube.Table {
	t.Helper()
	raw, err := workload.SalesTable(rand.New(rand.NewSource(17)), 40, 6, 30, rows)
	if err != nil {
		t.Fatal(err)
	}
	var sb bytes.Buffer
	if err := raw.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	tbl, err := viewcube.ReadTable(&sb, "sales")
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// shardTables hash-partitions a sales relation on product.
func shardTables(t testing.TB, rows, n int) []*viewcube.Table {
	t.Helper()
	tables, err := viewcube.PartitionTable(salesTable(t, rows), "product", n)
	if err != nil {
		t.Fatal(err)
	}
	return tables
}

// shardEngines builds one ShardEngine per non-empty shard table, in table
// order. The oracle is built by the same function, so its shard order and
// merge order match the coordinator's exactly.
func shardEngines(t testing.TB, tables []*viewcube.Table) []*cluster.ShardEngine {
	t.Helper()
	var out []*cluster.ShardEngine
	for _, tbl := range tables {
		if tbl.Len() == 0 {
			continue
		}
		out = append(out, cluster.NewShardEngine(tableEngine(t, tbl)))
	}
	return out
}

// tableEngine builds a cube and its engine over one table.
func tableEngine(t testing.TB, tbl *viewcube.Table) (*viewcube.Cube, *viewcube.Engine) {
	t.Helper()
	cube, err := viewcube.FromRelation(tbl)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := cube.NewEngine(deterministicOpts)
	if err != nil {
		t.Fatal(err)
	}
	return cube, eng
}

// shardNames names shards s0, s1, ... in order.
func shardNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = "s" + string(rune('0'+i))
	}
	return names
}

// loopbackShards wires ShardEngines into coordinator shards over the
// in-process codec transport.
func loopbackShards(engines []*cluster.ShardEngine) []cluster.Shard {
	names := shardNames(len(engines))
	shards := make([]cluster.Shard, len(engines))
	for i, sh := range engines {
		shards[i] = cluster.Shard{Name: names[i], Client: cluster.NewLoopback(sh)}
	}
	return shards
}

// oracle answers the coordinator's reads by a serial fan-out over one
// engine per shard: each read runs on every shard in shard order, group-bys
// merge with viewcube.MergeResults and sums add up in shard order. That is
// the merge the coordinator does, so its answers must equal the oracle's
// bit for bit.
type oracle []*viewcube.Engine

// newOracle builds the oracle over fresh shard engines for the same tables.
func newOracle(t testing.TB, tables []*viewcube.Table) oracle {
	t.Helper()
	var o oracle
	for _, sh := range shardEngines(t, tables) {
		o = append(o, sh.Engine())
	}
	return o
}

func (o oracle) GroupBy(keep ...string) (map[string]float64, error) {
	parts := make([]*viewcube.Result, len(o))
	defer func() {
		for _, part := range parts {
			part.Release()
		}
	}()
	for i, eng := range o {
		var err error
		if parts[i], _, err = eng.GroupByResult(false, keep...); err != nil {
			return nil, err
		}
	}
	merged, err := viewcube.MergeResults(parts)
	if err != nil {
		return nil, err
	}
	return merged.Groups()
}

func (o oracle) Total() (float64, error) { return o.sum((*viewcube.Engine).Total) }

// RangeSum takes lexicographic bounds, as each shard does.
func (o oracle) RangeSum(ranges map[string]viewcube.ValueRange) (float64, error) {
	return o.sum(func(eng *viewcube.Engine) (float64, error) {
		v, _, err := eng.RangeSumWithin(ranges)
		return v, err
	})
}

func (o oracle) sum(part func(*viewcube.Engine) (float64, error)) (float64, error) {
	sum := 0.0
	for _, eng := range o {
		v, err := part(eng)
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum, nil
}

// sameGroupsExact requires bitwise equality — the distributivity merge in
// fixed shard order must reproduce the oracle exactly, not approximately.
func sameGroupsExact(t *testing.T, got, want map[string]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("group count %d, want %d", len(got), len(want))
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			t.Fatalf("missing group %q", k)
		}
		if g != w {
			t.Fatalf("group %q = %v, want %v (must be exact)", k, g, w)
		}
	}
}

// flakyClient wraps a ShardClient with injectable faults: fail the next N
// calls, fail everything, or delay each call (a delay past the
// coordinator's per-attempt timeout looks like a dead shard). Safe for
// concurrent use, so the chaos test can flip faults mid-query.
type flakyClient struct {
	inner cluster.ShardClient

	mu      sync.Mutex
	failN   int
	failAll bool
	delay   time.Duration
	calls   int
}

type injectedError struct{}

func (injectedError) Error() string { return "injected fault" }

func (f *flakyClient) Do(ctx context.Context, req *cluster.Request) (*cluster.Response, error) {
	f.mu.Lock()
	f.calls++
	fail := f.failAll
	if !fail && f.failN > 0 {
		f.failN--
		fail = true
	}
	d := f.delay
	f.mu.Unlock()
	if fail {
		return nil, injectedError{}
	}
	if d > 0 {
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return f.inner.Do(ctx, req)
}

func (f *flakyClient) Close() error { return f.inner.Close() }

func (f *flakyClient) set(mut func(*flakyClient)) {
	f.mu.Lock()
	mut(f)
	f.mu.Unlock()
}

func (f *flakyClient) callCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls
}

// asGroups is a GroupByResult answer with its Result in map form.
func asGroups(res *viewcube.Result, part *cluster.PartialResult, tr *obs.Trace, err error) (map[string]float64, *cluster.PartialResult, *obs.Trace, error) {
	if err != nil {
		return nil, nil, tr, err
	}
	g, err := res.Groups()
	return g, part, tr, err
}
