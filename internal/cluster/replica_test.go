package cluster_test

// Replica-balanced fan-out: with each shard served by several
// interchangeable copies, load spreads by least-outstanding count and a
// retry lands on a different copy — so losing one replica, or one stalling,
// changes availability, never answers.

import (
	"context"
	"testing"
	"time"

	"viewcube/internal/cluster"
	"viewcube/internal/obs"
)

// replicatedShards wires each shard engine behind a counting primary and a
// counting replica (both loopbacks over the same engine — the real-world
// contract is that replicas hold identical partitions).
func replicatedShards(engines []*cluster.ShardEngine) ([]cluster.Shard, [][]*countingClient) {
	names := shardNames(len(engines))
	shards := make([]cluster.Shard, len(engines))
	counters := make([][]*countingClient, len(engines))
	for i, sh := range engines {
		primary := &countingClient{inner: cluster.NewLoopback(sh)}
		replica := &countingClient{inner: cluster.NewLoopback(sh)}
		counters[i] = []*countingClient{primary, replica}
		shards[i] = cluster.Shard{
			Name:     names[i],
			Client:   primary,
			Replicas: []cluster.ShardClient{replica},
		}
	}
	return shards, counters
}

func TestReplicaFanOutBalancesLoad(t *testing.T) {
	tables := shardTables(t, 1000, 3)
	engines := shardEngines(t, tables)
	oracle := newOracle(t, tables)
	want, err := oracle.GroupBy("product")
	if err != nil {
		t.Fatal(err)
	}

	shards, counters := replicatedShards(engines)
	coord, err := cluster.NewCoordinator(shards, cluster.Options{
		Timeout: 5 * time.Second,
		Retries: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	const queries = 40
	for q := 0; q < queries; q++ {
		got, err := coord.GroupBy("product")
		if err != nil {
			t.Fatal(err)
		}
		sameGroupsExact(t, got, want)
	}

	// Both copies of every shard served a substantial share: an idle tier
	// still spreads load through the rotating tie-break.
	for i, pair := range counters {
		p, r := pair[0].calls.Load(), pair[1].calls.Load()
		if p+r != queries {
			t.Fatalf("shard %d: %d+%d calls, want %d total", i, p, r, queries)
		}
		if p < queries/4 || r < queries/4 {
			t.Fatalf("shard %d: unbalanced %d/%d of %d", i, p, r, queries)
		}
	}
}

func TestReplicaFailoverKeepsAnswersBitIdentical(t *testing.T) {
	tables := shardTables(t, 1200, 3)
	engines := shardEngines(t, tables)
	oracle := newOracle(t, tables)
	wantGroups, err := oracle.GroupBy("product", "region")
	if err != nil {
		t.Fatal(err)
	}
	wantTotal, err := oracle.Total()
	if err != nil {
		t.Fatal(err)
	}

	// Shard 0's primary is dead; its replica holds the same partition.
	names := shardNames(len(engines))
	dead := &flakyClient{inner: cluster.NewLoopback(engines[0])}
	dead.set(func(f *flakyClient) { f.failAll = true })
	shards := make([]cluster.Shard, len(engines))
	for i, sh := range engines {
		shards[i] = cluster.Shard{Name: names[i], Client: cluster.NewLoopback(sh)}
	}
	shards[0] = cluster.Shard{
		Name:     names[0],
		Client:   dead,
		Replicas: []cluster.ShardClient{cluster.NewLoopback(engines[0])},
	}
	coord, err := cluster.NewCoordinator(shards, cluster.Options{
		Timeout: time.Second,
		Retries: 3,
		Backoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	// Exact mode, no degraded answers: whichever copy answered, the merge
	// must reproduce the serial oracle bit for bit.
	for q := 0; q < 10; q++ {
		got, err := coord.GroupBy("product", "region")
		if err != nil {
			t.Fatalf("query %d with a dead primary: %v", q, err)
		}
		sameGroupsExact(t, got, wantGroups)
	}
	total, _, _, err := coord.SumResult(context.Background(), false, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if total != wantTotal {
		t.Fatalf("total %v, want exactly %v", total, wantTotal)
	}
}

// TestReplicaStalledPrimaryRetriedOnReplica: shard 0's primary stalls
// (waits until the attempt's deadline, honouring its context) instead of
// failing. Every attempt that lands on it times out and is retried on the
// replica, so exact-mode answers stay bit-identical to the oracle and each
// call the stalled copy received costs exactly one retry.
func TestReplicaStalledPrimaryRetriedOnReplica(t *testing.T) {
	tables := shardTables(t, 1200, 3)
	engines := shardEngines(t, tables)
	oracle := newOracle(t, tables)
	wantTotal, err := oracle.Total()
	if err != nil {
		t.Fatal(err)
	}

	shards := loopbackShards(engines)
	stalled := &flakyClient{inner: cluster.NewLoopback(engines[0])}
	stalled.set(func(f *flakyClient) { f.delay = time.Minute })
	shards[0].Client = stalled
	shards[0].Replicas = []cluster.ShardClient{cluster.NewLoopback(engines[0])}
	coord, err := cluster.NewCoordinator(shards, cluster.Options{
		Timeout: 50 * time.Millisecond,
		Retries: 2,
		Backoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	for q := 0; q < 3; q++ {
		for _, keep := range [][]string{{"product"}, {"region"}, {"product", "region"}} {
			want, err := oracle.GroupBy(keep...)
			if err != nil {
				t.Fatal(err)
			}
			got, err := coord.GroupBy(keep...)
			if err != nil {
				t.Fatalf("GroupBy(%v) with a stalled primary: %v", keep, err)
			}
			sameGroupsExact(t, got, want)
		}
		total, _, _, err := coord.SumResult(context.Background(), false, false, nil)
		if err != nil {
			t.Fatalf("total with a stalled primary: %v", err)
		}
		if total != wantTotal {
			t.Fatalf("total %v, want exactly %v", total, wantTotal)
		}
	}

	calls := stalled.callCount()
	if calls == 0 {
		t.Fatal("the balancer never sent a call to the stalled primary")
	}
	if got := obs.NewClusterMetrics(coord.Registry()).Retries.Value(); got != uint64(calls) {
		t.Fatalf("viewcube_cluster_retries_total = %d, want %d (one per call the stalled copy received)", got, calls)
	}
}
