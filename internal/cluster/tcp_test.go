package cluster_test

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"viewcube"
	"viewcube/internal/cluster"
)

// startShardServer serves one ShardEngine on a loopback TCP listener and
// returns its address plus a shutdown func.
func startShardServer(t *testing.T, sh *cluster.ShardEngine) (string, *cluster.Server) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := cluster.NewServer(sh)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-done; !errors.Is(err, cluster.ErrServerClosed) {
			t.Errorf("Serve returned %v, want ErrServerClosed", err)
		}
	})
	return ln.Addr().String(), srv
}

// TestTCPScatterGatherMatchesOracle runs the full stack — coordinator, TCP
// clients, shard servers, SafeEngines — over real sockets and pins the
// answers to the serial oracle.
func TestTCPScatterGatherMatchesOracle(t *testing.T) {
	tables := shardTables(t, 2000, 3)
	engines := shardEngines(t, tables)
	names := shardNames(len(engines))
	shards := make([]cluster.Shard, len(engines))
	for i, sh := range engines {
		addr, _ := startShardServer(t, sh)
		shards[i] = cluster.Shard{Name: names[i], Client: cluster.DialShard(addr, time.Second)}
	}
	coord, err := cluster.NewCoordinator(shards, cluster.Options{
		Timeout: 2 * time.Second,
		Retries: 1,
		Backoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	oracle := newOracle(t, tables)
	// Several rounds so pooled connections get reused.
	for round := 0; round < 5; round++ {
		want, err := oracle.GroupBy("product")
		if err != nil {
			t.Fatal(err)
		}
		got, err := coord.GroupBy("product")
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		sameGroupsExact(t, got, want)
	}
	wantT, err := oracle.Total()
	if err != nil {
		t.Fatal(err)
	}
	gotT, _, _, err := coord.SumResult(context.Background(), false, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if gotT != wantT {
		t.Fatalf("Total = %v, want %v", gotT, wantT)
	}
	ranges := map[string]viewcube.ValueRange{"day": {Lo: "day-003", Hi: "day-017"}}
	wantR, err := oracle.RangeSum(ranges)
	if err != nil {
		t.Fatal(err)
	}
	gotR, err := coord.RangeSum(ranges)
	if err != nil {
		t.Fatal(err)
	}
	if gotR != wantR {
		t.Fatalf("RangeSum = %v, want %v", gotR, wantR)
	}
}

// TestTCPShardError: a bad query crosses the wire as a response error, and
// the connection survives for the next (valid) query.
func TestTCPShardError(t *testing.T) {
	tables := shardTables(t, 500, 1)
	engines := shardEngines(t, tables)
	addr, _ := startShardServer(t, engines[0])
	client := cluster.DialShard(addr, time.Second)
	defer client.Close()

	resp, err := client.Do(context.Background(), &cluster.Request{Kind: cluster.KindGroupBy, Keep: []string{"nope"}})
	if err != nil {
		t.Fatalf("transport should survive a query error: %v", err)
	}
	if resp.Err == "" {
		t.Fatal("unknown dimension should produce a shard-side error")
	}
	resp, err = client.Do(context.Background(), &cluster.Request{Kind: cluster.KindTotal})
	if err != nil || resp.Err != "" {
		t.Fatalf("connection unusable after query error: %v / %q", err, resp.Err)
	}
	if resp.Sum == 0 {
		t.Fatal("total came back zero for a non-empty shard")
	}
}

// TestTCPClientDeadline: a server that accepts but never answers must not
// hold a query past its context deadline.
func TestTCPClientDeadline(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // hold the connection open, never respond
		}
	}()

	client := cluster.DialShard(ln.Addr().String(), time.Second)
	defer client.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = client.Do(ctx, &cluster.Request{Kind: cluster.KindTotal})
	if err == nil {
		t.Fatal("Do should fail against a mute server")
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Do took %v, deadline was 50ms", d)
	}
}

// TestTCPServerShutdown: Shutdown unblocks Serve, drops idle connections,
// and refuses new ones.
func TestTCPServerShutdown(t *testing.T) {
	tables := shardTables(t, 500, 1)
	engines := shardEngines(t, tables)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := cluster.NewServer(engines[0])
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	client := cluster.DialShard(ln.Addr().String(), time.Second)
	if _, err := client.Do(context.Background(), &cluster.Request{Kind: cluster.KindTotal}); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, cluster.ErrServerClosed) {
			t.Fatalf("Serve returned %v, want ErrServerClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Serve did not return after Shutdown")
	}
	// The drained server no longer answers; the pooled connection was
	// closed and a fresh dial must fail.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel2()
	if _, err := client.Do(ctx2, &cluster.Request{Kind: cluster.KindTotal}); err == nil {
		t.Fatal("query succeeded against a shut-down server")
	}
	client.Close()
}
