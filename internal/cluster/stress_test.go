package cluster_test

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"viewcube"
	"viewcube/internal/cluster"
)

// TestClusterConcurrentChaos hammers a coordinator from many goroutines
// while a chaos goroutine kills and delays shards mid-query. Every degraded
// answer must still be *exact* over the shards it claims to cover: the
// merge of the per-shard oracle answers for (all shards − Missing), in
// shard order. Runs under -race in CI.
func TestClusterConcurrentChaos(t *testing.T) {
	tables := shardTables(t, 3000, 3)
	engines := shardEngines(t, tables)
	names := shardNames(len(engines))

	// Per-shard oracle engines over the same tables, for recomputing what
	// any subset of shards should sum to.
	perShard := make([]*viewcube.Engine, len(engines))
	{
		i := 0
		for _, tbl := range tables {
			if tbl.Len() == 0 {
				continue
			}
			cube, err := viewcube.FromRelation(tbl)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := cube.NewEngine(deterministicOpts)
			if err != nil {
				t.Fatal(err)
			}
			perShard[i] = eng
			i++
		}
		perShard = perShard[:i]
	}
	if len(perShard) != len(engines) {
		t.Fatalf("oracle shard count %d != cluster shard count %d", len(perShard), len(engines))
	}

	flaky := make([]*flakyClient, len(engines))
	shards := make([]cluster.Shard, len(engines))
	for i, sh := range engines {
		flaky[i] = &flakyClient{inner: cluster.NewLoopback(sh)}
		shards[i] = cluster.Shard{Name: names[i], Client: flaky[i]}
	}
	coord, err := cluster.NewCoordinator(shards, cluster.Options{
		Timeout: 20 * time.Millisecond,
		Retries: 1,
		Backoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	// expected merges the per-shard oracle answers for every shard the
	// coordinator claims to have covered, in shard-index order — the same
	// order the coordinator merges in, so equality must be bitwise. The
	// oracle engines are plain Engines, so serialize access to them.
	var oracleMu sync.Mutex
	missingSet := func(pr *cluster.PartialResult) map[string]bool {
		m := make(map[string]bool)
		if pr != nil {
			for _, name := range pr.Missing {
				m[name] = true
			}
		}
		return m
	}
	expectedGroups := func(pr *cluster.PartialResult, keep ...string) map[string]float64 {
		oracleMu.Lock()
		defer oracleMu.Unlock()
		miss := missingSet(pr)
		out := make(map[string]float64)
		for i, eng := range perShard {
			if miss[names[i]] {
				continue
			}
			view, err := eng.GroupBy(keep...)
			if err != nil {
				t.Error(err)
				return nil
			}
			g, err := view.Groups()
			if err != nil {
				t.Error(err)
				return nil
			}
			for k, v := range g {
				out[k] += v
			}
		}
		return out
	}
	expectedTotal := func(pr *cluster.PartialResult) float64 {
		oracleMu.Lock()
		defer oracleMu.Unlock()
		miss := missingSet(pr)
		var sum float64
		for i, eng := range perShard {
			if miss[names[i]] {
				continue
			}
			v, err := eng.Total()
			if err != nil {
				t.Error(err)
				return 0
			}
			sum += v
		}
		return sum
	}
	ranges := map[string]viewcube.ValueRange{"day": {Lo: "day-002", Hi: "day-019"}}
	expectedRange := func(pr *cluster.PartialResult) float64 {
		oracleMu.Lock()
		defer oracleMu.Unlock()
		miss := missingSet(pr)
		var sum float64
		for i, eng := range perShard {
			if miss[names[i]] {
				continue
			}
			v, ok, err := eng.RangeSumWithin(ranges)
			if err != nil {
				t.Error(err)
				return 0
			}
			if ok {
				sum += v
			}
		}
		return sum
	}

	stop := make(chan struct{})
	var chaos sync.WaitGroup
	chaos.Add(1)
	go func() {
		defer chaos.Done()
		rng := rand.New(rand.NewSource(99))
		for {
			select {
			case <-stop:
				// Heal everything on the way out.
				for _, f := range flaky {
					f.set(func(f *flakyClient) { f.failAll = false; f.failN = 0; f.delay = 0 })
				}
				return
			case <-time.After(2 * time.Millisecond):
			}
			victim := flaky[rng.Intn(len(flaky))]
			switch rng.Intn(4) {
			case 0: // kill the shard outright
				victim.set(func(f *flakyClient) { f.failAll = true })
			case 1: // delay past the per-attempt timeout (looks dead)
				victim.set(func(f *flakyClient) { f.delay = 50 * time.Millisecond })
			case 2: // transient blips, retries should absorb them
				victim.set(func(f *flakyClient) { f.failN = 1 })
			case 3: // heal
				victim.set(func(f *flakyClient) { f.failAll = false; f.delay = 0 })
			}
		}
	}()

	const (
		workers = 8
		queries = 30
	)
	keeps := [][]string{{"product"}, {"region"}, {"day"}, {"product", "region"}}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := t.Context()
			for q := 0; q < queries; q++ {
				switch q % 3 {
				case 0:
					keep := keeps[(w+q)%len(keeps)]
					got, pr, _, err := asGroups(coord.GroupByResult(ctx, true, false, keep...))
					if err != nil {
						continue // every shard was down at that instant
					}
					want := expectedGroups(pr, keep...)
					if want == nil {
						return
					}
					if len(got) != len(want) {
						t.Errorf("w%d q%d: %d groups, want %d (missing=%v)", w, q, len(got), len(want), pr.Missing)
						return
					}
					for k, v := range want {
						if got[k] != v {
							t.Errorf("w%d q%d: group %q = %v, want %v (missing=%v)", w, q, k, got[k], v, pr.Missing)
							return
						}
					}
				case 1:
					got, pr, _, err := coord.SumResult(ctx, true, false, nil)
					if err != nil {
						continue
					}
					if want := expectedTotal(pr); got != want {
						t.Errorf("w%d q%d: total = %v, want %v (missing=%v)", w, q, got, want, pr.Missing)
						return
					}
				case 2:
					got, pr, _, err := coord.SumResult(ctx, true, false, ranges)
					if err != nil {
						continue
					}
					if want := expectedRange(pr); got != want {
						t.Errorf("w%d q%d: range = %v, want %v (missing=%v)", w, q, got, want, pr.Missing)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	chaos.Wait()

	// With chaos stopped and all faults healed, the coordinator must be
	// exact again.
	oracle := newOracle(t, tables)
	want, err := oracle.GroupBy("product")
	if err != nil {
		t.Fatal(err)
	}
	got, err := coord.GroupBy("product")
	if err != nil {
		t.Fatalf("post-chaos exact query failed: %v", err)
	}
	sameGroupsExact(t, got, want)
}
