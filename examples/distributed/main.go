// Distributed: shards a fact table by product, builds one view-element
// engine per shard, and answers global queries through a cluster
// coordinator that scatters each query to the shards and merges their
// answers — exact because SUM is distributive over the partition. Each
// shard independently runs Algorithm 1 on its own sub-cube. The shards sit
// behind in-process Loopback transports, so every query crosses the same
// wire codec as a networked shard.
//
// Shard engines and the coordinator are safe for concurrent use, so whole
// global queries are also issued concurrently with each other: three
// overlapping fan-outs below share the four shards without serialising.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"math/rand"
	"sort"
	"sync"
	"time"

	"viewcube"
	"viewcube/internal/cluster"
	"viewcube/internal/workload"
)

func main() {
	rng := rand.New(rand.NewSource(9))
	raw, err := workload.SalesTable(rng, 80, 8, 30, 60_000)
	if err != nil {
		log.Fatal(err)
	}
	var buf bytes.Buffer
	if err := raw.WriteCSV(&buf); err != nil {
		log.Fatal(err)
	}
	tbl, err := viewcube.ReadTable(&buf, "sales")
	if err != nil {
		log.Fatal(err)
	}

	const shards = 4
	parts, err := viewcube.PartitionTable(tbl, "product", shards)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d rows sharded by product into %d shards:", tbl.Len(), shards)
	for _, p := range parts {
		fmt.Printf(" %d", p.Len())
	}
	fmt.Println(" rows")

	// One engine per non-empty shard, optimized for this shard's cube.
	var (
		engines []*viewcube.Engine
		members []cluster.Shard
	)
	for i, p := range parts {
		if p.Len() == 0 {
			continue
		}
		cube, err := viewcube.FromRelation(p)
		if err != nil {
			log.Fatal(err)
		}
		eng, err := cube.NewEngine(viewcube.EngineOptions{})
		if err != nil {
			log.Fatal(err)
		}
		w := cube.NewWorkload()
		if err := w.AddViewKeeping(0.6, "region"); err != nil {
			log.Fatal(err)
		}
		if err := w.AddViewKeeping(0.4, "day"); err != nil {
			log.Fatal(err)
		}
		if err := eng.Optimize(w); err != nil {
			log.Fatal(err)
		}
		engines = append(engines, eng)
		members = append(members, cluster.Shard{
			Name:   fmt.Sprintf("shard-%d", i),
			Client: cluster.NewLoopback(cluster.NewShardEngine(cube, eng)),
		})
	}
	coord, err := cluster.NewCoordinator(members, cluster.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer coord.Close()

	// Issue all three global queries concurrently: every one fans out to
	// every shard, and the shard engines serve the overlapping legs in
	// parallel.
	var (
		total    float64
		byRegion map[string]float64
		window   float64
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	report := func(err error) {
		if err != nil {
			errMu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			errMu.Unlock()
		}
	}
	start := time.Now()
	wg.Add(3)
	go func() {
		defer wg.Done()
		var err error
		total, _, _, err = coord.SumResult(context.Background(), false, false, nil)
		report(err)
	}()
	go func() {
		defer wg.Done()
		var err error
		byRegion, err = coord.GroupBy("region")
		report(err)
	}()
	go func() {
		defer wg.Done()
		var err error
		window, err = coord.RangeSum(map[string]viewcube.ValueRange{
			"day": {Lo: "day-000", Hi: "day-013"},
		})
		report(err)
	}()
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		log.Fatal(firstErr)
	}

	fmt.Printf("\nglobal total: %g units\n", total)
	fmt.Println("units by region (merged across shards):")
	keys := make([]string, 0, len(byRegion))
	for k := range byRegion {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-12s %10g\n", k, byRegion[k])
	}
	fmt.Printf("first two weeks: %g units\n", window)
	fmt.Printf("three overlapping fan-out queries in %v\n", elapsed)

	// Per-shard timings for one more fan-out, legs timed individually.
	perShard := make([]time.Duration, len(engines))
	shardStart := time.Now()
	wg.Add(len(engines))
	for i, eng := range engines {
		go func(i int, eng *viewcube.Engine) {
			defer wg.Done()
			legStart := time.Now()
			_, err := eng.GroupBy("region")
			perShard[i] = time.Since(legStart)
			report(err)
		}(i, eng)
	}
	wg.Wait()
	shardElapsed := time.Since(shardStart)
	if firstErr != nil {
		log.Fatal(firstErr)
	}
	fmt.Println("per-shard group-by timings (parallel legs):")
	for i, d := range perShard {
		fmt.Printf("  shard %d: %v\n", i, d)
	}
	fmt.Printf("slowest leg bounds the fan-out: total %v\n", shardElapsed)

	// Cross-check against a single unsharded engine.
	cube, err := viewcube.FromRelation(tbl)
	if err != nil {
		log.Fatal(err)
	}
	single, err := cube.NewEngine(viewcube.EngineOptions{})
	if err != nil {
		log.Fatal(err)
	}
	singleTotal, err := single.Total()
	if err != nil {
		log.Fatal(err)
	}
	if total != singleTotal { // integer measures: the merge is exact
		log.Fatalf("sharded total %g disagrees with single engine %g", total, singleTotal)
	}
	fmt.Println("verified: sharded answers equal the single-engine answers")
}
