// Distributed: shards a fact table by product, builds one view-element
// engine per shard, and answers global queries by parallel fan-out and
// merge — exact because SUM is distributive over the partition. Each shard
// independently runs Algorithm 1 on its own sub-cube.
//
// Shard engines are safe for concurrent use, so whole global
// queries are also issued concurrently with each other: three overlapping
// fan-outs below share the four shards without serialising.
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"
	"sort"
	"sync"
	"time"

	"viewcube"
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

	pe, err := viewcube.NewPartitionedEngine(parts, viewcube.EngineOptions{})
	if err != nil {
		log.Fatal(err)
	}
	if err := pe.Optimize([][]string{{"region"}, {"day"}}, []float64{0.6, 0.4}); err != nil {
		log.Fatal(err)
	}

	// Issue all three global queries concurrently: every one fans out to
	// every shard, and the reentrant shard engines serve the overlapping
	// legs in parallel.
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
		total, err = pe.Total()
		report(err)
	}()
	go func() {
		defer wg.Done()
		var err error
		byRegion, err = pe.GroupBy("region")
		report(err)
	}()
	go func() {
		defer wg.Done()
		var err error
		window, err = pe.RangeSum(map[string]viewcube.ValueRange{
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
	perShard := make([]time.Duration, pe.Shards())
	shardStart := time.Now()
	wg.Add(pe.Shards())
	for i := 0; i < pe.Shards(); i++ {
		go func(i int) {
			defer wg.Done()
			legStart := time.Now()
			_, err := pe.Shard(i).GroupBy("region")
			perShard[i] = time.Since(legStart)
			report(err)
		}(i)
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
	if diff := total - singleTotal; diff > 1e-6 || diff < -1e-6 {
		log.Fatalf("sharded total %g disagrees with single engine %g", total, singleTotal)
	}
	fmt.Println("verified: sharded answers equal the single-engine answers")
}
