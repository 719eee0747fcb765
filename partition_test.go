package viewcube_test

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"viewcube"
	"viewcube/internal/cluster"
	"viewcube/internal/workload"
)

func bigSalesTable(t *testing.T, rows int) *viewcube.Table {
	t.Helper()
	raw, err := workload.SalesTable(rand.New(rand.NewSource(17)), 40, 6, 30, rows)
	if err != nil {
		t.Fatal(err)
	}
	// Round-trip through CSV to get a public Table.
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

func TestPartitionTable(t *testing.T) {
	tbl := bigSalesTable(t, 2000)
	shards, err := viewcube.PartitionTable(tbl, "product", 4)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, s := range shards {
		total += s.Len()
	}
	if total != tbl.Len() {
		t.Fatalf("shards hold %d rows, want %d", total, tbl.Len())
	}
	// Same product never appears in two shards (checked via each shard
	// cube's dictionary, since the public Table does not expose rows).
	seen := map[string]int{}
	for si, s := range shards {
		cube, err := viewcube.FromRelation(s)
		if err != nil {
			t.Fatal(err)
		}
		for code := 0; ; code++ {
			v, ok := cube.ValueOf("product", code)
			if !ok {
				break
			}
			if prev, dup := seen[v]; dup && prev != si {
				t.Fatalf("product %q in shards %d and %d", v, prev, si)
			}
			seen[v] = si
		}
	}
	if _, err := viewcube.PartitionTable(tbl, "nope", 2); err == nil {
		t.Fatal("want error for unknown dimension")
	}
	if _, err := viewcube.PartitionTable(tbl, "product", 0); err == nil {
		t.Fatal("want error for zero shards")
	}
}

// partitionedSales hash-partitions a generated sales table on product into n
// shard engines and serves them through a coordinator over loopback shards,
// the repository's sharded setup. It also returns one unsharded engine over
// the whole table.
func partitionedSales(t *testing.T, rows, n int) (*cluster.Coordinator, *viewcube.Engine) {
	t.Helper()
	tbl := bigSalesTable(t, rows)
	tables, err := viewcube.PartitionTable(tbl, "product", n)
	if err != nil {
		t.Fatal(err)
	}
	var shards []cluster.Shard
	for _, st := range tables {
		if st.Len() == 0 {
			continue
		}
		cube, err := viewcube.FromRelation(st)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := cube.NewEngine(viewcube.EngineOptions{})
		if err != nil {
			t.Fatal(err)
		}
		shards = append(shards, cluster.Shard{
			Name:   "s" + string(rune('0'+len(shards))),
			Client: cluster.NewLoopback(cluster.NewShardEngine(cube, eng)),
		})
	}
	if len(shards) < 2 {
		t.Fatalf("expected several live shards, got %d", len(shards))
	}
	coord, err := cluster.NewCoordinator(shards, cluster.Options{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	cube, err := viewcube.FromRelation(tbl)
	if err != nil {
		t.Fatal(err)
	}
	single, err := cube.NewEngine(viewcube.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return coord, single
}

// TestPartitionedEngineMatchesSingleEngine: SUM is distributive, so a
// product-partitioned table served shard by shard answers the total and
// every group exactly as one engine over the whole table.
func TestPartitionedEngineMatchesSingleEngine(t *testing.T) {
	coord, single := partitionedSales(t, 3000, 5)

	// Totals agree.
	pt, err := coord.RangeSum(nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := single.Total()
	if err != nil {
		t.Fatal(err)
	}
	if pt != st {
		t.Fatalf("partitioned total %g, single %g", pt, st)
	}

	// GROUP BY region agrees group-by-group.
	pg, err := coord.GroupBy("region")
	if err != nil {
		t.Fatal(err)
	}
	sv, err := single.GroupBy("region")
	if err != nil {
		t.Fatal(err)
	}
	sg, err := sv.Groups()
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range sg {
		if pg[k] != want {
			t.Fatalf("group %q: partitioned %g, single %g", k, pg[k], want)
		}
	}

	// GROUP BY the partition dimension itself also agrees.
	pg, err = coord.GroupBy("product")
	if err != nil {
		t.Fatal(err)
	}
	sv, err = single.GroupBy("product")
	if err != nil {
		t.Fatal(err)
	}
	sg, err = sv.Groups()
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range sg {
		if want == 0 {
			continue // padding groups exist only on the single cube
		}
		if pg[k] != want {
			t.Fatalf("product %q: partitioned %g, single %g", k, pg[k], want)
		}
	}
}

// TestPartitionedRangeSum: range bounds are values compared
// lexicographically, so they hold across shards whose dictionaries differ.
func TestPartitionedRangeSum(t *testing.T) {
	coord, single := partitionedSales(t, 3000, 4)
	for _, ranges := range []map[string]viewcube.ValueRange{
		// Day range: every shard holds every day.
		{"day": {Lo: "day-005", Hi: "day-019"}},
		// Product range: each shard holds a different product subset.
		{"product": {Lo: "product-010", Hi: "product-019"}},
	} {
		want, err := single.RangeSum(ranges)
		if err != nil {
			t.Fatal(err)
		}
		got, err := coord.RangeSum(ranges)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%v: partitioned range %g, single %g", ranges, got, want)
		}
	}
	if _, err := coord.RangeSum(map[string]viewcube.ValueRange{"nope": {}}); err == nil {
		t.Fatal("want error for unknown dimension")
	}
}
