// Streaming-ingest benchmarks and the read-latency gate. CI runs
//
//	go test -run TestIngestReadLatencyGate -ingestgate
//
// and fails the build if queries under a sustained ingest stream run more
// than 10% slower than the same snapshot-pinned queries on an idle engine —
// the measurable form of the non-blocking-readers guarantee. Opt-in
// (skipped without the flag) because each side runs several times under
// testing.Benchmark.
package viewcube_test

import (
	"flag"
	"math/rand"
	"sync"
	"testing"
	"time"

	"viewcube"
	"viewcube/internal/workload"
)

var ingestGate = flag.Bool("ingestgate", false, "measure read latency under sustained ingest and fail above 10% over idle")

// ingestBenchShape is the fixture cube's dimension sizes, shared by the
// writers so generated cell addresses stay in bounds.
var ingestBenchShape = [3]int{12, 6, 30}

// ingestBenchFixture builds a SafeEngine over the synthetic sales cube,
// enables streaming ingest, and warms the plan the benchmarks query.
func ingestBenchFixture(b *testing.B) *viewcube.SafeEngine {
	b.Helper()
	rng := rand.New(rand.NewSource(11))
	tbl, err := workload.SalesTable(rng, ingestBenchShape[0], ingestBenchShape[1], ingestBenchShape[2], 8000)
	if err != nil {
		b.Fatal(err)
	}
	cube, err := viewcube.FromTable(tbl)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := cube.NewEngine(viewcube.EngineOptions{})
	if err != nil {
		b.Fatal(err)
	}
	safe := eng.Safe()
	if err := safe.EnableIngest(viewcube.IngestOptions{Interval: 5 * time.Millisecond}); err != nil {
		b.Fatal(err)
	}
	if _, err := safe.GroupBy("product"); err != nil {
		b.Fatal(err)
	}
	return safe
}

// BenchmarkIngestThroughput measures the acknowledged-append rate of the
// streaming write path: WAL-less appends into the coalescing buffer while
// the background merger keeps folding batches.
func BenchmarkIngestThroughput(b *testing.B) {
	safe := ingestBenchFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := i % ingestBenchShape[0]
		r := (i / ingestBenchShape[0]) % ingestBenchShape[1]
		d := (i / (ingestBenchShape[0] * ingestBenchShape[1])) % ingestBenchShape[2]
		if err := safe.Update(1, p, r, d); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := safe.Flush(); err != nil {
		b.Fatal(err)
	}
	if err := safe.DisableIngest(); err != nil {
		b.Fatal(err)
	}
}

// benchQueryIngestIdle is the gate's baseline: snapshot-pinned GroupBy on
// an ingest-enabled engine with no write traffic.
func benchQueryIngestIdle(b *testing.B) {
	safe := ingestBenchFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := safe.GroupBy("product"); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := safe.DisableIngest(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkQueryUnderIngest runs the same query while a background writer
// streams a sustained ~128k appends/s (bursts of 256 every 2ms): reads pin
// snapshots, so a blocking regression shows up as merge-interval-sized
// stalls, far past the gate. The stream is rate-limited rather than a
// saturating tight loop so the gate measures waiting, not how the
// scheduler splits a small core count between two busy loops.
func BenchmarkQueryUnderIngest(b *testing.B) {
	safe := ingestBenchFixture(b)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
			}
			for n := 0; n < 256; n, i = n+1, i+1 {
				p := i % ingestBenchShape[0]
				r := (i / ingestBenchShape[0]) % ingestBenchShape[1]
				d := (i / (ingestBenchShape[0] * ingestBenchShape[1])) % ingestBenchShape[2]
				if err := safe.Update(1, p, r, d); err != nil {
					b.Error(err)
					return
				}
			}
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := safe.GroupBy("product"); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	close(stop)
	wg.Wait()
	if err := safe.DisableIngest(); err != nil {
		b.Fatal(err)
	}
}

func TestIngestReadLatencyGate(t *testing.T) {
	if !*ingestGate {
		t.Skip("enable with -ingestgate")
	}
	// Best-of-N filters scheduler noise on each side: the claim under test
	// is architectural (readers never wait on the write path), so only a
	// measurement artefact or a real regression can trip the gate.
	measure := func(fn func(*testing.B)) time.Duration {
		var best time.Duration
		for i := 0; i < 5; i++ {
			r := testing.Benchmark(fn)
			if d := time.Duration(r.NsPerOp()); best == 0 || d < best {
				best = d
			}
		}
		return best
	}
	idle := measure(benchQueryIngestIdle)
	busy := measure(BenchmarkQueryUnderIngest)
	overhead := 100 * (float64(busy)/float64(idle) - 1)
	t.Logf("idle snapshot-pinned read %v/op, under sustained ingest %v/op (%+.2f%%)", idle, busy, overhead)
	if limit := idle + idle/10; busy > limit {
		t.Errorf("reads under ingest %v/op exceed 110%% of idle baseline %v/op (%+.2f%%)", busy, idle, overhead)
	}
}

// BenchmarkIngestPublish times one merged batch of 100 deltas plus the
// publish of its snapshot generation on the 131 072-cell basis (basis131k),
// its cells handed over as a server's are. Before the batch the base engine
// copies the stored set it lent the current generation into the arrays a
// retired generation handed back to the scratch pool, so in the steady state
// B/op is the batch's small change, far below stored_B, the stored set's
// bytes. resident_B is what ResidentCells counts at rest, after the last
// publish with no reader pinned: one stored set, the current generation's.
func BenchmarkIngestPublish(b *testing.B) {
	eng := basis131k(b)
	eng.Cube().ReleaseCells()
	safe := eng.Safe()
	// Only Flush merges: one generation per batch.
	if err := safe.EnableIngest(viewcube.IngestOptions{Interval: time.Hour}); err != nil {
		b.Fatal(err)
	}
	shape := safe.Cube().Shape()
	rng := rand.New(rand.NewSource(1))
	cells := make([][]int, 100)
	for i := range cells {
		cells[i] = []int{rng.Intn(shape[0]), rng.Intn(shape[1]), rng.Intn(shape[2]), rng.Intn(shape[3])}
	}
	batch := func() {
		for _, idx := range cells {
			if err := safe.Update(1, idx...); err != nil {
				b.Fatal(err)
			}
		}
		if err := safe.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	// The first publish leases fresh arrays; the generation it retires hands
	// its arrays to the next.
	batch()
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		batch()
	}
	b.StopTimer()
	b.ReportMetric(float64(8*safe.StorageCells()), "stored_B")
	b.ReportMetric(float64(8*safe.ResidentCells()), "resident_B")
	if err := safe.DisableIngest(); err != nil {
		b.Fatal(err)
	}
}
