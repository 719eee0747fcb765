// Machine-readable benchmark results. The canonical `go test -bench=.`
// output is for humans; CI and tracking scripts want JSON lines:
//
//	go test -run TestBenchJSON -benchjson [-benchjson.out results.json]
//
// Each line is one benchmark: {"name", "iterations", "ns_per_op",
// "bytes_per_op", "allocs_per_op"}, plus "extra" where the benchmark reports
// metrics of its own.
package viewcube_test

import (
	"encoding/json"
	"flag"
	"os"
	"testing"
)

var (
	benchJSON    = flag.Bool("benchjson", false, "run the canonical benchmarks and emit JSON lines")
	benchJSONOut = flag.String("benchjson.out", "", "write -benchjson results to this file instead of stdout")
)

// benchResult is one emitted line.
type benchResult struct {
	Name        string `json:"name"`
	Iterations  int    `json:"iterations"`
	NsPerOp     int64  `json:"ns_per_op"`
	BytesPerOp  int64  `json:"bytes_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
	// Extra carries a benchmark's own metrics (b.ReportMetric): ns/group,
	// B/group, encode-us/op, ...
	Extra map[string]float64 `json:"extra,omitempty"`
}

// TestBenchJSON runs a representative slice of the benchmark suite under
// testing.Benchmark and prints one JSON object per line. It is opt-in
// (skipped without -benchjson) so the ordinary test run stays fast.
func TestBenchJSON(t *testing.T) {
	if !*benchJSON {
		t.Skip("enable with -benchjson")
	}
	out := os.Stdout
	if *benchJSONOut != "" {
		f, err := os.Create(*benchJSONOut)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		out = f
	}
	enc := json.NewEncoder(out)
	for _, bench := range []struct {
		name string
		fn   func(*testing.B)
	}{
		{"EngineGroupBy", benchEngineGroupByRoot},
		{"ParallelGroupBy", BenchmarkParallelGroupBy},
		{"AssembleViewFromBasis", BenchmarkAssembleViewFromBasis},
		{"PlanCacheMiss", BenchmarkPlanCacheMiss},
		{"PlanCacheHit", BenchmarkPlanCacheHit},
		{"PlanCacheHitParallel", BenchmarkPlanCacheHitParallel},
		{"RangeSumViaElements", BenchmarkRangeSumViaElements},
		{"GroupByAvgTwoEngine", BenchmarkGroupByAvgTwoEngine},
		{"GroupByAvgVector", BenchmarkGroupByAvgVector},
		{"RangeAggregation", BenchmarkRangeAggregation},
		{"FileStoreRoundTrip", BenchmarkFileStoreRoundTrip},
		{"QueryLanguage", BenchmarkQueryLanguage},
		{"AdaptiveReconfigure", BenchmarkAdaptiveReconfigure},
		{"Optimize131kBudget1", benchOptimize131kBudget1},
		{"Optimize131kBudget2", benchOptimize131kBudget2},
		{"LoadCSV", BenchmarkLoadCSV},
		{"PlanCompileViewBasis", benchPlanCompileViewBasis},
		{"PlanCompileViewRoot", benchPlanCompileViewRoot},
		{"SelectBasis2M", BenchmarkSelectBasis2M},
		{"WaveletTransform", BenchmarkWaveletTransform},
		{"HaarPartial", BenchmarkHaarPartial},
		{"MaterializeWaveletBasis", BenchmarkMaterializeWaveletBasis},
		{"ClusterScatterGather", BenchmarkClusterScatterGather},
		{"ClusterReplicaFanOut", BenchmarkClusterReplicaFanOut},
		{"LeasedGroupBy", BenchmarkLeasedGroupBy},
		{"RegistryResolve", BenchmarkRegistryResolve},
		{"ResultCacheHit", BenchmarkResultCacheHit},
		{"ResultCacheHitParallel", BenchmarkResultCacheHitParallel},
		{"ResultCacheMiss", BenchmarkResultCacheMiss},
		{"ResultEncodeGroups/16/columnar", benchEncodeGroups(16, "columnar")},
		{"ResultEncodeGroups/16/reuse", benchEncodeGroups(16, "reuse")},
		{"ResultEncodeGroups/16/map", benchEncodeGroups(16, "map")},
		{"ResultEncodeGroups/1024/columnar", benchEncodeGroups(1024, "columnar")},
		{"ResultEncodeGroups/1024/reuse", benchEncodeGroups(1024, "reuse")},
		{"ResultEncodeGroups/1024/map", benchEncodeGroups(1024, "map")},
		{"ResultEncodeGroups/8192/columnar", benchEncodeGroups(8192, "columnar")},
		{"ResultEncodeGroups/8192/reuse", benchEncodeGroups(8192, "reuse")},
		{"ResultEncodeGroups/8192/map", benchEncodeGroups(8192, "map")},
		{"ResultEncodeGroups/16384/columnar", benchEncodeGroups(16384, "columnar")},
		{"ResultEncodeGroups/16384/reuse", benchEncodeGroups(16384, "reuse")},
		{"ResultEncodeGroups/65536/short", benchEncodeGroups(65536, "short")},
		{"NewEngineResident/scalar", benchNewEngineResident(false)},
		{"NewEngineResident/agg", benchNewEngineResident(true)},
		{"ServeGroupByUncached/1024", benchServeGroupByUncached(1024)},
		{"ServeGroupByUncached/8192", benchServeGroupByUncached(8192)},
		{"LeaseHitBody", BenchmarkLeaseHitBody},
		{"CoordinatorHitBody", BenchmarkCoordinatorHitBody},
		{"CoordinatorHitBodyInt", BenchmarkCoordinatorHitBodyInt},
		{"WireResponse/columnar", benchWireResponse(true)},
		{"WireResponse/map", benchWireResponse(false)},
		{"CoordinatorMerge16k/columnar", benchCoordinatorMerge16k(true)},
		{"CoordinatorMerge16k/map", benchCoordinatorMerge16k(false)},
		{"IngestThroughput", BenchmarkIngestThroughput},
		{"QueryUnderIngest", BenchmarkQueryUnderIngest},
		{"TracedQueryOverheadOff", benchTracedOff},
		{"TracedQueryOverheadSampled", benchTracedSampled},
		{"TracedQueryOverheadTraced", benchTracedFull},
	} {
		r := testing.Benchmark(bench.fn)
		if err := enc.Encode(benchResult{
			Name:        bench.name,
			Iterations:  r.N,
			NsPerOp:     r.NsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			Extra:       r.Extra,
		}); err != nil {
			t.Fatal(err)
		}
	}
}
