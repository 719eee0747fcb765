package viewcube_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"viewcube"
)

// loadCSVRows is the row count of the benchmark's sales relation.
const loadCSVRows = 100000

// benchSalesCSV renders a relation of the cubebench `sales` shape in memory:
// header product,region,day,channel,sales; 64 products (70 % of rows Zipf
// over them), 16 regions, 32 days, 4 channels; integer measures in [1,99].
func benchSalesCSV(rows int) []byte {
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.2, 1, 63)
	var buf bytes.Buffer
	buf.WriteString("product,region,day,channel,sales\n")
	for i := 0; i < rows; i++ {
		p := rng.Intn(64)
		if rng.Float64() < 0.7 {
			p = int(zipf.Uint64())
		}
		fmt.Fprintf(&buf, "product-%03d,region-%02d,day-%03d,channel-%d,%d\n",
			p, rng.Intn(16), rng.Intn(32), rng.Intn(4), 1+rng.Intn(99))
	}
	return buf.Bytes()
}

// BenchmarkLoadCSV is boot's load step on the benchmark relation: parse
// the CSV, code the dictionaries and build the 131 072-cell cube, through
// viewcube.Load. It reports the cost per row.
func BenchmarkLoadCSV(b *testing.B) {
	data := benchSalesCSV(loadCSVRows)
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cube, err := viewcube.Load(bytes.NewReader(data), "sales")
		if err != nil {
			b.Fatal(err)
		}
		if cube.Volume() != 64*16*32*4 {
			b.Fatalf("cube volume %d", cube.Volume())
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	n := float64(b.N) * loadCSVRows
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/row")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "B/row")
}
