// Result-representation benchmarks: what it costs to turn an assembled view
// into response bytes, to serve those bytes from the result cache, to carry a
// group-by answer between shard and coordinator, and to merge two of them —
// each against the map[string]float64 path it replaced, kept here as a
// test-only reference.
package viewcube_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"viewcube"
	"viewcube/internal/catalog"
	"viewcube/internal/cluster"
	"viewcube/internal/rescache"
)

// gridCube is a 128×ny×16 cube with one tuple per (x, y). At ny = 64,
// keeping z answers 16 groups, y and z 1 024, x and y 8 192; at ny = 128,
// keeping x and y answers 16 384.
func gridCube(tb testing.TB, ny int) *viewcube.Cube {
	tb.Helper()
	tbl, err := viewcube.NewTable([]string{"x", "y", "z"}, "m")
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 128*ny; i++ {
		row := []string{fmt.Sprintf("x-%03d", i%128), fmt.Sprintf("y-%03d", i/128), fmt.Sprintf("z-%02d", i%16)}
		if err := tbl.Append(row, float64(i%997)+0.25); err != nil {
			tb.Fatal(err)
		}
	}
	cube, err := viewcube.FromRelation(tbl)
	if err != nil {
		tb.Fatal(err)
	}
	return cube
}

// salesCube has the shape of the benchmark's largest sharded answer:
// product (128) × region (16) × channel (8), one integer tuple per cell, so
// keeping all three answers 16 384 groups in runs of 8, every value a whole
// number as every served SUM of integer measures is.
func salesCube(tb testing.TB) *viewcube.Cube {
	tb.Helper()
	tbl, err := viewcube.NewTable([]string{"product", "region", "channel"}, "sales")
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 128*16*8; i++ {
		row := []string{fmt.Sprintf("product-%03d", i/128), fmt.Sprintf("region-%02d", i/8%16), fmt.Sprintf("channel-%d", i%8)}
		if err := tbl.Append(row, float64(1+i*7919%9973)); err != nil {
			tb.Fatal(err)
		}
	}
	cube, err := viewcube.FromRelation(tbl)
	if err != nil {
		tb.Fatal(err)
	}
	return cube
}

// TestEngineReadAllocs pins the allocations of a warm read on salesCube:
// Total 0, GroupBy("product") 7 and RangeSum over a region range 0, whether
// through the engine or through Safe(). The read pins its state without
// building a release closure, so a read that takes the read lock costs
// nothing on the heap for it; a whole element is planned straight from the
// plan cache, with no physical-plan wrapper; the element is one of the
// engine's 2^d aggregated views, built once; a range keeps its box on the
// stack; and folding the 128 products computes its signs with no table.
func TestEngineReadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop recycled buffers at random")
	}
	eng, err := salesCube(t).NewEngine(viewcube.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	type reads interface {
		Total() (float64, error)
		GroupBy(keep ...string) (*viewcube.View, error)
		RangeSum(ranges map[string]viewcube.ValueRange) (float64, error)
	}
	ranges := map[string]viewcube.ValueRange{"region": {Lo: "region-02", Hi: "region-09"}}
	for _, face := range []struct {
		name string
		eng  reads
	}{{"Engine", eng}, {"Safe", eng.Safe()}} {
		total := testing.AllocsPerRun(50, func() {
			if _, err := face.eng.Total(); err != nil {
				t.Fatal(err)
			}
		})
		groupBy := testing.AllocsPerRun(50, func() {
			if _, err := face.eng.GroupBy("product"); err != nil {
				t.Fatal(err)
			}
		})
		rangeSum := testing.AllocsPerRun(50, func() {
			if _, err := face.eng.RangeSum(ranges); err != nil {
				t.Fatal(err)
			}
		})
		if total > 0 || groupBy > 7 || rangeSum > 0 {
			t.Errorf("%s: Total allocates %v objects, GroupBy(product) %v, RangeSum %v; want 0, ≤ 7 and 0", face.name, total, groupBy, rangeSum)
		}
	}
}

// TestTracedReadAllocs pins the allocations of a warm traced group-by on
// salesCube, read back as its span tree: GroupByResult(true, "product") plus
// Tree(). The trace is recorded as the tree it is served as, so Tree
// converts nothing; what remains is the trace, one span and one attr map
// per step, and the span names.
func TestTracedReadAllocs(t *testing.T) {
	const maxTracedReadAllocs = 56 // 72 when Tree converted a second tree
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop recycled buffers at random")
	}
	eng, err := salesCube(t).NewEngine(viewcube.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	read := func() {
		res, qt, err := eng.GroupByResult(true, "product")
		if err != nil || qt.Tree() == nil {
			t.Fatalf("traced read: tree %v, err %v", qt.Tree(), err)
		}
		res.Release()
	}
	read() // warm the plan
	if got := testing.AllocsPerRun(50, read); got > maxTracedReadAllocs {
		t.Errorf("traced GroupByResult plus Tree allocates %v objects, want ≤ %d", got, maxTracedReadAllocs)
	}
}

// gridView assembles the grid cube's view keeping the named dimensions.
func gridView(tb testing.TB, ny int, keep ...string) *viewcube.View {
	tb.Helper()
	return cubeView(tb, gridCube(tb, ny), keep...)
}

// cubeView assembles a cube's view keeping the named dimensions.
func cubeView(tb testing.TB, cube *viewcube.Cube, keep ...string) *viewcube.View {
	tb.Helper()
	eng, err := cube.NewEngine(viewcube.EngineOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	v, err := eng.GroupBy(keep...)
	if err != nil {
		tb.Fatal(err)
	}
	return v
}

// mapGroupsJSON is the retired /groupby encode: explode the view into a map,
// re-key it with "/", reflect it through encoding/json.
func mapGroupsJSON(v *viewcube.View, buf *bytes.Buffer) error {
	groups, err := v.Groups()
	if err != nil {
		return err
	}
	out := make(map[string]float64, len(groups))
	for k, val := range groups {
		out[strings.Join(viewcube.SplitGroupKey(k), "/")] = val
	}
	return json.NewEncoder(buf).Encode(out)
}

// encodeViews are the answers BenchmarkResultEncodeGroups encodes, by group
// count: keep-sets of the grid cube at ny = 64, whose cells are n + 0.25, so
// that the 8 192-group answer (one cell a group) has decimal values and the
// others whole ones; at 16 384 the served case, salesCube's three-key
// integer answer; and at 65 536 an answer longer than a pooled body
// (shortBody) at ny = 512.
var encodeViews = map[int]func(testing.TB) *viewcube.View{
	16:    func(tb testing.TB) *viewcube.View { return gridView(tb, 64, "z") },
	1024:  func(tb testing.TB) *viewcube.View { return gridView(tb, 64, "y", "z") },
	8192:  func(tb testing.TB) *viewcube.View { return gridView(tb, 64, "x", "y") },
	16384: func(tb testing.TB) *viewcube.View { return cubeView(tb, salesCube(tb), "product", "region", "channel") },
	65536: func(tb testing.TB) *viewcube.View { return gridView(tb, 512, "x", "y") },
}

// shortBody is the capacity of the reused body the "short" form encodes
// into: the largest body the servers pool, too short for the 65 536-group
// answer, so every encode regrows it.
const shortBody = 1 << 20

// BenchmarkResultEncodeGroups is view → /groupby response bytes, reporting ns
// and B per group: the columnar encoder into a fresh body ("columnar") and
// into a reused buffer ("reuse": what both servers do), against the retired
// map path ("map"); and at 65 536 groups into a reused body shorter than the
// answer ("short": a pooled body's growth copies only its length).
func BenchmarkResultEncodeGroups(b *testing.B) {
	for _, groups := range []int{16, 1024, 8192, 16384} {
		for _, form := range []string{"columnar", "reuse", "map"} {
			b.Run(fmt.Sprintf("%d/%s", groups, form), benchEncodeGroups(groups, form))
		}
	}
	b.Run("65536/short", benchEncodeGroups(65536, "short"))
}

func benchEncodeGroups(groups int, form string) func(*testing.B) {
	return func(b *testing.B) {
		v := encodeViews[groups](b)
		var buf bytes.Buffer
		run := func() error {
			buf.Reset()
			return mapGroupsJSON(v, &buf)
		}
		if form != "map" {
			var body []byte
			if form == "short" {
				body = make([]byte, 0, shortBody)
			}
			run = func() error {
				res, err := v.Result()
				if err != nil {
					return err
				}
				out, err := res.AppendGroupsJSON(body[:0])
				if form == "reuse" {
					body = out
				}
				return err
			}
		}
		b.ReportAllocs()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := run(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		n := float64(b.N) * float64(groups)
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/group")
		b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "B/group")
	}
}

// BenchmarkLeaseHitBody is a served 8 192-group /groupby whose answer is
// cached: the lease hands back the encoded response body, whatever its size.
func BenchmarkLeaseHitBody(b *testing.B) {
	cube := gridCube(b, 64)
	eng, err := cube.NewEngine(viewcube.EngineOptions{})
	if err != nil {
		b.Fatal(err)
	}
	reg := catalog.NewRegistry()
	if err := reg.RegisterHandle("grid", catalog.NewSafeHandle(cube, eng.Safe())); err != nil {
		b.Fatal(err)
	}
	reg.EnableResultCache(rescache.Options{})
	lease, err := reg.Acquire("grid", "")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(lease.Release)
	b.ReportAllocs()
	for i := 0; i < b.N+1; i++ { // the first call is the miss that fills the cache
		if i == 1 {
			b.ResetTimer()
		}
		ans, _, hit, err := lease.ServeGroupBy(false, "x", "y")
		if err != nil || len(ans.Body) < 8192*8 || *hit != (i > 0) {
			b.Fatalf("call %d: %d-byte body, hit %v, err %v", i, len(ans.Body), *hit, err)
		}
	}
}

// benchServeGroupByUncached is an uncached /groupby through the lease: the view
// is assembled, encoded into the lease's scratch and released, so the next
// request assembles into the same buffers. pool_hit_ratio is the read
// kernel's scratch-lease hit ratio over the timed requests, pool_leases/op
// the leases it counts.
func benchServeGroupByUncached(groups int) func(*testing.B) {
	keep := map[int][]string{1024: {"y", "z"}, 8192: {"x", "y"}}[groups]
	return func(b *testing.B) {
		cube := gridCube(b, 64)
		eng, err := cube.NewEngine(viewcube.EngineOptions{})
		if err != nil {
			b.Fatal(err)
		}
		reg := catalog.NewRegistry()
		if err := reg.RegisterHandle("grid", catalog.NewSafeHandle(cube, eng.Safe())); err != nil {
			b.Fatal(err)
		}
		lease, err := reg.Acquire("grid", "")
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(lease.Release)
		mreg := eng.Metrics().Registry()
		hits, misses := mreg.Counter("viewcube_exec_pool_hits_total", ""), mreg.Counter("viewcube_exec_pool_misses_total", "")
		var h0, m0 uint64
		b.ReportAllocs()
		for i := 0; i < b.N+2; i++ { // two warm-up requests grow the scratch and fill the pool
			if i == 2 {
				h0, m0 = hits.Value(), misses.Value()
				b.ResetTimer()
			}
			if ans, _, _, err := lease.ServeGroupBy(false, keep...); err != nil || len(ans.Body) < groups*8 {
				b.Fatalf("request %d: %d-byte body, err %v", i, len(ans.Body), err)
			}
		}
		h, m := float64(hits.Value()-h0), float64(misses.Value()-m0)
		b.ReportMetric(h/(h+m), "pool_hit_ratio")
		b.ReportMetric((h+m)/float64(b.N), "pool_leases/op")
	}
}

func BenchmarkServeGroupByUncached(b *testing.B) {
	for _, groups := range []int{1024, 8192} {
		b.Run(fmt.Sprint(groups), benchServeGroupByUncached(groups))
	}
}

// benchNewEngineResident reports what the process holds per cube cell once an
// engine is attached to a freshly loaded cube: the cells once (8 B; 24 B for
// the three planes of a measure-vector cube), not once for the cube and once
// for the root element.
func benchNewEngineResident(agg bool) func(*testing.B) {
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	return func(b *testing.B) {
		tbl, err := viewcube.NewTable([]string{"x", "y", "z"}, "m")
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 128; i++ {
			if err := tbl.Append([]string{fmt.Sprint("x", i), fmt.Sprint("y", i%64), fmt.Sprint("z", i%16)}, 1); err != nil {
				b.Fatal(err)
			}
		}
		for i := 0; i < b.N; i++ {
			before := heap()
			var keep any
			if agg {
				keep, err = viewcube.NewAggEngine(tbl, viewcube.EngineOptions{})
			} else {
				var cube *viewcube.Cube
				if cube, err = viewcube.FromRelation(tbl); err == nil {
					keep, err = cube.NewEngine(viewcube.EngineOptions{})
				}
			}
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(heap()-before)/(128*64*16), "B/cell")
			runtime.KeepAlive(keep)
		}
	}
}

func BenchmarkNewEngineResident(b *testing.B) {
	b.Run("scalar", benchNewEngineResident(false))
	b.Run("agg", benchNewEngineResident(true))
}

// BenchmarkCoordinatorHitBody is a coordinator /groupby whose merged answer is
// cached: the cache holds the compact columnar Result, so every hit encodes
// its 16 384 groups into the handler's reused buffer. Its shards are grid
// cubes, whose cells are n + 0.25, so every value takes strconv's path.
func BenchmarkCoordinatorHitBody(b *testing.B) {
	benchCoordinatorHitBody(b, func(tb testing.TB) *viewcube.Cube { return gridCube(tb, 128) }, "x", "y")
}

// BenchmarkCoordinatorHitBodyInt is the same hit over two salesCube shards:
// three integer keys in runs of 8 and whole-number sums, the answer
// scatter_gather serves.
func BenchmarkCoordinatorHitBodyInt(b *testing.B) {
	benchCoordinatorHitBody(b, salesCube, "product", "region", "channel")
}

func benchCoordinatorHitBody(b *testing.B, shardCube func(testing.TB) *viewcube.Cube, keep ...string) {
	var shards []cluster.Shard
	for _, name := range []string{"s0", "s1"} {
		cube := shardCube(b)
		eng, err := cube.NewEngine(viewcube.EngineOptions{})
		if err != nil {
			b.Fatal(err)
		}
		shards = append(shards, cluster.Shard{Name: name, Client: cluster.NewLoopback(cluster.NewShardEngine(cube, eng.Safe()))})
	}
	coord, err := cluster.NewCoordinator(shards, cluster.Options{Timeout: 5 * time.Second, Cache: &rescache.Options{}})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { coord.Close() })
	var body []byte
	b.ReportAllocs()
	for i := 0; i < b.N+1; i++ { // the first call is the miss that fills the cache
		if i == 1 {
			b.ResetTimer()
		}
		res, _, _, err := coord.GroupByResult(context.Background(), false, false, keep...)
		if err == nil {
			body, err = res.AppendGroupsJSON(body[:0])
		}
		if err != nil || len(body) < 16384*8 {
			b.Fatalf("call %d: %d-byte body, err %v", i, len(body), err)
		}
	}
	if st := coord.ResultCacheStats(); st.Hits != uint64(b.N) {
		b.Fatalf("%d hits in %d calls after the miss", st.Hits, b.N)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/16384, "ns/group")
}

// appendMapResponse and decodeMapResponse are the retired wire payload of a
// group-by response: keys sorted on encode, one length-prefixed string and
// one float per group, a map rebuilt on decode.
func appendMapResponse(p []byte, groups map[string]float64) []byte {
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	p = binary.AppendUvarint(p, uint64(len(keys)))
	for _, k := range keys {
		p = binary.AppendUvarint(p, uint64(len(k)))
		p = append(p, k...)
		p = binary.BigEndian.AppendUint64(p, math.Float64bits(groups[k]))
	}
	return p
}

func decodeMapResponse(p []byte) map[string]float64 {
	n, w := binary.Uvarint(p)
	p = p[w:]
	groups := make(map[string]float64, n)
	for i := uint64(0); i < n; i++ {
		l, w := binary.Uvarint(p)
		key := string(p[w : w+int(l)])
		p = p[w+int(l):]
		groups[key] = math.Float64frombits(binary.BigEndian.Uint64(p))
		p = p[8:]
	}
	return groups
}

// BenchmarkWireResponse is one shard leg's codec work for a 16 384-group
// answer — encode on the shard, decode on the coordinator — in the columnar
// form and in the retired keyed form.
func BenchmarkWireResponse(b *testing.B) {
	b.Run("columnar", benchWireResponse(true))
	b.Run("map", benchWireResponse(false))
}

func benchWireResponse(columnar bool) func(*testing.B) {
	return func(b *testing.B) {
		v := gridView(b, 128, "x", "y")
		groups, err := v.Groups()
		if err != nil {
			b.Fatal(err)
		}
		encode := func() []byte { return appendMapResponse(nil, groups) }
		decode := func(frame []byte) error {
			if got := decodeMapResponse(frame); len(got) != len(groups) {
				return fmt.Errorf("round trip lost groups")
			}
			return nil
		}
		if columnar {
			res, err := v.Result()
			if err != nil {
				b.Fatal(err)
			}
			resp := &cluster.Response{ID: 1, Kind: cluster.KindGroupBy, Result: res}
			encode = func() []byte {
				frame, err := cluster.AppendResponse(nil, resp)
				if err != nil {
					b.Fatal(err)
				}
				return frame
			}
			decode = func(frame []byte) error {
				_, err := cluster.DecodeResponse(frame)
				return err
			}
		}
		// The two halves are reported separately: the shard pays encode, the
		// coordinator decode.
		b.ReportAllocs()
		b.ResetTimer()
		var enc, dec time.Duration
		for i := 0; i < b.N; i++ {
			t0 := time.Now()
			frame := encode()
			t1 := time.Now()
			if err := decode(frame); err != nil {
				b.Fatal(err)
			}
			enc, dec = enc+t1.Sub(t0), dec+time.Since(t1)
			b.SetBytes(int64(len(frame)))
		}
		b.ReportMetric(float64(enc.Microseconds())/float64(b.N), "encode-us/op")
		b.ReportMetric(float64(dec.Microseconds())/float64(b.N), "decode-us/op")
	}
}

// BenchmarkCoordinatorMerge16k merges two shards' 16 384-group answers: index
// addition over equal headers, against the retired map-by-map merge.
func BenchmarkCoordinatorMerge16k(b *testing.B) {
	b.Run("columnar", benchCoordinatorMerge16k(true))
	b.Run("map", benchCoordinatorMerge16k(false))
}

func benchCoordinatorMerge16k(columnar bool) func(*testing.B) {
	return func(b *testing.B) {
		v := gridView(b, 128, "x", "y")
		res, err := v.Result()
		if err != nil {
			b.Fatal(err)
		}
		groups, err := res.Groups()
		if err != nil {
			b.Fatal(err)
		}
		merge := func() error {
			out := make(map[string]float64)
			for _, g := range []map[string]float64{groups, groups} {
				for k, val := range g {
					out[k] += val
				}
			}
			return nil
		}
		if columnar {
			parts := []*viewcube.Result{res, res}
			merge = func() error {
				_, err := viewcube.MergeResults(parts)
				return err
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := merge(); err != nil {
				b.Fatal(err)
			}
		}
	}
}
