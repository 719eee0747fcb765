package main

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// inputs renders everything a workload's run derives from its seed.
func inputs(t *testing.T, w *workload, seed int64) map[string][]byte {
	t.Helper()
	b := &bench{dir: t.TempDir()}
	if err := w.prepare(b, seed, 8); err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	files, err := filepath.Glob(filepath.Join(b.dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(f)] = data
	}
	var seq bytes.Buffer
	for _, i := range w.seq {
		seq.WriteString(strconv.Itoa(i) + " " + w.pop[i].method + " " + w.pop[i].path + " " + w.pop[i].body + "\n")
	}
	out["sequence"] = seq.Bytes()
	for _, bt := range w.batches {
		out["batches"] = append(out["batches"], bt.body...)
	}
	return out
}

func TestSameSeedSameInputs(t *testing.T) {
	for i := range workloads(smokeScale) {
		name := workloads(smokeScale)[i].name
		a := inputs(t, workloads(smokeScale)[i], 7)
		b := inputs(t, workloads(smokeScale)[i], 7)
		c := inputs(t, workloads(smokeScale)[i], 8)
		if len(a) < 2 {
			t.Fatalf("%s: only %d inputs generated", name, len(a))
		}
		for file, data := range a {
			if !bytes.Equal(data, b[file]) {
				t.Errorf("%s: %s differs between two runs of seed 7", name, file)
			}
			// The catalog file declares cubes and views, not data: it is
			// the one input the seed must not change.
			if same := bytes.Equal(data, c[file]); same != (file == "catalog.json") {
				t.Errorf("%s: %s equal across seeds 7 and 8: %v", name, file, same)
			}
		}
	}
}

func TestPopulationsAreFixedAndWeighted(t *testing.T) {
	for i, w := range workloads(fullScale) {
		again := workloads(fullScale)[i]
		total := 0.0
		for j, q := range w.pop {
			if q.path != again.pop[j].path || q.body != again.pop[j].body || q.weight != again.pop[j].weight {
				t.Fatalf("%s: query %d differs between two constructions", w.name, j)
			}
			if q.groups > maxGroups {
				t.Errorf("%s: %s answers %d groups, over the %d cap", w.name, q.path, q.groups, maxGroups)
			}
			total += q.weight
		}
		if math.Abs(total-1) > 1e-9 {
			t.Errorf("%s: weights sum to %v", w.name, total)
		}
		seq := sequence(w.pop, w.cycle, rand.New(rand.NewSource(1)))
		seen := map[int]bool{}
		for _, qi := range seq {
			seen[qi] = true
		}
		if len(seen) != len(w.pop) {
			t.Errorf("%s: one cycle covers %d of %d distinct queries", w.name, len(seen), len(w.pop))
		}
	}
}

func TestOracleAgainstRowScan(t *testing.T) {
	spec := smokeScale.main
	rows := genRows(spec, rand.New(rand.NewSource(3)))
	o := newOracle(spec, rows)
	for _, q := range coldPopulation(spec) {
		want := map[string]int64{}
		var sum int64
		for _, r := range rows {
			in := true
			for m := range r.c {
				in = in && r.c[m] >= q.lo[m] && r.c[m] <= q.hi[m]
			}
			if !in {
				continue
			}
			var key []string
			for _, m := range q.keep {
				key = append(key, spec.dims[m].value(r.c[m]))
			}
			want[strings.Join(key, "/")] += r.v
			sum += r.v
		}
		got := o.answer(q)
		if got.sum != sum {
			t.Fatalf("%s: sum %d, row scan says %d", q.path, got.sum, sum)
		}
		for i, k := range o.groupKeys(q.keep) {
			if q.kind != opRange && got.groups[i] != want[k] {
				t.Fatalf("%s %s: group %q is %d, row scan says %d", q.path, q.body, k, got.groups[i], want[k])
			}
		}
	}
}

func TestDecodeRejectsWrongAnswers(t *testing.T) {
	spec := smokeScale.small
	o := newOracle(spec, nil)
	gb := &querySpec{kind: opGroupBy, keep: []int{3}}
	gb.lo, gb.hi = fullBox(spec)
	for body, ok := range map[string]bool{
		`{"channel-0":1,"channel-1":2}`:   true,
		`{"channel-0":1}`:                 false, // group missing
		`{"channel-0":1,"channel-9":2}`:   false, // unknown group
		`{"channel-0":1.5,"channel-1":2}`: false, // not an integer
		`{"error":"boom","code":500}`:     false,
	} {
		if _, err := o.decode(gb, []byte(body)); (err == nil) != ok {
			t.Errorf("decode(%s): err=%v, want ok=%v", body, err, ok)
		}
	}
	if err := between(answer{sum: 5}, answer{sum: 6}, answer{sum: 9}); err == nil {
		t.Error("between accepted a sum under its lower bound")
	}
}

func TestPercentileAndQuartiles(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for p, want := range map[float64]float64{0: 1, 0.5: 5.5, 0.99: 9.91, 1: 10} {
		if got := percentile(vals, p); math.Abs(got-want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", p, got, want)
		}
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("percentile of nothing is not 0")
	}
	// statistics.quantiles([...], n=4) in Python 3 gives these.
	q1, q2, q3 := quartiles(vals)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles of three = %v %v %v, want 1 2 3", q1, q2, q3)
	}
}

const promFixture = `# HELP viewcube_queries_total Engine queries served, by query kind.
# TYPE viewcube_queries_total counter
viewcube_queries_total{cube="sales",kind="groupby"} 6
viewcube_queries_total{cube="stock",kind="groupby"} 4
viewcube_storage_cells 131072
viewcube_cluster_rpc_duration_seconds_bucket{le="0.001"} 10
viewcube_cluster_rpc_duration_seconds_bucket{le="0.0025"} 30
viewcube_cluster_rpc_duration_seconds_bucket{le="+Inf"} 40
viewcube_cluster_rpc_duration_seconds_sum 0.07
viewcube_cluster_rpc_duration_seconds_count 40
`

func TestParseProm(t *testing.T) {
	p, err := parseProm([]byte(promFixture))
	if err != nil {
		t.Fatal(err)
	}
	if got := p.sum("viewcube_queries_total"); got != 10 {
		t.Errorf("sum over label sets = %v, want 10", got)
	}
	if got := p.sum("viewcube_storage_cells"); got != 131072 {
		t.Errorf("unlabelled series = %v", got)
	}
	// Rank 20 of 40 lies halfway through the (0.001, 0.0025] bucket.
	if got := p.histQuantile("viewcube_cluster_rpc_duration_seconds", 0.5); math.Abs(got-0.00175) > 1e-12 {
		t.Errorf("histQuantile = %v, want 0.00175", got)
	}
	before, _ := parseProm([]byte(`viewcube_queries_total{kind="groupby",cube="sales"} 2` + "\n"))
	if got := p.minus(before).sum("viewcube_queries_total"); got != 8 {
		t.Errorf("delta = %v, want 8 (label order must not matter)", got)
	}
	if _, err := parseProm([]byte("viewcube_x{a=\"b\" 1\n")); err == nil {
		t.Error("unterminated labels accepted")
	}
}

const heapFixture = `heap profile: 1: 2 [3: 4] @ heap/1048576
# runtime.MemStats
# Alloc = 937904
# TotalAlloc = 20942032
# Mallocs = 202795
# HeapAlloc = 937904
# HeapSys = 16318464
# PauseNs = [100 200 300 0]
# PauseEnd = [1 2 3 0]
# NumGC = 3
# NumForcedGC = 0
`

func TestParseMemStats(t *testing.T) {
	m, err := parseMemStats([]byte(heapFixture))
	if err != nil {
		t.Fatal(err)
	}
	want := memStats{totalAlloc: 20942032, mallocs: 202795, heapAlloc: 937904, heapSys: 16318464, numGC: 3, pauseNs: []uint64{100, 200, 300, 0}}
	if !reflect.DeepEqual(m, want) {
		t.Errorf("got %+v, want %+v", m, want)
	}
	if got := m.pauseSince(memStats{numGC: 1}); got != 500 {
		t.Errorf("pauses of GC 2 and 3 = %v, want 500", got)
	}
	// Six cycles through a four-slot ring: the four kept, scaled to six.
	late := memStats{numGC: 7, pauseNs: []uint64{500, 600, 700, 400}}
	if got := late.pauseSince(memStats{numGC: 1}); got != 2200*6/4 {
		t.Errorf("wrapped ring = %v, want %v", got, 2200*6/4)
	}
	if _, err := parseMemStats([]byte("# TotalAlloc = 1\n")); err == nil {
		t.Error("incomplete header accepted")
	}
}

func TestParseProc(t *testing.T) {
	stat := []byte("4242 (cubed worker) S 1 4242 4242 0 -1 4194560 100 0 0 0 150 50 0 0 20 0 8 0 100 1 2 3\n")
	if got, err := parseStatCPU(stat); err != nil || got != 2.0 {
		t.Errorf("cpu seconds = %v, %v; want 2", got, err)
	}
	if got, err := parseVmHWM([]byte("Name:\tcubed\nVmHWM:\t   47300 kB\nVmRSS:\t 1 kB\n")); err != nil || math.Abs(got-47300.0/1024) > 1e-9 {
		t.Errorf("VmHWM = %v, %v", got, err)
	}
	if _, err := parseVmHWM([]byte("Name:\tcubed\n")); err == nil {
		t.Error("missing VmHWM accepted")
	}
}

func TestSelfTimesSumToRoot(t *testing.T) {
	r := &recorder{spans: []span{
		{ID: 0, Parent: -1, Layer: "server", Start: 0, End: 100},
		{ID: 1, Parent: 0, Layer: "cluster", Start: 100, End: 170},
		{ID: 2, Parent: 1, Leg: 1, Layer: "assembly", Start: 170, End: 190},
		{ID: 3, Parent: 1, Leg: 2, Layer: "assembly", Start: 190, End: 230},
		{ID: 4, Parent: 1, Leg: 2, Layer: "cluster", Start: 230, End: 240},
	}}
	self, onPath := r.selfTimes()
	if want := []float64{30, 20, 20, 40, 10}; !reflect.DeepEqual(self, want) {
		t.Errorf("self = %v, want %v", self, want)
	}
	if want := []bool{true, true, false, true, true}; !reflect.DeepEqual(onPath, want) {
		t.Errorf("onPath = %v, want %v", onPath, want)
	}
	total := 0.0
	for i, s := range self {
		if onPath[i] {
			total += s
		}
	}
	if total != 100 {
		t.Errorf("critical-path self times sum to %v, want the root's 100", total)
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(qps, lat []float64) report {
		wr := workloadReport{Metrics: map[string]metricReport{}}
		for _, d := range endToEnd {
			vals := []float64{1, 1, 1, 1}
			switch d.name {
			case "qps":
				vals = qps
			case "lat_p50_ms":
				vals = lat
			}
			wr.Metrics[d.name] = metricReport{Unit: d.unit, Better: d.better, Bound: 0.1,
				A: newSample(vals[:len(vals)/2]), B: newSample(vals[len(vals)/2:])}
		}
		return report{Workloads: map[string]workloadReport{"w": wr}}
	}
	steady := []float64{100, 101, 99, 100}
	var out bytes.Buffer
	// qps up by a half (higher is better), latency up by a half (regressed).
	code := compareReports(&out, mk(steady, steady), mk([]float64{150, 151, 149, 150}, []float64{150, 151, 149, 150}))
	text := out.String()
	if code != 1 {
		t.Errorf("exit code %d, want 1 for a regression\n%s", code, text)
	}
	for metric, verdict := range map[string]string{"qps": "improved", "lat_p50_ms": "regressed", "space_amp": "unchanged"} {
		found := false
		for _, line := range strings.Split(text, "\n") {
			f := strings.Fields(line)
			if len(f) > 2 && f[1] == metric {
				found = f[len(f)-1] == verdict
			}
		}
		if !found {
			t.Errorf("%s not %s in:\n%s", metric, verdict, text)
		}
	}
	out.Reset()
	if code := compareReports(&out, mk(steady, steady), mk([]float64{60, 100, 140, 100}, steady)); code != 0 || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("a spread wider than the bound must be unresolved, exit 0; got %d\n%s", code, out.String())
	}
}

func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json above this directory")
	}
	if want := manifest(runSeconds); !bytes.Equal(data, want) {
		t.Errorf("BENCHMARK.json is not what `cubebench -manifest` prints; regenerate it.\n--- file\n%s\n--- manifest\n%s", data, want)
	}
	names := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if names[d.name] || len(d.name) > 64 || len(d.unit) > 16 || d.bound > 0.25 {
			t.Errorf("metric %+v breaks the manifest's limits", d)
		}
		names[d.name] = true
	}
	for _, w := range workloads(fullScale) {
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why is %d characters", w.name, len(w.why))
		}
	}
}
