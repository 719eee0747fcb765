package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"strings"
)

// This file generates every input from the run's seed: the relation (rows
// and CSV files), the catalog file, the ingest deltas and the order of the
// operation sequence. The *population* — which distinct queries exist, how
// much traffic each draws and in what cyclic order — is fixed per workload,
// so the count metrics (space_amp, model ops, allocations per query, cache
// hit ratios) are comparable across seeds and across commits; the seed
// changes the data under the queries and where in the cycle a run starts.

const measure = "sales"

// maxGroups excludes group-bys whose answer is larger: one such answer is
// megabytes of JSON and would be the only thing the run measures.
const maxGroups = 16384

// maxFilteredGroups bounds the group-by of a SQL statement with a WHERE
// clause. A filtered group-by reads range-pyramid elements that keep the
// grouped dimensions at full resolution; the first use of each plans and
// assembles an element as large as the answer, which on the seed commit takes
// seconds for a three-dimension group-by and would make set-up the run.
const maxFilteredGroups = 256

// bigGroups marks an answer whose encode cost is worth its own latency line.
const bigGroups = 4096

type dimSpec struct {
	name  string
	n     int // extent, a power of two, every value present in the data
	width int // zero-padded digits, so sorted value order is index order
}

func (d dimSpec) value(i int) string { return fmt.Sprintf("%s-%0*d", d.name, d.width, i) }

// cubeSpec is one relation: four dimensions and an integer measure.
type cubeSpec struct {
	name string
	dims [4]dimSpec
	rows int
}

func (c cubeSpec) cells() int {
	n := 1
	for _, d := range c.dims {
		n *= d.n
	}
	return n
}

func salesDims(p, r, d, c int) [4]dimSpec {
	return [4]dimSpec{{"product", p, 3}, {"region", r, 2}, {"day", d, 3}, {"channel", c, 1}}
}

// scale sizes the inputs. The full scale is what BENCHMARK.json measures;
// the smoke scale runs all four topologies in a few seconds for go test.
type scale struct {
	main  cubeSpec // assemble_cold, dash_hot, ingest_reads
	small cubeSpec // second catalog cube of dash_hot
	wide  cubeSpec // scatter_gather, split over two shards, never optimized
	// minShardGroups is the smallest group-by answer scatter_gather asks
	// for, so merged answers are large against the 1 MiB coordinator cache.
	minShardGroups int
	traceOps       int // operations replayed in-process by the traced run
	setups         int // set-ups per run; setup_s is their median
}

var fullScale = scale{
	main:           cubeSpec{"sales", salesDims(64, 16, 32, 4), 100000},
	small:          cubeSpec{"stock", salesDims(16, 8, 16, 4), 20000},
	wide:           cubeSpec{"sales", salesDims(128, 16, 64, 8), 200000},
	minShardGroups: 1024,
	traceOps:       2000,
	setups:         3,
}

var smokeScale = scale{
	main:           cubeSpec{"sales", salesDims(8, 4, 8, 2), 3000},
	small:          cubeSpec{"stock", salesDims(4, 2, 4, 2), 500},
	wide:           cubeSpec{"sales", salesDims(16, 4, 8, 2), 4000},
	minShardGroups: 32,
	traceOps:       100,
	setups:         1,
}

type row struct {
	c [4]int
	v int64
}

// genRows draws the relation: products are skewed (70 % of rows Zipf over
// products), the other dimensions uniform, measures integers in [1,99] so
// every sum is exact in float64.
func genRows(spec cubeSpec, rng *rand.Rand) []row {
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(spec.dims[0].n-1))
	rows := make([]row, spec.rows)
	for i := range rows {
		var r row
		if rng.Float64() < 0.7 {
			r.c[0] = int(zipf.Uint64())
		} else {
			r.c[0] = rng.Intn(spec.dims[0].n)
		}
		for m := 1; m < 4; m++ {
			r.c[m] = rng.Intn(spec.dims[m].n)
		}
		r.v = int64(1 + rng.Intn(99))
		rows[i] = r
	}
	return rows
}

// shardOf hash-partitions a row over two shards.
func shardOf(r row) int {
	x := uint32(r.c[0])<<24 ^ uint32(r.c[1])<<16 ^ uint32(r.c[2])<<8 ^ uint32(r.c[3])
	x *= 2654435761
	return int(x>>16) & 1
}

// writeCSV writes the rows that keep accepts. Every file starts with one
// zero-measure row per dimension value, so every dictionary is complete and
// identical in every shard whatever rows the partition sent there.
func writeCSV(path string, spec cubeSpec, rows []row, keep func(row) bool) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	names := make([]string, 4)
	for m, d := range spec.dims {
		names[m] = d.name
	}
	fmt.Fprintf(w, "%s,%s\n", strings.Join(names, ","), measure)
	most := 0
	for _, d := range spec.dims {
		most = max(most, d.n)
	}
	for i := 0; i < most; i++ {
		for _, d := range spec.dims {
			fmt.Fprintf(w, "%s,", d.value(i%d.n))
		}
		fmt.Fprintln(w, "0")
	}
	for _, r := range rows {
		if keep != nil && !keep(r) {
			continue
		}
		for m, d := range spec.dims {
			fmt.Fprintf(w, "%s,", d.value(r.c[m]))
		}
		fmt.Fprintln(w, r.v)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// viewDecl is a catalog view the generator queries through: exposed member
// names per dimension ("" = excluded from the view).
type viewDecl struct {
	name    string
	exposed [4]string
}

// raw is the nil view: legacy routes, underlying dimension names.
func rawView(spec cubeSpec) viewDecl {
	var v viewDecl
	for m, d := range spec.dims {
		v.exposed[m] = d.name
	}
	return v
}

// dashView and shelfView are dash_hot's two curated views: aliases on two
// members and one member excluded each.
var (
	dashView  = viewDecl{"dash", [4]string{"item", "", "date", "channel"}}
	shelfView = viewDecl{"shelf", [4]string{"sku", "region", "day", ""}}
)

// catalogJSON renders dash_hot's catalog file: the main cube at budget 1
// (Algorithm 1 basis) and the small cube at budget 2 (Algorithm 2 stores a
// redundant set), one view each.
func catalogJSON(main, small cubeSpec) []byte {
	type member struct {
		Name  string `json:"name"`
		Alias string `json:"alias,omitempty"`
	}
	view := func(cube cubeSpec, v viewDecl) map[string]any {
		var inc []member
		var exc []string
		for m, d := range cube.dims {
			switch v.exposed[m] {
			case "":
				exc = append(exc, d.name)
			case d.name:
				inc = append(inc, member{Name: d.name})
			default:
				inc = append(inc, member{Name: d.name, Alias: v.exposed[m]})
			}
		}
		return map[string]any{"name": v.name, "cube": cube.name, "includes": inc, "excludes": exc}
	}
	doc := map[string]any{
		"cubes": []map[string]any{
			{"name": main.name, "csv": main.name + ".csv", "measure": measure, "budget": 1.0, "default": true},
			{"name": small.name, "csv": small.name + ".csv", "measure": measure, "budget": 2.0},
		},
		"views": []map[string]any{view(main, dashView), view(small, shelfView)},
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // unreachable: plain maps and strings
	}
	return append(out, '\n')
}

type opKind uint8

const (
	opGroupBy opKind = iota
	opRange
	opSQL
)

func (k opKind) String() string { return [...]string{"groupby", "range", "sql"}[k] }

// querySpec is one distinct query of a population: what it asks (for the
// oracle), how it is sent (for the load generator) and how much of the
// traffic it draws.
type querySpec struct {
	kind   opKind
	cube   int    // index into the workload's cubes
	keep   []int  // kept dimensions, cube order
	lo, hi [4]int // inclusive filter box; unfiltered dimensions span their extent
	weight float64

	groups int // answer size
	method string
	path   string
	body   string

	want     answer // brute-force answer over the base rows
	wantBody []byte // first verified response; later responses must equal it
}

func (q *querySpec) filtered(spec cubeSpec, m int) bool {
	return q.lo[m] != 0 || q.hi[m] != spec.dims[m].n-1
}

// hasFilter reports whether any dimension is filtered.
func (q *querySpec) hasFilter(spec cubeSpec) bool {
	lo, hi := fullBox(spec)
	return q.lo != lo || q.hi != hi
}

// render fills method, path and body for a route prefix and a view.
func (q *querySpec) render(spec cubeSpec, prefix string, v viewDecl) {
	q.groups = 1
	var keep []string
	for _, m := range q.keep {
		q.groups *= spec.dims[m].n
		keep = append(keep, v.exposed[m])
	}
	var where, ranges []string
	for m, d := range spec.dims {
		if !q.filtered(spec, m) {
			continue
		}
		ranges = append(ranges, fmt.Sprintf("%s=%s:%s", v.exposed[m], d.value(q.lo[m]), d.value(q.hi[m])))
		if q.lo[m] == q.hi[m] {
			where = append(where, fmt.Sprintf("%s = '%s'", v.exposed[m], d.value(q.lo[m])))
		} else {
			where = append(where, fmt.Sprintf("%s BETWEEN '%s' AND '%s'", v.exposed[m], d.value(q.lo[m]), d.value(q.hi[m])))
		}
	}
	switch q.kind {
	case opGroupBy:
		q.method, q.path = "GET", prefix+"/groupby?keep="+strings.Join(keep, ",")
	case opRange:
		q.method, q.path = "GET", prefix+"/range?"+strings.Join(ranges, "&")
	case opSQL:
		sql := "SELECT SUM(" + measure + ")"
		if len(keep) > 0 {
			sql += " GROUP BY " + strings.Join(keep, ", ")
		}
		if len(where) > 0 {
			sql += " WHERE " + strings.Join(where, " AND ")
		}
		b, _ := json.Marshal(map[string]string{"sql": sql})
		q.method, q.path, q.body = "POST", prefix+"/query", string(b)
	}
}

func fullBox(spec cubeSpec) (lo, hi [4]int) {
	for m, d := range spec.dims {
		hi[m] = d.n - 1
	}
	return lo, hi
}

// viewsOf lists the aggregated views over the allowed dimensions (a proper
// subset kept, the grand total included) whose answers have between min and
// most groups, largest first, ties in mask order.
func viewsOf(spec cubeSpec, allowed [4]bool, min, most int) [][]int {
	var out [][]int
	for mask := 0; mask < 15; mask++ {
		var keep []int
		groups, ok := 1, true
		for m := 0; m < 4; m++ {
			if mask&(1<<m) == 0 {
				continue
			}
			if !allowed[m] {
				ok = false
			}
			keep = append(keep, m)
			groups *= spec.dims[m].n
		}
		if ok && groups >= min && groups <= most {
			out = append(out, keep)
		}
	}
	size := func(keep []int) int {
		n := 1
		for _, m := range keep {
			n *= spec.dims[m].n
		}
		return n
	}
	sort.SliceStable(out, func(i, j int) bool { return size(out[i]) > size(out[j]) })
	return out
}

// boxes draws count filter boxes over 1 to most of the allowed dimensions.
// Every filtered dimension multiplies the pyramid elements a cold range
// query has to assemble, which is what set-up time is made of.
func boxes(spec cubeSpec, allowed [4]bool, rng *rand.Rand, count, most int) [][2][4]int {
	var dims []int
	for m := 0; m < 4; m++ {
		if allowed[m] {
			dims = append(dims, m)
		}
	}
	out := make([][2][4]int, count)
	for i := range out {
		lo, hi := fullBox(spec)
		for _, j := range rng.Perm(len(dims))[:1+rng.Intn(min(most, len(dims)))] {
			m := dims[j]
			a, b := rng.Intn(spec.dims[m].n), rng.Intn(spec.dims[m].n)
			lo[m], hi[m] = min(a, b), max(a, b)
		}
		if lo2, hi2 := fullBox(spec); lo == lo2 && hi == hi2 {
			lo[dims[0]] = 1 // a box that filters nothing is not a range query
		}
		out[i] = [2][4]int{lo, hi}
	}
	return out
}

// zipf assigns rank r (0-based, in slice order) the weight (r+1)^-skew,
// scaled so the slice sums to mass.
func zipf(qs []*querySpec, skew, mass float64) {
	total := 0.0
	for r := range qs {
		total += math.Pow(float64(r+1), -skew)
	}
	for r, q := range qs {
		q.weight = mass * math.Pow(float64(r+1), -skew) / total
	}
}

// populationSeed fixes every population; see the note at the top of the file.
const populationSeed = 1998

// sqlQueries builds count SQL statements with a WHERE clause: each groups by
// a view and filters one of the other allowed dimensions.
func sqlQueries(spec cubeSpec, cube int, allowed [4]bool, rng *rand.Rand, count int) []*querySpec {
	views := viewsOf(spec, allowed, 1, maxFilteredGroups)
	var out []*querySpec
	for len(out) < count {
		keep := views[rng.Intn(len(views))]
		free := allowed
		for _, m := range keep {
			free[m] = false
		}
		if free == [4]bool{} {
			continue
		}
		b := boxes(spec, free, rng, 1, 1)[0]
		out = append(out, &querySpec{kind: opSQL, cube: cube, keep: keep, lo: b[0], hi: b[1]})
	}
	return out
}

func groupBys(spec cubeSpec, cube int, views [][]int) []*querySpec {
	out := make([]*querySpec, len(views))
	for i, keep := range views {
		lo, hi := fullBox(spec)
		out[i] = &querySpec{kind: opGroupBy, cube: cube, keep: keep, lo: lo, hi: hi}
	}
	return out
}

func rangeQueries(spec cubeSpec, cube int, allowed [4]bool, rng *rand.Rand, count int) []*querySpec {
	out := make([]*querySpec, count)
	for i, b := range boxes(spec, allowed, rng, count, 2) {
		out[i] = &querySpec{kind: opRange, cube: cube, lo: b[0], hi: b[1]}
	}
	return out
}

func allowedOf(v viewDecl) (a [4]bool) {
	for m := range a {
		a[m] = v.exposed[m] != ""
	}
	return a
}

// shuffled returns a copy in a fixed pseudo-random order, so Zipf rank is
// not correlated with answer size.
func shuffled(qs []*querySpec, rng *rand.Rand) []*querySpec {
	out := append([]*querySpec(nil), qs...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// mixedPopulation is the dashboard-style population shared by dash_hot (two
// cubes through views) and ingest_reads (one cube, raw routes): per cube,
// every eligible group-by, a pool of ranges and a pool of SQL statements,
// Zipf-weighted, with bigMass of the traffic set aside for answers of at
// least bigGroups groups.
func mixedPopulation(cubes []cubeSpec, views []viewDecl, prefixes []string, share []float64, perCube int, skew, bigMass float64) []*querySpec {
	rng := rand.New(rand.NewSource(populationSeed))
	var small, big []*querySpec
	for c, spec := range cubes {
		allowed := allowedOf(views[c])
		gb := groupBys(spec, c, viewsOf(spec, allowed, 1, maxGroups))
		rest := perCube - len(gb)
		qs := append(gb, rangeQueries(spec, c, allowed, rng, rest/2)...)
		qs = append(qs, sqlQueries(spec, c, allowed, rng, rest-rest/2)...)
		var cs []*querySpec
		for _, q := range qs {
			q.render(spec, prefixes[c], views[c])
			if q.groups >= bigGroups {
				big = append(big, q)
			} else {
				cs = append(cs, q)
			}
		}
		cs = shuffled(cs, rng)
		zipf(cs, skew, share[c]*(1-bigMass))
		small = append(small, cs...)
	}
	zipf(big, 0, bigMass)
	if len(big) == 0 {
		for _, q := range small {
			q.weight /= 1 - bigMass
		}
	}
	return append(small, big...)
}

// coldPopulation is assemble_cold's: 70 % group-bys over every eligible
// aggregated view, 15 % ranges from a pool of 64 boxes, 15 % SQL with WHERE.
func coldPopulation(spec cubeSpec) []*querySpec {
	rng := rand.New(rand.NewSource(populationSeed))
	all := [4]bool{true, true, true, true}
	gb := shuffled(groupBys(spec, 0, viewsOf(spec, all, 1, maxGroups)), rng)
	rq := rangeQueries(spec, 0, all, rng, 64)
	sq := sqlQueries(spec, 0, all, rng, 32)
	zipf(gb, 1.0, 0.70)
	zipf(rq, 1.0, 0.15)
	zipf(sq, 1.0, 0.15)
	out := append(append(gb, rq...), sq...)
	for _, q := range out {
		q.render(spec, "", rawView(spec))
	}
	return out
}

// shardPopulation is scatter_gather's: every group-by of at least minGroups
// groups, equally weighted, and a few ranges (the coordinator has no SQL
// route) — 32 distinct queries whose merged answers do not fit the
// coordinator's 1 MiB cache together, so it evicts continuously. Nine in ten
// operations are group-bys, which keeps the cache's hit ratio near 0.4 and
// the median latency inside the miss path, away from the gap between a hit
// and a miss where a small shift in the ratio would move it a lot.
func shardPopulation(spec cubeSpec, minGroups int) []*querySpec {
	rng := rand.New(rand.NewSource(populationSeed))
	all := [4]bool{true, true, true, true}
	gb := shuffled(groupBys(spec, 0, viewsOf(spec, all, minGroups, maxGroups)), rng)
	rq := rangeQueries(spec, 0, all, rng, 32-len(gb))
	zipf(gb, 0, 0.9)
	zipf(rq, 1.0, 0.1)
	out := append(gb, rq...)
	for _, q := range out {
		q.render(spec, "", rawView(spec))
	}
	return out
}

// sequence expands a population into one cycle of about n operations —
// query i appears round(weight·n) times, at least once. The order within the
// cycle is fixed, like the population, because what a cache keeps depends on
// the order it is asked in; the run's seed picks where in the cycle the run
// starts. The load generator walks the cycle round and round, so the mix a
// run measures does not depend on how far it got.
func sequence(pop []*querySpec, n int, rng *rand.Rand) []int {
	var seq []int
	for i, q := range pop {
		for k := max(1, int(math.Round(q.weight*float64(n)))); k > 0; k-- {
			seq = append(seq, i)
		}
	}
	rand.New(rand.NewSource(populationSeed)).Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	start := rng.Intn(len(seq))
	return append(seq[start:], seq[:start]...)
}

// hotViews turns a population's group-by traffic into the view frequencies
// POST /optimize takes (names are the underlying dimensions).
func hotViews(spec cubeSpec, cube int, pop []*querySpec) []byte {
	type hot struct {
		Keep []string `json:"keep"`
		Freq float64  `json:"freq"`
	}
	byKeep := map[string]*hot{}
	var order []string
	for _, q := range pop {
		if q.cube != cube || q.hasFilter(spec) {
			continue
		}
		keep := make([]string, len(q.keep))
		for i, m := range q.keep {
			keep[i] = spec.dims[m].name
		}
		key := strings.Join(keep, ",")
		if byKeep[key] == nil {
			byKeep[key] = &hot{Keep: keep}
			order = append(order, key)
		}
		byKeep[key].Freq += q.weight
	}
	views := make([]*hot, len(order))
	for i, key := range order {
		views[i] = byKeep[key]
	}
	b, _ := json.Marshal(map[string]any{"views": views})
	return b
}

// ingestBatch is one POST /ingest body and the deltas it carries.
type ingestBatch struct {
	body  []byte
	cells [][4]int
	delta []int64
}

// genBatches draws count batches of rowsPer positive integer deltas; every
// flushEvery-th batch asks to be flushed, and so does the last, which closes
// the run.
func genBatches(spec cubeSpec, rng *rand.Rand, count, rowsPer, flushEvery int) []ingestBatch {
	type ingestRow struct {
		Delta  float64           `json:"delta"`
		Values map[string]string `json:"values"`
	}
	out := make([]ingestBatch, count)
	for i := range out {
		b := &out[i]
		rows := make([]ingestRow, rowsPer)
		for j := range rows {
			var c [4]int
			vals := make(map[string]string, 4)
			for m, d := range spec.dims {
				c[m] = rng.Intn(d.n)
				vals[d.name] = d.value(c[m])
			}
			delta := int64(1 + rng.Intn(9))
			b.cells, b.delta = append(b.cells, c), append(b.delta, delta)
			rows[j] = ingestRow{Delta: float64(delta), Values: vals}
		}
		b.body, _ = json.Marshal(map[string]any{"rows": rows, "flush": (i+1)%flushEvery == 0 || i == count-1})
	}
	return out
}
