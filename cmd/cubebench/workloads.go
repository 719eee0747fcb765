package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// workload is one traffic mix over one topology of cubed processes. The
// four of them are chosen so that each layer does most of the work in one
// and next to none in another; README.md gives the reasoning per workload.
type workload struct {
	name  string
	why   string
	conns int // closed-loop reader connections
	cycle int // operations in one pass of the seeded sequence

	cubes   []cubeSpec
	views   []viewDecl
	pop     []*querySpec
	ingest  bool // one writer connection beside the readers
	sharded bool // rows split over two shard processes behind a coordinator

	// boot starts the topology and leaves it ready for queries: children
	// healthy and, where the workload says so, /optimize applied.
	boot func(b *bench, w *workload, n int) (*topology, error)

	// filled by prepare from the run's seed
	oracles []*oracle
	seq     []int
	batches []ingestBatch
	upper   []answer // per query, the answer if every generated batch were merged
}

// node is one server process of a topology and where its state is scraped.
type node struct {
	name       string
	child      *child
	addr       string
	statsPaths []string // JSON stats, one per cube; /shards on a coordinator
	heap       bool     // serves /debug/pprof/heap (MemStats)
}

type topology struct {
	nodes    []*node
	front    string        // host:port the load is sent to
	optimize time.Duration // POST /optimize round trips
}

func (t *topology) children() []*child {
	cs := make([]*child, len(t.nodes))
	for i, n := range t.nodes {
		cs[i] = n.child
	}
	return cs
}

const (
	// The ingest writer posts one batch per readsPerBatch completed reads,
	// so the mix of reads, writes, merges and invalidations a run measures
	// does not depend on how fast the machine is that minute. On the seed
	// commit that is about 20 batches and 2000 rows a second.
	readsPerBatch = 64
	ingestRows    = 100 // rows per batch
	ingestFlush   = 20  // every n-th batch asks flush:true
	// maxBatchesPerSecond sizes the batches generated up front; a writer
	// that runs out stops writing and the run fails.
	maxBatchesPerSecond = 100
	mainBudget          = 1.0 // -budget of the single-cube topologies: the Algorithm 1 basis
	shardCacheMiB       = 1
	resultCacheMiB      = 64
)

func workloads(sc scale) []*workload {
	main, small, wide := sc.main, sc.small, sc.wide
	dashPrefixes := []string{
		"/cubes/" + main.name + "/views/" + dashView.name,
		"/cubes/" + small.name + "/views/" + shelfView.name,
	}
	return []*workload{
		{
			name:  "assemble_cold",
			why:   "2 closed-loop connections, result cache off: every group-by, range and SQL query plans (cache hit) and assembles its view from the optimized basis, then builds and encodes the group map",
			conns: 2, cycle: 2048,
			cubes: []cubeSpec{main}, views: []viewDecl{rawView(main)},
			pop:  coldPopulation(main),
			boot: bootSingle,
		},
		{
			name:  "dash_hot",
			why:   "2 closed-loop connections, two catalog cubes behind aliased views, 64 MiB result cache: after warm-up every query is a cache hit, so HTTP, JSON, view rewrite and the hit path do all the work",
			conns: 2, cycle: 4096,
			cubes: []cubeSpec{main, small}, views: []viewDecl{dashView, shelfView},
			pop:  mixedPopulation([]cubeSpec{main, small}, []viewDecl{dashView, shelfView}, dashPrefixes, []float64{0.8, 0.2}, 100, 1.1, 0.05),
			boot: bootCatalog,
		},
		{
			name:  "ingest_reads",
			why:   "1 closed-loop reader plus 1 writer posting 100 integer deltas through the WAL per 64 reads (~20 batches/s): each merge clones the store, publishes a snapshot and invalidates result and range caches",
			conns: 1, cycle: 2048,
			cubes: []cubeSpec{main}, views: []viewDecl{rawView(main)},
			pop:    mixedPopulation([]cubeSpec{main}, []viewDecl{rawView(main)}, []string{""}, []float64{1}, 200, 1.1, 0.05),
			ingest: true,
			boot:   bootSingle,
		},
		{
			name:  "scatter_gather",
			why:   "1 closed-loop connection to a coordinator over two shard processes, 1 MiB answer cache smaller than the working set: wire codec, fan-out, merge, eviction and raw-cube aggregation do the work",
			conns: 1, cycle: 256,
			cubes: []cubeSpec{wide}, views: []viewDecl{rawView(wide)},
			pop:     shardPopulation(wide, sc.minShardGroups),
			sharded: true,
			boot:    bootCluster,
		},
	}
}

// logicalCells is the denominator of space_amp: the cells of the padded
// cube(s) the clients see, however many processes store them.
func (w *workload) logicalCells() int {
	n := 0
	for _, c := range w.cubes {
		n += c.cells()
	}
	return n
}

func (w *workload) csvPath(b *bench, cube, shard int) string {
	if shard >= 0 {
		return filepath.Join(b.dir, fmt.Sprintf("%s.shard%d.csv", w.cubes[cube].name, shard))
	}
	return filepath.Join(b.dir, w.cubes[cube].name+".csv")
}

// prepare generates the run's inputs from its seed and writes them to the
// work directory: relations as CSV, the catalog file, ingest batches, the
// operation sequence, and the oracle's answer to every distinct query.
func (w *workload) prepare(b *bench, seed int64, ingestBatches int) error {
	rng := rand.New(rand.NewSource(seed))
	for c, spec := range w.cubes {
		rows := genRows(spec, rng)
		w.oracles = append(w.oracles, newOracle(spec, rows))
		if w.sharded {
			for s := 0; s < 2; s++ {
				s := s
				if err := writeCSV(w.csvPath(b, c, s), spec, rows, func(r row) bool { return shardOf(r) == s }); err != nil {
					return err
				}
			}
		} else if err := writeCSV(w.csvPath(b, c, -1), spec, rows, nil); err != nil {
			return err
		}
	}
	if len(w.cubes) > 1 {
		if err := os.WriteFile(filepath.Join(b.dir, "catalog.json"), catalogJSON(w.cubes[0], w.cubes[1]), 0o644); err != nil {
			return err
		}
	}
	w.seq = sequence(w.pop, w.cycle, rng)
	for _, q := range w.pop {
		q.want = w.oracles[q.cube].answer(q)
	}
	if w.ingest {
		w.batches = genBatches(w.cubes[0], rng, ingestBatches, ingestRows, ingestFlush)
		all := &oracle{spec: w.cubes[0], cells: append([]int64(nil), w.oracles[0].cells...)}
		all.apply(w.batches)
		w.upper = make([]answer, len(w.pop))
		for i, q := range w.pop {
			w.upper[i] = all.answer(q)
		}
	}
	return nil
}

// apply adds the batches' deltas to the oracle's relation.
func (o *oracle) apply(batches []ingestBatch) {
	for _, batch := range batches {
		for i, c := range batch.cells {
			o.add(c, batch.delta[i])
		}
	}
}

func (b *bench) optimize(t *topology, url string, body []byte) error {
	start := time.Now()
	_, err := b.request("POST", url, body)
	t.optimize += time.Since(start)
	return err
}

// bootSingle runs one cubed over the main CSV at budget 1, with the result
// cache off (assemble_cold) or with streaming ingest, a WAL and a result
// cache (ingest_reads), then applies the population's view frequencies.
// -walfsync stays off: the benchmark measures the pipeline, not the disk.
func bootSingle(b *bench, w *workload, n int) (*topology, error) {
	addrs, err := freePorts(1)
	if err != nil {
		return nil, err
	}
	args := []string{"-csv", w.csvPath(b, 0, -1), "-measure", measure, "-budget", fmt.Sprint(mainBudget), "-pprof", "-addr", addrs[0]}
	if w.ingest {
		wal := filepath.Join(b.dir, fmt.Sprintf("ingest-%d.wal", n))
		args = append(args, "-ingest", "-wal", wal, "-rescache", fmt.Sprint(resultCacheMiB))
	}
	c, err := b.spawn(fmt.Sprintf("%s-%d", w.name, n), args...)
	if err != nil {
		return nil, err
	}
	t := &topology{
		nodes: []*node{{name: "cubed", child: c, addr: addrs[0], statsPaths: []string{"/stats"}, heap: true}},
		front: addrs[0],
	}
	if err := b.waitHealthy(addrs[0]); err != nil {
		return t, err
	}
	return t, b.optimize(t, "http://"+addrs[0]+"/optimize", hotViews(w.cubes[0], 0, w.pop))
}

// bootCatalog runs one cubed over the two-cube catalog file with a 64 MiB
// result cache and optimizes each cube for its share of the population.
func bootCatalog(b *bench, w *workload, n int) (*topology, error) {
	addrs, err := freePorts(1)
	if err != nil {
		return nil, err
	}
	c, err := b.spawn(fmt.Sprintf("%s-%d", w.name, n),
		"-catalog", filepath.Join(b.dir, "catalog.json"), "-rescache", fmt.Sprint(resultCacheMiB), "-pprof", "-addr", addrs[0])
	if err != nil {
		return nil, err
	}
	nd := &node{name: "cubed", child: c, addr: addrs[0], heap: true}
	for _, spec := range w.cubes {
		nd.statsPaths = append(nd.statsPaths, "/cubes/"+spec.name+"/stats")
	}
	t := &topology{nodes: []*node{nd}, front: addrs[0]}
	if err := b.waitHealthy(addrs[0]); err != nil {
		return t, err
	}
	for i, spec := range w.cubes {
		if err := b.optimize(t, "http://"+addrs[0]+"/cubes/"+spec.name+"/optimize", hotViews(spec, i, w.pop)); err != nil {
			return t, err
		}
	}
	return t, nil
}

// bootCluster runs two shard servers, each over its half of the rows, and
// a coordinator with a 1 MiB merged-answer cache. Shards keep the raw cube
// as their only stored element (no /optimize), so each leg aggregates from
// the base cube.
func bootCluster(b *bench, w *workload, n int) (*topology, error) {
	addrs, err := freePorts(5)
	if err != nil {
		return nil, err
	}
	t := &topology{front: addrs[4]}
	var shardAddrs []string
	for s := 0; s < 2; s++ {
		c, err := b.spawn(fmt.Sprintf("%s-%d-shard%d", w.name, n, s),
			"-csv", w.csvPath(b, 0, s), "-measure", measure, "-shard", "-shardaddr", addrs[2+s], "-pprof", "-addr", addrs[s])
		if err != nil {
			return t, err
		}
		t.nodes = append(t.nodes, &node{name: fmt.Sprintf("shard%d", s), child: c, addr: addrs[s], statsPaths: []string{"/stats"}, heap: true})
		shardAddrs = append(shardAddrs, addrs[2+s])
	}
	c, err := b.spawn(fmt.Sprintf("%s-%d-coordinator", w.name, n),
		"-coordinator", strings.Join(shardAddrs, ","), "-rescache", fmt.Sprint(shardCacheMiB), "-addr", addrs[4])
	if err != nil {
		return t, err
	}
	t.nodes = append(t.nodes, &node{name: "coordinator", child: c, addr: addrs[4], statsPaths: []string{"/shards"}})
	for _, nd := range t.nodes {
		if err := b.waitHealthy(nd.addr); err != nil {
			return t, err
		}
	}
	return t, nil
}

// setup boots the topology and warms it: every distinct query once, each
// answer checked against the oracle and kept as the bytes later responses
// must repeat. It returns how long that took; `go build` and input
// generation are outside it. On error the topology is already stopped.
func (b *bench) setup(w *workload, n int) (*topology, time.Duration, int, error) {
	start := time.Now()
	t, err := w.boot(b, w, n)
	if err == nil {
		var failed int
		failed, err = b.warm(w, t)
		if err == nil {
			return t, time.Since(start), failed, nil
		}
	}
	if t != nil {
		b.stop(t.children()...)
	}
	return nil, 0, 0, err
}

// warm sends every distinct query once over a control connection and
// verifies it. A wrong answer counts as a failed operation (and fails the
// run); a transport error aborts.
func (b *bench) warm(w *workload, t *topology) (failed int, err error) {
	for i, q := range w.pop {
		body, err := b.request(q.method, "http://"+t.front+q.path, []byte(q.body))
		if err != nil {
			return failed, fmt.Errorf("warm-up query %d (%s %s): %w", i, q.method, q.path, err)
		}
		if err := w.oracles[q.cube].check(q, body, q.want, q.want); err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "cubebench: %s: wrong answer to %s %s %s: %v\n", w.name, q.method, q.path, q.body, err)
		}
		q.wantBody = body
	}
	return failed, nil
}
