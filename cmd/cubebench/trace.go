package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"

	"viewcube"
	"viewcube/internal/catalog"
	"viewcube/internal/cluster"
	"viewcube/internal/haar"
	"viewcube/internal/ingest"
	"viewcube/internal/ndarray"
	"viewcube/internal/obs"
	"viewcube/internal/query"
	"viewcube/internal/relation"
	"viewcube/internal/rescache"
	"viewcube/internal/server"
	"viewcube/internal/velement"
)

// The traced run replays the first operations of a workload's sequence
// in-process, on one goroutine, against handlers assembled the way cubed
// assembles them, and times each layer from the outside: every operation is
// executed once at each depth — ServeHTTP, then the catalog lease call, then
// the engine call, then View.Groups or the wire codec — with a span around
// each call. Nothing is added inside the program, so a parent's self time is
// its span minus what its children, measured in their own calls, took. The
// end-to-end numbers never come from here.

// span is one timed call. Parent is the span this call is nested in on the
// real request path; Leg groups children that run in parallel there (the
// coordinator's shard legs), so only the slowest leg counts as covered.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for an operation's root
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Leg    int    `json:"leg,omitempty"`   // 1-based; 0 = sequential
	Bytes  int    `json:"bytes,omitempty"` // wire frame size, on codec spans
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type recorder struct {
	t0    time.Time
	spans []span
}

func (r *recorder) begin(op, parent, leg int, layer, name string) int {
	r.spans = append(r.spans, span{ID: len(r.spans), Parent: parent, Op: op, Name: name, Layer: layer, Leg: leg})
	id := len(r.spans) - 1
	r.spans[id].Start = time.Since(r.t0).Nanoseconds()
	return id
}

func (r *recorder) end(id int) { r.spans[id].End = time.Since(r.t0).Nanoseconds() }

func (r *recorder) dur(id int) float64 { return float64(r.spans[id].End - r.spans[id].Start) }

// selfTimes returns each span's duration minus what its children cover.
// Sequential children add up. Parallel legs overlap on the real path, so
// only the slowest leg is covered time, and only its spans are on the
// critical path: onPath is false for the spans of the faster legs, which
// the budget leaves out so that shares add up to the operation's time.
func (r *recorder) selfTimes() (self []float64, onPath []bool) {
	seq := make([]float64, len(r.spans))
	legs := make([]map[int]float64, len(r.spans))
	for i, s := range r.spans {
		if s.Parent < 0 {
			continue
		}
		if s.Leg == 0 {
			seq[s.Parent] += r.dur(i)
			continue
		}
		if legs[s.Parent] == nil {
			legs[s.Parent] = map[int]float64{}
		}
		legs[s.Parent][s.Leg] += r.dur(i)
	}
	slowest := make([]int, len(r.spans)) // per parent, the leg that took longest
	self = make([]float64, len(r.spans))
	for i := range r.spans {
		longest := 0.0
		for leg, d := range legs[i] {
			if d > longest || (d == longest && leg < slowest[i]) {
				longest, slowest[i] = d, leg
			}
		}
		self[i] = r.dur(i) - seq[i] - longest
	}
	onPath = make([]bool, len(r.spans))
	for i, s := range r.spans {
		onPath[i] = s.Leg == 0 || slowest[s.Parent] == s.Leg
	}
	return self, onPath
}

// layers are the modules a request crosses, in the order the budget is
// printed. haar and ndarray kernels run inside the engine call and are in
// assembly's share; plan-cache lookups likewise.
var layers = []string{"server", "query", "catalog", "rescache", "assembly", "rangeagg", "cluster", "ingest"}

// sink is the ResponseWriter of the replay: it keeps the bytes, as a
// connection's buffer would, and nothing else.
type sink struct {
	h    http.Header
	n    int
	code int
}

func (s *sink) Header() http.Header  { return s.h }
func (s *sink) WriteHeader(code int) { s.code = code }
func (s *sink) Write(p []byte) (int, error) {
	s.n += len(p)
	return len(p), nil
}

// inproc is one workload's serving stack built inside this process, twice
// over the same engines: the handler cubed would serve, and a shadow of the
// layer below it (registry or coordinator, with its own result cache) that
// the replay calls directly. Both caches see the same operations in the
// same order, so the shadow hits exactly when the handler's did.
type inproc struct {
	handler http.Handler

	shadow *catalog.Registry // single and catalog topologies
	views  []string          // view name per cube ("" = raw)
	names  []string          // registry cube name per cube
	safes  []*viewcube.SafeEngine
	costs  map[string]float64 // group-by keep list -> Procedure 3 ops (Explain)

	shadowCoord *cluster.Coordinator // cluster topology
	shards      []*cluster.ShardEngine

	loadSeconds float64
	compileUs   float64
	closers     []func()
}

func (ip *inproc) close() {
	for i := len(ip.closers) - 1; i >= 0; i-- {
		ip.closers[i]()
	}
}

func discardLogger() *slog.Logger {
	// cubed formats one log line per request; the replay formats it too and
	// drops it, so the cost of logging stays in server's share.
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

var explainCost = regexp.MustCompile(`total cost (\d+) ops`)

// loadEngine reads a CSV the way cubed does and attaches an engine.
func (ip *inproc) loadEngine(path string, budget float64, met *viewcube.Metrics) (*viewcube.Cube, *viewcube.SafeEngine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	start := time.Now()
	tbl, err := relation.ReadCSV(f, measure)
	if err != nil {
		return nil, nil, err
	}
	cube, err := viewcube.FromTable(tbl)
	if err != nil {
		return nil, nil, err
	}
	ip.loadSeconds += time.Since(start).Seconds()
	eng, err := cube.NewEngine(viewcube.EngineOptions{StorageBudget: int(budget * float64(cube.Volume())), Metrics: met})
	if err != nil {
		return nil, nil, err
	}
	return cube, eng.Safe(), nil
}

// buildInproc assembles the workload's stack: server.NewCatalog over a
// registry of SafeEngine handles (cubed's NewSafe and NewCatalog both end
// there), or server.NewCoordinator over loopback shards, which keep the wire
// codec on the path.
func (b *bench) buildInproc(w *workload) (*inproc, error) {
	ip := &inproc{costs: map[string]float64{}}
	qlog, err := obs.NewQueryLog(obs.QueryLogOptions{})
	if err != nil {
		return nil, err
	}
	ip.closers = append(ip.closers, func() { qlog.Close() })

	if w.sharded {
		mk := func() (*cluster.Coordinator, error) {
			shards := make([]cluster.Shard, len(ip.shards))
			for i, sh := range ip.shards {
				shards[i] = cluster.Shard{Name: fmt.Sprintf("shard%d", i), Client: cluster.NewLoopback(sh)}
			}
			return cluster.NewCoordinator(shards, cluster.Options{
				QueryLog: qlog,
				Cache:    &rescache.Options{MaxBytes: shardCacheMiB << 20},
			})
		}
		for s := 0; s < 2; s++ {
			cube, safe, err := ip.loadEngine(w.csvPath(b, 0, s), 1.0, viewcube.NewMetrics())
			if err != nil {
				return nil, err
			}
			ip.safes = append(ip.safes, safe)
			ip.shards = append(ip.shards, cluster.NewShardEngine(cube, safe))
		}
		coord, err := mk()
		if err != nil {
			return nil, err
		}
		if ip.shadowCoord, err = mk(); err != nil {
			return nil, err
		}
		ip.closers = append(ip.closers, func() { coord.Close(); ip.shadowCoord.Close() })
		ip.handler = server.NewCoordinator(coord,
			server.WithCoordinatorLogger(discardLogger()), server.WithCoordinatorQueryLog(qlog))
		return ip, ip.compile(w)
	}

	reg, shadow := catalog.NewRegistry(), catalog.NewRegistry()
	ip.shadow = shadow
	cached := w.ingest || len(w.cubes) > 1
	budgets := []float64{mainBudget}
	var viewSpecs []catalog.ViewSpec
	if len(w.cubes) > 1 {
		raw, err := os.ReadFile(filepath.Join(b.dir, "catalog.json"))
		if err != nil {
			return nil, err
		}
		file, err := catalog.Parse(raw)
		if err != nil {
			return nil, err
		}
		budgets = budgets[:0]
		for _, c := range file.Cubes {
			budgets = append(budgets, c.Budget)
		}
		viewSpecs = file.Views
	}
	for _, r := range []*catalog.Registry{reg, shadow} {
		if cached {
			r.EnableResultCache(rescache.Options{MaxBytes: resultCacheMiB << 20})
		}
	}
	for c, spec := range w.cubes {
		name, met := "default", viewcube.NewMetrics()
		if len(w.cubes) > 1 {
			name, met = spec.name, reg.CubeMetrics(spec.name)
		}
		cube, safe, err := ip.loadEngine(w.csvPath(b, c, -1), budgets[c], met)
		if err != nil {
			return nil, err
		}
		if w.ingest {
			if err := safe.EnableIngest(viewcube.IngestOptions{WALPath: filepath.Join(b.dir, "trace.wal")}); err != nil {
				return nil, err
			}
			ip.closers = append(ip.closers, func() { safe.DisableIngest() })
		}
		for _, r := range []*catalog.Registry{reg, shadow} {
			if err := r.RegisterHandle(name, catalog.NewSafeHandle(cube, safe)); err != nil {
				return nil, err
			}
		}
		var views []catalog.HotView
		var doc struct {
			Views []catalog.HotView `json:"views"`
		}
		if err := json.Unmarshal(hotViews(spec, c, w.pop), &doc); err != nil {
			return nil, err
		}
		views = doc.Views
		if err := catalog.NewSafeHandle(cube, safe).Optimize(views); err != nil {
			return nil, err
		}
		ip.safes, ip.names = append(ip.safes, safe), append(ip.names, name)
		view := ""
		for _, vs := range viewSpecs {
			if vs.Cube == name {
				view = vs.Name
				for _, r := range []*catalog.Registry{reg, shadow} {
					if err := r.RegisterView(vs); err != nil {
						return nil, err
					}
				}
			}
		}
		ip.views = append(ip.views, view)
	}
	ip.handler = server.NewCatalog(reg, server.WithLogger(discardLogger()), server.WithQueryLog(qlog))
	return ip, ip.compile(w)
}

// compile times the first plan of every distinct group-by on the cold
// planner (plan.compile_us) and keeps each plan's Procedure 3 cost.
func (ip *inproc) compile(w *workload) error {
	var total float64
	n := 0
	for _, q := range w.pop {
		if q.kind != opGroupBy {
			continue
		}
		keep := q.keepNames(w.cubes[q.cube])
		for s, safe := range ip.safes {
			if ip.shards == nil && s != q.cube {
				continue
			}
			start := time.Now()
			text, err := safe.ExplainGroupBy(keep...)
			if err != nil {
				return err
			}
			total += float64(time.Since(start).Nanoseconds()) / 1e3
			n++
			if m := explainCost.FindStringSubmatch(text); m != nil {
				cost, _ := strconv.ParseFloat(m[1], 64)
				ip.costs[fmt.Sprint(q.cube, keep)] += cost
			}
		}
	}
	ip.compileUs = ratio(total, float64(n))
	return nil
}

func (q *querySpec) keepNames(spec cubeSpec) []string {
	names := make([]string, len(q.keep))
	for i, m := range q.keep {
		names[i] = spec.dims[m].name
	}
	return names
}

// ranges renders the filter box as value ranges keyed by the names a view
// exposes the dimensions under.
func (q *querySpec) ranges(spec cubeSpec, v viewDecl) map[string]viewcube.ValueRange {
	out := map[string]viewcube.ValueRange{}
	for m, d := range spec.dims {
		if q.filtered(spec, m) {
			out[v.exposed[m]] = viewcube.ValueRange{Lo: d.value(q.lo[m]), Hi: d.value(q.hi[m])}
		}
	}
	return out
}

func (q *querySpec) request() *http.Request {
	req, err := http.NewRequest(q.method, "http://cubed"+q.path, strings.NewReader(q.body))
	if err != nil {
		panic(err) // unreachable: paths are generated
	}
	return req
}

func serve(h http.Handler, req *http.Request) error {
	s := &sink{h: http.Header{}, code: http.StatusOK}
	h.ServeHTTP(s, req)
	if s.code != http.StatusOK {
		return fmt.Errorf("%s %s: status %d", req.Method, req.URL.RequestURI(), s.code)
	}
	return nil
}

// replayOp executes one operation at every depth, recording spans.
func (ip *inproc) replayOp(rec *recorder, w *workload, op int, q *querySpec) error {
	req := q.request()
	root := rec.begin(op, -1, 0, "server", "ServeHTTP "+q.kind.String())
	err := serve(ip.handler, req)
	rec.end(root)
	if err != nil {
		return err
	}
	if ip.shadowCoord != nil {
		return ip.replayCluster(rec, w, op, root, q)
	}
	spec := w.cubes[q.cube]

	// The handler's query log parses the statement for its aggregate label.
	sql := ""
	if q.kind == opSQL {
		var doc struct{ SQL string }
		json.Unmarshal([]byte(q.body), &doc)
		sql = doc.SQL
		id := rec.begin(op, root, 0, "query", "query.Parse")
		_, err := query.Parse(sql)
		rec.end(id)
		if err != nil {
			return err
		}
	}

	// Catalog: lease, then names through the view.
	resolve := rec.begin(op, root, 0, "catalog", "Registry.Acquire+View.Resolve")
	lease, err := ip.shadow.Acquire(ip.names[q.cube], ip.views[q.cube])
	var keep []string
	var ranges map[string]viewcube.ValueRange
	if err == nil {
		switch q.kind {
		case opGroupBy:
			var exposed []string
			for _, m := range q.keep {
				exposed = append(exposed, w.views[q.cube].exposed[m])
			}
			keep, err = lease.View.ResolveKeep(exposed)
		case opRange:
			ranges, err = lease.View.ResolveRanges(q.ranges(spec, w.views[q.cube]))
		case opSQL:
			sql, err = lease.View.RewriteSQL(sql)
		}
	}
	rec.end(resolve)
	if err != nil {
		return err
	}
	defer lease.Release()

	// Catalog lease call: result cache in front of the engine.
	serveID := rec.begin(op, root, 0, "catalog", "Lease.Serve "+q.kind.String())
	var hit *bool
	switch q.kind {
	case opGroupBy:
		_, _, hit, err = lease.ServeGroupBy(false, keep...)
	case opRange:
		_, _, hit, err = lease.ServeRangeSum(false, ranges)
	case opSQL:
		_, _, hit, err = lease.ServeQuery(false, sql)
	}
	rec.end(serveID)
	if err != nil {
		return err
	}
	if hit != nil && *hit {
		// Served from the cache: the engine was not called, so the whole
		// call is the cache's hit path.
		rec.spans[serveID].Layer, rec.spans[serveID].Name = "rescache", "Lease.Serve hit"
		return nil
	}

	// Engine.
	safe := ip.safes[q.cube]
	switch q.kind {
	case opGroupBy:
		id := rec.begin(op, serveID, 0, "assembly", "SafeEngine.GroupBy")
		v, err := safe.GroupBy(keep...)
		rec.end(id)
		if err != nil {
			return err
		}
		id = rec.begin(op, serveID, 0, "assembly", "View.Groups")
		_, err = v.Groups()
		rec.end(id)
		return err
	case opRange:
		id := rec.begin(op, serveID, 0, "rangeagg", "SafeEngine.RangeSum")
		_, err := safe.RangeSum(ranges)
		rec.end(id)
		return err
	default:
		layer := "assembly"
		if q.hasFilter(spec) {
			layer = "rangeagg" // a filtered group-by is a grouped range sum
		}
		id := rec.begin(op, serveID, 0, layer, "SafeEngine.Query")
		_, err := safe.Query(sql)
		rec.end(id)
		if err != nil {
			return err
		}
		id = rec.begin(op, id, 0, "query", "query.Parse")
		_, err = query.Parse(sql)
		rec.end(id)
		return err
	}
}

// replayCluster descends below the coordinator's HTTP face: the coordinator
// call, and on a cache miss one leg per shard — request and response through
// the wire codec around the shard's execution — as the loopback transport
// runs them.
func (ip *inproc) replayCluster(rec *recorder, w *workload, op, root int, q *querySpec) error {
	spec := w.cubes[0]
	wreq := &cluster.Request{ID: uint64(op + 1)}
	before := ip.shadowCoord.ResultCacheStats().Hits
	call := rec.begin(op, root, 0, "cluster", "Coordinator."+q.kind.String())
	var err error
	if q.kind == opGroupBy {
		wreq.Kind, wreq.Keep = cluster.KindGroupBy, q.keepNames(spec)
		_, err = ip.shadowCoord.GroupBy(wreq.Keep...)
	} else {
		wreq.Kind = cluster.KindRangeSum
		rs := q.ranges(spec, rawView(spec))
		for _, d := range spec.dims {
			if r, ok := rs[d.name]; ok {
				wreq.Ranges = append(wreq.Ranges, cluster.DimRange{Dim: d.name, Lo: r.Lo, Hi: r.Hi})
			}
		}
		_, err = ip.shadowCoord.RangeSum(rs)
	}
	rec.end(call)
	if err != nil {
		return err
	}
	if ip.shadowCoord.ResultCacheStats().Hits > before {
		rec.spans[call].Layer, rec.spans[call].Name = "rescache", "Coordinator hit"
		return nil
	}
	for s, sh := range ip.shards {
		leg := s + 1
		id := rec.begin(op, call, leg, "cluster", "wire request")
		frame, err := cluster.AppendRequest(nil, wreq)
		var decoded *cluster.Request
		if err == nil {
			decoded, err = cluster.DecodeRequest(frame)
		}
		rec.end(id)
		if err != nil {
			return err
		}
		layer := "assembly"
		if q.kind == opRange {
			layer = "rangeagg"
		}
		id = rec.begin(op, call, leg, layer, "ShardEngine.Execute")
		resp := sh.Execute(decoded)
		rec.end(id)
		if resp.Err != "" {
			return fmt.Errorf("shard %d: %s", s, resp.Err)
		}
		id = rec.begin(op, call, leg, "cluster", "wire encode")
		frame, err = cluster.AppendResponse(nil, resp)
		rec.end(id)
		if err != nil {
			return err
		}
		rec.spans[id].Bytes = len(frame)
		id = rec.begin(op, call, leg, "cluster", "wire decode")
		_, err = cluster.DecodeResponse(frame)
		rec.end(id)
		if err != nil {
			return err
		}
	}
	return nil
}

// replayIngest posts one batch through the handler; the whole request —
// decode, per-row WAL append and buffer insert, optional flush — is the
// ingest layer's.
func (ip *inproc) replayIngest(rec *recorder, op int, batch ingestBatch) error {
	req, err := http.NewRequest("POST", "http://cubed/ingest", strings.NewReader(string(batch.body)))
	if err != nil {
		return err
	}
	id := -1
	if rec != nil {
		id = rec.begin(op, -1, 0, "ingest", "ServeHTTP ingest")
	}
	err = serve(ip.handler, req)
	if rec != nil {
		rec.end(id)
	}
	return err
}

// traced builds the in-process stack, replays the sequence untraced and
// traced, writes trace_<workload>.json and returns the T metrics.
func (b *bench) traced(w *workload, opt options) (values, error) {
	ip, err := b.buildInproc(w)
	if err != nil {
		return nil, err
	}
	defer ip.close()

	// Warm as the HTTP run does: every distinct query once, at every depth,
	// so the handler's caches and the shadow's start in the same state.
	for _, q := range w.pop {
		if err := ip.replayOp(&recorder{t0: time.Now()}, w, 0, q); err != nil {
			return nil, err
		}
	}

	// Whole cycles keep the replayed mix the population's; four of them are
	// enough where operations are slow (scatter_gather).
	n := min(opt.sc.traceOps, 4*len(w.seq))
	ops := func(i int) *querySpec { return w.pop[w.seq[i%len(w.seq)]] }
	batch := func(i int) (ingestBatch, bool) {
		if !w.ingest || i%readsPerBatch != 0 || len(w.batches) == 0 {
			return ingestBatch{}, false
		}
		return w.batches[(i/readsPerBatch)%len(w.batches)], true
	}

	// Traced pass first: handler and shadow caches are still in step.
	rec := &recorder{t0: time.Now()}
	hits0, misses0 := ndarray.ScratchStats()
	for i := 0; i < n; i++ {
		if bt, ok := batch(i); ok {
			if err := ip.replayIngest(rec, i, bt); err != nil {
				return nil, err
			}
		}
		if err := ip.replayOp(rec, w, i, ops(i)); err != nil {
			return nil, err
		}
	}
	hits1, misses1 := ndarray.ScratchStats()

	// Untraced pass: only the handler, timed as a whole per operation.
	var untraced float64
	for i := 0; i < n; i++ {
		if bt, ok := batch(i); ok {
			start := time.Now()
			if err := ip.replayIngest(nil, i, bt); err != nil {
				return nil, err
			}
			untraced += float64(time.Since(start).Nanoseconds())
		}
		req := ops(i).request()
		start := time.Now()
		if err := serve(ip.handler, req); err != nil {
			return nil, err
		}
		untraced += float64(time.Since(start).Nanoseconds())
	}

	v := rec.summarize(w, ip, untraced)
	v["ndarray.scratch_hit_ratio"] = ratio(float64(hits1-hits0), float64(hits1-hits0+misses1-misses0))
	v["relation.load_s"] = ip.loadSeconds
	v["plan.compile_us"] = ip.compileUs
	if err := ip.kernels(w, v); err != nil {
		return nil, err
	}
	if w.ingest {
		if v["ingest.wal_append_ns"], err = walAppendNs(filepath.Join(b.dir, "bench.wal"), w.batches); err != nil {
			return nil, err
		}
	}

	path := filepath.Join(b.out, "trace_"+w.name+".json")
	data, err := json.Marshal(map[string]any{"workload": w.name, "seed": opt.seed, "spans": rec.spans})
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return nil, err
	}
	printBudget(os.Stderr, w.name, v, path)
	return v, nil
}

// summarize turns the spans into the T metrics and the per-layer shares.
func (r *recorder) summarize(w *workload, ip *inproc, untraced float64) values {
	v := values{}
	self, onPath := r.selfTimes()
	byLayer := map[string]float64{}
	type agg struct{ sum, n float64 }
	named := map[string]*agg{}
	add := func(key string, d float64) {
		if named[key] == nil {
			named[key] = &agg{}
		}
		named[key].sum += d
		named[key].n++
	}
	var roots, execNs, execOps, wireBytes, wireQueries float64
	for i, s := range r.spans {
		if onPath[i] {
			byLayer[s.Layer] += self[i]
		}
		d := r.dur(i)
		name := s.Name
		if name == "wire encode" {
			wireBytes += float64(s.Bytes)
			if s.Leg == 1 {
				wireQueries++
			}
		}
		switch {
		case s.Parent < 0:
			roots += d
			if s.Layer == "server" {
				add("server.self", self[i])
			}
		case name == "Lease.Serve hit" || name == "Coordinator hit":
			add("rescache.hit", d)
		case strings.HasPrefix(name, "Lease.Serve"):
			add("catalog.self", self[i])
		case name == "SafeEngine.GroupBy":
			add(name, d)
			q := w.pop[w.seq[s.Op%len(w.seq)]]
			execNs += d
			execOps += ip.costs[fmt.Sprint(q.cube, q.keepNames(w.cubes[q.cube]))]
		default:
			add(name, d)
		}
	}
	mean := func(key string) float64 {
		if a := named[key]; a != nil {
			return a.sum / a.n
		}
		return 0
	}
	v["server.self_us"] = mean("server.self") / 1e3
	v["query.parse_us"] = mean("query.Parse") / 1e3
	v["catalog.resolve_us"] = mean("Registry.Acquire+View.Resolve") / 1e3
	v["catalog.self_us"] = mean("catalog.self") / 1e3
	v["rescache.hit_us"] = mean("rescache.hit") / 1e3
	v["assembly.exec_us"] = mean("SafeEngine.GroupBy") / 1e3
	v["assembly.groups_us"] = mean("View.Groups") / 1e3
	v["assembly.ns_per_model_op"] = ratio(execNs, execOps)
	v["rangeagg.warm_us"] = mean("SafeEngine.RangeSum") / 1e3
	v["cluster.wire_encode_us"] = mean("wire encode") / 1e3
	v["cluster.wire_decode_us"] = mean("wire decode") / 1e3
	v["cluster.wire_bytes_per_query"] = ratio(wireBytes, wireQueries)
	v["client.trace_overhead_ratio"] = ratio(roots, untraced)
	for _, l := range layers {
		v["share."+l+"_pct"] = 100 * ratio(byLayer[l], roots)
	}
	return v
}

// kernels measures the two numbers no request-level span isolates: the
// fused Haar fold kernel on the workload's three costliest group-bys, from
// the base cube, and a range sum on a fresh generation (the range-element
// cache is per generation, so the first range query after any change
// re-assembles its pyramid elements).
func (ip *inproc) kernels(w *workload, v values) error {
	spec := w.cubes[0]
	shape := make([]int, 4)
	for m, d := range spec.dims {
		shape[m] = d.n
	}
	data := make([]float64, spec.cells())
	for i, c := range w.oracles[0].cells {
		data[i] = float64(c)
	}
	base, err := ndarray.NewFrom(data, shape...)
	if err != nil {
		return err
	}
	space, err := velement.NewSpace(shape)
	if err != nil {
		return err
	}
	var gbs []*querySpec
	for _, q := range w.pop {
		if q.kind == opGroupBy && q.cube == 0 {
			gbs = append(gbs, q)
		}
	}
	cost := func(q *querySpec) float64 { return ip.costs[fmt.Sprint(q.cube, q.keepNames(spec))] }
	sort.SliceStable(gbs, func(i, j int) bool { return cost(gbs[i]) > cost(gbs[j]) })
	var ns, cells float64
	for _, q := range gbs[:min(3, len(gbs))] {
		mask := uint(15)
		for _, m := range q.keep {
			mask &^= 1 << uint(m)
		}
		folds, err := haar.PathFolds(space.Root(), space.ViewForMask(mask))
		if err != nil {
			return err
		}
		for rep := 0; rep < 5; rep++ {
			start := time.Now()
			out, err := haar.ApplyFolds(base, folds)
			ns += float64(time.Since(start).Nanoseconds())
			if err != nil {
				return err
			}
			cells += float64(base.Size())
			if out != base {
				ndarray.Recycle(out)
			}
		}
	}
	v["haar.fold_ns_per_cell"] = ratio(ns, cells)

	// A paired +1/-1 update leaves the data as it was and starts a new
	// generation. With ingest on, updates go through the buffer; flush.
	safe := ip.safes[0]
	for _, delta := range []float64{1, -1} {
		if err := safe.Update(delta, 0, 0, 0, 0); err != nil {
			return err
		}
	}
	if safe.IngestEnabled() {
		if err := safe.Flush(); err != nil {
			return err
		}
	}
	var cold, n float64
	for _, q := range w.pop {
		if q.kind != opRange || q.cube != 0 || n >= 8 {
			continue
		}
		start := time.Now()
		if _, err := safe.RangeSum(q.ranges(spec, rawView(spec))); err != nil {
			return err
		}
		cold += float64(time.Since(start).Nanoseconds()) / 1e6
		n++
	}
	v["rangeagg.cold_ms"] = ratio(cold, n)
	return nil
}

// walAppendNs times ingest.WAL.Append (no fsync, as the workload runs it)
// over the run's own deltas.
func walAppendNs(path string, batches []ingestBatch) (float64, error) {
	wal, err := ingest.OpenWAL(path, ingest.WALOptions{}, nil)
	if err != nil {
		return 0, err
	}
	defer wal.Close()
	var ns, n float64
	for _, b := range batches {
		for i, c := range b.cells {
			d := ingest.Delta{Idx: c[:], Vals: []float64{float64(b.delta[i])}}
			start := time.Now()
			_, err := wal.Append(d)
			ns += float64(time.Since(start).Nanoseconds())
			if err != nil {
				return 0, err
			}
			n++
		}
		if n >= 2000 {
			break
		}
	}
	return ratio(ns, n), nil
}

// printBudget writes the latency budget — each layer's share of in-process
// operation time — to w.
func printBudget(out io.Writer, name string, v values, path string) {
	fmt.Fprintf(out, "cubebench: %s latency budget (self time, %% of in-process operation time; spans in %s)\n", name, path)
	total := 0.0
	for _, l := range layers {
		fmt.Fprintf(out, "  %-9s %6.2f %%\n", l, v["share."+l+"_pct"])
		total += v["share."+l+"_pct"]
	}
	fmt.Fprintf(out, "  %-9s %6.2f %%   (tracing overhead x%.3f)\n", "sum", total, v["client.trace_overhead_ratio"])
}
