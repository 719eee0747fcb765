package main

import (
	"sort"
	"strings"
)

// metricDef names one reported number. BENCHMARK.json lists the same names,
// units and directions (a test compares the two).
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd is what a user of cubed sees. Each bound is at least three times the
// widest spread (interquartile range over median, ten seeds) any workload
// showed on the shared 2-vCPU builder, capped at the 25 % the driver allows;
// README.md has the measurements and defines each metric.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"qps", "1/s", "higher", 0.25},
	{"lat_p50_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_query", "ms", "lower", 0.25},
	{"heap_live_mb", "MB", "lower", 0.10},
	{"alloc_kb_per_query", "KB", "lower", 0.15},
	{"space_amp", "ratio", "lower", 0.02},
}

// perLayer metrics have no bound: they say where an end-to-end change came
// from. The prefix is the module (layer) name. Source S = scrape difference
// over the timed phase, T = in-process traced replay, C = load generator.
var perLayer = []metricDef{
	{"client.lat_p99_ms", "ms", "lower", 0},
	{"client.lat_max_ms", "ms", "lower", 0},
	{"client.samples", "count", "higher", 0},
	{"client.groupby.lat_p50_ms", "ms", "lower", 0},
	{"client.range.lat_p50_ms", "ms", "lower", 0},
	{"client.sql.lat_p50_ms", "ms", "lower", 0},
	{"client.big.lat_p50_ms", "ms", "lower", 0},
	{"client.resp_kb_per_query", "KB", "lower", 0},
	{"client.cpu_share", "ratio", "lower", 0},
	{"client.writer_late_p99_ms", "ms", "lower", 0},
	{"client.build_s", "s", "lower", 0},
	{"client.raw_qps", "1/s", "higher", 0},
	{"client.raw_lat_p50_ms", "ms", "lower", 0},
	{"client.raw_cpu_ms_per_query", "ms", "lower", 0},
	{"client.calib_ms", "ms", "lower", 0},
	{"client.trace_overhead_ratio", "ratio", "lower", 0},

	{"server.handler_us_per_query", "us", "lower", 0},
	{"server.self_us", "us", "lower", 0},
	{"server.resp_bytes_per_query", "B", "lower", 0},
	{"query.parse_us", "us", "lower", 0},
	{"catalog.resolve_us", "us", "lower", 0},
	{"catalog.self_us", "us", "lower", 0},

	{"rescache.hit_ratio", "ratio", "higher", 0},
	{"rescache.evictions_per_kquery", "count", "lower", 0},
	{"rescache.invalidations", "count", "lower", 0},
	{"rescache.bytes", "B", "lower", 0},
	{"rescache.hit_us", "us", "lower", 0},

	{"plan.cache_hit_ratio", "ratio", "higher", 0},
	{"plan.invalidations", "count", "lower", 0},
	{"plan.compile_us", "us", "lower", 0},

	{"assembly.model_ops_per_query", "ops", "lower", 0},
	{"assembly.exec_us", "us", "lower", 0},
	{"assembly.groups_us", "us", "lower", 0},
	{"assembly.ns_per_model_op", "ns", "lower", 0},
	{"assembly.cells_read_per_query", "count", "lower", 0},
	{"assembly.pool_hit_ratio", "ratio", "higher", 0},
	{"haar.fold_ns_per_cell", "ns", "lower", 0},
	{"ndarray.scratch_hit_ratio", "ratio", "higher", 0},

	{"rangeagg.warm_us", "us", "lower", 0},
	{"rangeagg.cold_ms", "ms", "lower", 0},
	{"rangeagg.element_fetches_per_query", "count", "lower", 0},
	{"rangeagg.cells_read_per_query", "count", "lower", 0},

	{"store.cells_stored", "count", "lower", 0},
	{"store.elements", "count", "lower", 0},

	{"ingest.rows_per_s", "1/s", "higher", 0},
	{"ingest.ack_p50_ms", "ms", "lower", 0},
	{"ingest.ack_p99_ms", "ms", "lower", 0},
	{"ingest.fresh_lag_p50_ms", "ms", "lower", 0},
	{"ingest.merges", "count", "lower", 0},
	{"ingest.merge_ms_mean", "ms", "lower", 0},
	{"ingest.merge_busy_share", "ratio", "lower", 0},
	{"ingest.cells_per_merge", "count", "higher", 0},
	{"ingest.coalesce_ratio", "ratio", "higher", 0},
	{"ingest.backpressure_events", "count", "lower", 0},
	{"ingest.wal_bytes_per_row", "B", "lower", 0},
	{"ingest.snapshots_live_max", "count", "lower", 0},
	{"ingest.wal_append_ns", "ns", "lower", 0},

	{"cluster.rpc_ms_p50", "ms", "lower", 0},
	{"cluster.slowest_leg_share", "ratio", "lower", 0},
	{"cluster.retries", "count", "lower", 0},
	{"cluster.hedges", "count", "lower", 0},
	{"cluster.coordinator_cpu_share", "ratio", "lower", 0},
	{"cluster.wire_encode_us", "us", "lower", 0},
	{"cluster.wire_decode_us", "us", "lower", 0},
	{"cluster.wire_bytes_per_query", "B", "lower", 0},

	{"relation.load_s", "s", "lower", 0},
	{"core.optimize_ms", "ms", "lower", 0},

	{"runtime.mallocs_per_query", "count", "lower", 0},
	{"runtime.gc_cycles", "count", "lower", 0},
	{"runtime.gc_pause_ms_total", "ms", "lower", 0},
	{"runtime.heap_sys_mb", "MB", "lower", 0},
	{"runtime.rss_peak_mb", "MB", "lower", 0},

	// The traced run's latency budget: each layer's self time as a share of
	// in-process operation time. The shares sum to 100.
	{"share.server_pct", "%", "lower", 0},
	{"share.query_pct", "%", "lower", 0},
	{"share.catalog_pct", "%", "lower", 0},
	{"share.rescache_pct", "%", "lower", 0},
	{"share.assembly_pct", "%", "lower", 0},
	{"share.rangeagg_pct", "%", "lower", 0},
	{"share.cluster_pct", "%", "lower", 0},
	{"share.ingest_pct", "%", "lower", 0},
}

// values maps metric name to measured value.
type values map[string]float64

func (p *phase) queries() float64 {
	n := 0
	for _, r := range p.readers {
		n += len(r.latency)
	}
	return float64(n)
}

// delta sums a counter family's growth over the timed phase across the
// chosen nodes (all of them when pick is nil).
func (p *phase) delta(name string, pick func(i int) bool) float64 {
	total := 0.0
	for i := range p.after {
		if pick == nil || pick(i) {
			total += p.after[i].prom.sum(name) - p.before[i].prom.sum(name)
		}
	}
	return total
}

// gauge sums a family's value at the end of the phase across all nodes.
func (p *phase) gauge(name string) float64 {
	total := 0.0
	for i := range p.after {
		total += p.after[i].prom.sum(name)
	}
	return total
}

func (p *phase) serverCPU() float64 {
	total := 0.0
	for i := range p.after {
		total += p.after[i].cpu - p.before[i].cpu
	}
	return total
}

// slowness is how much slower than nominal the machine ran during the timed
// phase: the mean calibration sample over calibNominal.
func (p *phase) slowness() float64 {
	total := 0.0
	for _, k := range p.kernels {
		total += k
	}
	return ratio(total/float64(len(p.kernels)), calibNominal.Seconds())
}

// endToEndValues computes the user-visible metrics of one run.
func endToEndValues(w *workload, p *phase, setups []float64) values {
	q := p.queries()
	alloc, cells := 0.0, 0.0
	for i := range p.after {
		alloc += float64(p.after[i].mem.totalAlloc - p.before[i].mem.totalAlloc)
		for _, s := range p.after[i].stats {
			cells += s.StorageCells
		}
	}
	return values{
		"setup_s":            median(setups),
		"qps":                ratio(q, p.wall) * p.slowness(),
		"lat_p50_ms":         percentile(p.latencies(w, nil), 0.5) / p.slowness(),
		"cpu_ms_per_query":   ratio(p.serverCPU()*1000, q) / p.slowness(),
		"heap_live_mb":       p.liveMB,
		"alloc_kb_per_query": ratio(alloc/1024, q),
		"space_amp":          ratio(cells, float64(w.logicalCells())),
	}
}

// layerValues computes the per-layer metrics that come from the load
// generator (C) and from scrape differences (S); the traced replay adds its
// own (T) on top.
func layerValues(w *workload, t *topology, p *phase, buildSeconds float64) values {
	v := values{}
	for _, d := range perLayer {
		v[d.name] = 0 // a layer that did nothing in this workload reports 0
	}
	q := p.queries()
	all := p.latencies(w, nil)
	kind := func(k opKind) func(*querySpec) bool {
		return func(s *querySpec) bool { return s.kind == k }
	}
	var respBytes float64
	for _, r := range p.readers {
		respBytes += float64(r.bytes)
	}
	v["client.lat_p99_ms"] = percentile(all, 0.99)
	v["client.lat_max_ms"] = percentile(all, 1)
	v["client.samples"] = q
	v["client.groupby.lat_p50_ms"] = percentile(p.latencies(w, kind(opGroupBy)), 0.5)
	v["client.range.lat_p50_ms"] = percentile(p.latencies(w, kind(opRange)), 0.5)
	v["client.sql.lat_p50_ms"] = percentile(p.latencies(w, kind(opSQL)), 0.5)
	v["client.big.lat_p50_ms"] = percentile(p.latencies(w, func(s *querySpec) bool { return s.groups >= bigGroups }), 0.5)
	v["client.resp_kb_per_query"] = ratio(respBytes/1024, q)
	v["client.cpu_share"] = ratio(p.clientCPU, p.wall)
	v["client.build_s"] = buildSeconds
	v["client.raw_qps"] = ratio(q, p.wall)
	v["client.raw_lat_p50_ms"] = percentile(all, 0.5)
	v["client.raw_cpu_ms_per_query"] = ratio(p.serverCPU()*1000, q)
	v["client.calib_ms"] = p.slowness() * calibNominal.Seconds() * 1000
	v["server.resp_bytes_per_query"] = ratio(respBytes, q)
	v["core.optimize_ms"] = t.optimize.Seconds() * 1000

	front := func(i int) bool { return t.nodes[i].addr == t.front }
	v["server.handler_us_per_query"] = 1e6 * ratio(p.delta("viewcube_http_request_seconds_sum", front), p.delta("viewcube_http_request_seconds_count", front))

	// Result-cache counters come from the front node's stats documents: a
	// single-cube cubed does not export them on /metrics.
	rc := func(pick func(s nodeStats) float64, snaps []nodeSnap) float64 {
		total := 0.0
		for i := range snaps {
			if front(i) {
				for _, s := range snaps[i].stats {
					total += pick(s)
				}
			}
		}
		return total
	}
	grew := func(pick func(s nodeStats) float64) float64 { return rc(pick, p.after) - rc(pick, p.before) }
	hits, misses := grew(func(s nodeStats) float64 { return s.ResultCache.Hits }), grew(func(s nodeStats) float64 { return s.ResultCache.Misses })
	v["rescache.hit_ratio"] = ratio(hits, hits+misses)
	v["rescache.evictions_per_kquery"] = ratio(1000*grew(func(s nodeStats) float64 { return s.ResultCache.Evictions }), q)
	v["rescache.invalidations"] = grew(func(s nodeStats) float64 { return s.ResultCache.Invalidations })
	v["rescache.bytes"] = rc(func(s nodeStats) float64 { return s.ResultCache.Bytes }, p.after)

	ph, pm := p.delta("viewcube_plan_cache_hits_total", nil), p.delta("viewcube_plan_cache_misses_total", nil)
	v["plan.cache_hit_ratio"] = ratio(ph, ph+pm)
	v["plan.invalidations"] = p.delta("viewcube_plan_cache_invalidations_total", nil)

	v["assembly.model_ops_per_query"] = ratio(p.delta("viewcube_assembly_ops_total", nil), q)
	v["assembly.cells_read_per_query"] = ratio(p.delta("viewcube_assembly_cells_read_total", nil), q)
	xh, xm := p.delta("viewcube_exec_pool_hits_total", nil), p.delta("viewcube_exec_pool_misses_total", nil)
	v["assembly.pool_hit_ratio"] = ratio(xh, xh+xm)
	v["rangeagg.element_fetches_per_query"] = ratio(p.delta("viewcube_range_element_fetches_total", nil), q)
	v["rangeagg.cells_read_per_query"] = ratio(p.delta("viewcube_range_cells_read_total", nil), q)

	for i := range p.after {
		for _, s := range p.after[i].stats {
			v["store.cells_stored"] += s.StorageCells
			v["store.elements"] += s.Elements
		}
		m, m0 := p.after[i].mem, p.before[i].mem
		v["runtime.mallocs_per_query"] += ratio(float64(m.mallocs-m0.mallocs), q)
		v["runtime.gc_cycles"] += float64(m.numGC - m0.numGC)
		v["runtime.gc_pause_ms_total"] += m.pauseSince(m0) / 1e6
		v["runtime.heap_sys_mb"] += float64(m.heapSys) / (1 << 20)
		v["runtime.rss_peak_mb"] += p.rssMB[i]
	}

	if wr := p.writer; wr != nil {
		sort.Float64s(wr.ackMs)
		sort.Float64s(wr.freshMs)
		sort.Float64s(wr.lateMs)
		v["client.writer_late_p99_ms"] = percentile(wr.lateMs, 0.99)
		v["ingest.rows_per_s"] = ratio(float64((wr.sent-wr.failed)*ingestRows), wr.elapsed.Seconds())
		v["ingest.ack_p50_ms"] = percentile(wr.ackMs, 0.5)
		v["ingest.ack_p99_ms"] = percentile(wr.ackMs, 0.99)
		v["ingest.fresh_lag_p50_ms"] = percentile(wr.freshMs, 0.5)
		v["ingest.snapshots_live_max"] = wr.liveMax
	}
	merges := p.delta("viewcube_ingest_merges_total", nil)
	mergeSec := p.delta("viewcube_ingest_merge_seconds_sum", nil)
	appended := p.delta("viewcube_ingest_appended_total", nil)
	v["ingest.merges"] = merges
	v["ingest.merge_ms_mean"] = 1000 * ratio(mergeSec, p.delta("viewcube_ingest_merge_seconds_count", nil))
	v["ingest.merge_busy_share"] = ratio(mergeSec, p.wall)
	v["ingest.cells_per_merge"] = ratio(p.delta("viewcube_ingest_merged_cells_total", nil), merges)
	v["ingest.coalesce_ratio"] = ratio(p.delta("viewcube_ingest_coalesced_total", nil), appended)
	v["ingest.backpressure_events"] = p.delta("viewcube_ingest_backpressure_total", nil)
	v["ingest.wal_bytes_per_row"] = ratio(p.delta("viewcube_ingest_wal_bytes_total", nil), appended)

	for i, n := range t.nodes {
		if n.name != "coordinator" {
			continue
		}
		d := p.after[i].prom.minus(p.before[i].prom)
		v["cluster.rpc_ms_p50"] = 1000 * d.histQuantile("viewcube_cluster_rpc_duration_seconds", 0.5)
		v["cluster.retries"] = d.sum("viewcube_cluster_retries_total")
		v["cluster.hedges"] = d.sum("viewcube_cluster_hedges_total")
		v["cluster.coordinator_cpu_share"] = ratio(p.after[i].cpu-p.before[i].cpu, p.serverCPU())
	}
	// Each answer waits for its slowest leg: the busier shard's part of all
	// time shard servers spent handling requests (0.5 = balanced).
	busiest, allShards := 0.0, 0.0
	for i, n := range t.nodes {
		if strings.HasPrefix(n.name, "shard") {
			d := p.after[i].prom.sum("viewcube_cluster_shard_stage_seconds_sum") - p.before[i].prom.sum("viewcube_cluster_shard_stage_seconds_sum")
			busiest, allShards = max(busiest, d), allShards+d
		}
	}
	v["cluster.slowest_leg_share"] = ratio(busiest, allShards)
	return v
}
