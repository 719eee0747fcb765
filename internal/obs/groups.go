package obs

// This file defines the instrument groups the engine's components hold.
// Each constructor registers its instruments in a Registry; called with a
// nil registry it returns a struct of nil instruments, which no-op — so a
// component can always keep a non-nil group and call through it
// unconditionally.

// StoreMetrics instruments a disk-backed element store.
type StoreMetrics struct {
	CacheHits   *Counter
	CacheMisses *Counter
	Evictions   *Counter
	DiskReads   *Counter
	DiskWrites  *Counter
	CachedCells *Gauge
}

// NewStoreMetrics registers the store instrument set.
func NewStoreMetrics(r *Registry) *StoreMetrics {
	return &StoreMetrics{
		CacheHits:   r.Counter("viewcube_store_cache_hits_total", "Element reads served from the store's in-memory LRU cache."),
		CacheMisses: r.Counter("viewcube_store_cache_misses_total", "Element reads that went to disk."),
		Evictions:   r.Counter("viewcube_store_cache_evictions_total", "Elements evicted from the LRU cache to stay within the cell budget."),
		DiskReads:   r.Counter("viewcube_store_disk_reads_total", "Element files read from disk."),
		DiskWrites:  r.Counter("viewcube_store_disk_writes_total", "Element files written to disk."),
		CachedCells: r.Gauge("viewcube_store_cached_cells", "Cells currently held in the store's in-memory cache."),
	}
}

// AssemblyMetrics instruments the plan/execute hot path.
type AssemblyMetrics struct {
	Plans           *Counter
	NodesVisited    *Counter // view elements Procedure 3 costed across those plans
	Executions      *Counter
	CellsRead       *Counter // cells fetched from stored elements
	OpsModeled      *Counter // modelled add/subtract operations executed
	StoredNodes     *Counter
	AggregateNodes  *Counter
	SynthesizeNodes *Counter
	PoolHits        *Counter // scratch-buffer leases served from the pool
	PoolMisses      *Counter // scratch-buffer leases that allocated
}

// NewAssemblyMetrics registers the assembly instrument set.
func NewAssemblyMetrics(r *Registry) *AssemblyMetrics {
	return &AssemblyMetrics{
		Plans:           r.Counter("viewcube_assembly_plans_total", "Procedure 3 plans computed."),
		NodesVisited:    r.Counter("viewcube_plan_nodes_visited_total", "View elements the Procedure 3 kernel costed while computing plans."),
		Executions:      r.Counter("viewcube_assembly_executions_total", "Plans executed (elements assembled)."),
		CellsRead:       r.Counter("viewcube_assembly_cells_read_total", "Stored cells (every plane, zeros included) read while assembling views."),
		OpsModeled:      r.Counter("viewcube_assembly_ops_total", "Modelled add/subtract operations executed (the paper's processing cost)."),
		StoredNodes:     r.Counter("viewcube_assembly_plan_nodes_total", "Executed plan nodes by kind.", "kind", "stored"),
		AggregateNodes:  r.Counter("viewcube_assembly_plan_nodes_total", "Executed plan nodes by kind.", "kind", "aggregate"),
		SynthesizeNodes: r.Counter("viewcube_assembly_plan_nodes_total", "Executed plan nodes by kind.", "kind", "synthesize"),
		PoolHits:        r.Counter("viewcube_exec_pool_hits_total", "Read-kernel scratch-buffer leases served from the recycled pool."),
		PoolMisses:      r.Counter("viewcube_exec_pool_misses_total", "Read-kernel scratch-buffer leases that fell through to allocation."),
	}
}

// AdaptiveMetrics instruments Algorithm 1/2 reselection behaviour.
type AdaptiveMetrics struct {
	Reselections     *Counter // Reconfigure invocations (manual or automatic)
	AutoReselects    *Counter // triggered by ReselectEvery
	ChangedReconfigs *Counter
	Migrated         *Counter
	Dropped          *Counter
	DecayApplied     *Counter
	BasisElements    *Gauge
	StorageCells     *Gauge
	// PhaseSeconds observes each reselection's time by phase: select_basis
	// (Algorithm 1), greedy (Algorithm 2, when the budget allows one) and
	// migrate (assembling and dropping elements).
	PhaseSeconds map[string]*Histogram
}

// NewAdaptiveMetrics registers the adaptive instrument set.
func NewAdaptiveMetrics(r *Registry) *AdaptiveMetrics {
	phases := make(map[string]*Histogram, 3)
	for _, phase := range []string{"select_basis", "greedy", "migrate"} {
		phases[phase] = r.Histogram("viewcube_reselection_seconds",
			"Time spent in each phase of a materialised-set reselection.", nil, "phase", phase)
	}
	return &AdaptiveMetrics{
		PhaseSeconds:     phases,
		Reselections:     r.Counter("viewcube_reselections_total", "Materialised-set reselections run (Algorithm 1/2 invocations)."),
		AutoReselects:    r.Counter("viewcube_reselections_auto_total", "Reselections triggered automatically by ReselectEvery."),
		ChangedReconfigs: r.Counter("viewcube_reselections_changed_total", "Reselections that changed the materialised set."),
		Migrated:         r.Counter("viewcube_elements_migrated_total", "Elements newly materialised across reselections."),
		Dropped:          r.Counter("viewcube_elements_dropped_total", "Elements dropped across reselections."),
		DecayApplied:     r.Counter("viewcube_decay_applied_total", "Times frequency decay was applied to the observed workload."),
		BasisElements:    r.Gauge("viewcube_materialized_elements", "View elements currently materialised."),
		StorageCells:     r.Gauge("viewcube_storage_cells", "Materialised volume in cells."),
	}
}

// The series prefixes epoch-keyed caches register under: compiled plans
// (invalidated by an Optimize or Reconfigure that changed the stored set)
// and answers (invalidated by data-version changes, rebuilds, catalog
// reloads and /invalidate).
const (
	PlanCachePrefix   = "viewcube_plan_cache"
	ResultCachePrefix = "viewcube_result_cache"
)

// CacheMetrics instruments one epoch-keyed cache (internal/rescache). Hits
// are lookups served from a current-epoch entry; misses computed the value
// or waited on the caller computing it; invalidations count epoch bumps.
type CacheMetrics struct {
	Hits          *Counter
	Misses        *Counter
	Evictions     *Counter
	Invalidations *Counter
	Bytes         *Gauge
	Entries       *Gauge
}

// NewCacheMetrics registers a cache instrument set under prefix
// (PlanCachePrefix or ResultCachePrefix).
func NewCacheMetrics(r *Registry, prefix string) *CacheMetrics {
	return &CacheMetrics{
		Hits:          r.Counter(prefix+"_hits_total", "Cache lookups served from a current-epoch entry."),
		Misses:        r.Counter(prefix+"_misses_total", "Cache lookups that found no current-epoch entry (computed, or waited on the computing caller)."),
		Evictions:     r.Counter(prefix+"_evictions_total", "Cache entries evicted to stay within the size bounds."),
		Invalidations: r.Counter(prefix+"_invalidations_total", "Cache epoch bumps (the state entries derive from changed)."),
		Bytes:         r.Gauge(prefix+"_bytes", "Estimated size of the cached entries (bytes for answers; one per entry without a sizer)."),
		Entries:       r.Gauge(prefix+"_entries", "Entries currently cached."),
	}
}

// AdmissionMetrics instruments the coordinator's bounded-concurrency
// admission gate: queued counts slow-path waits for a slot, rejected counts
// queries shed with an overloaded error.
type AdmissionMetrics struct {
	Queued   *Counter
	Rejected *Counter
	InFlight *Gauge
}

// NewAdmissionMetrics registers the admission-control instrument set.
func NewAdmissionMetrics(r *Registry) *AdmissionMetrics {
	return &AdmissionMetrics{
		Queued:   r.Counter("viewcube_admission_queued_total", "Queries that waited for an admission slot instead of starting immediately."),
		Rejected: r.Counter("viewcube_admission_rejected_total", "Queries shed with an overloaded error after the queue timeout."),
		InFlight: r.Gauge("viewcube_admission_in_flight", "Queries currently holding an admission slot."),
	}
}

// ClusterMetrics instruments the networked serving tier: the coordinator's
// scatter-gather behaviour (retries, degraded answers) and the
// shard server's request handling. Coordinator and shard processes each
// use their half of the group; the other half stays zero.
type ClusterMetrics struct {
	// Coordinator side.
	Queries     *Counter // scatter-gather queries started
	ShardCalls  *Counter // shard attempts sent (including retries)
	ShardErrors *Counter // shard attempts that failed (transport or deadline)
	Retries     *Counter // attempts re-sent after backoff
	Partials    *Counter // degraded answers returned with shards missing
	ShardsLive  *Gauge   // shards that answered the most recent query
	ShardsKnown *Gauge   // shards configured
	// RPCDuration observes each shard attempt's round-trip latency at the
	// coordinator (including retries).
	RPCDuration *Histogram
	// QueryDuration observes whole scatter-gather query latency at the
	// coordinator, by query kind.
	QueryDuration map[string]*Histogram
	// Shard-server side.
	Served       *Counter // requests executed by this shard server
	ServedErrors *Counter // requests that returned a shard-side error
	Conns        *Gauge   // open shard-protocol connections
	InFlight     *Gauge   // requests currently executing
	// StageDecode/StageExecute/StageWrite observe per-request time the
	// shard server spends in each handling stage.
	StageDecode  *Histogram
	StageExecute *Histogram
	StageWrite   *Histogram
}

// NewClusterMetrics registers the cluster instrument set.
func NewClusterMetrics(r *Registry) *ClusterMetrics {
	queryDur := make(map[string]*Histogram, 3)
	for _, kind := range []string{"groupby", "total", "range"} {
		queryDur[kind] = r.Histogram("viewcube_cluster_query_seconds",
			"Whole scatter-gather query latency at the coordinator, by query kind.", nil, "kind", kind)
	}
	return &ClusterMetrics{
		Queries:     r.Counter("viewcube_cluster_queries_total", "Scatter-gather queries started by the coordinator."),
		ShardCalls:  r.Counter("viewcube_cluster_shard_requests_total", "Shard requests sent by the coordinator, including retries."),
		ShardErrors: r.Counter("viewcube_cluster_shard_errors_total", "Shard requests that failed in transport or timed out."),
		Retries:     r.Counter("viewcube_cluster_retries_total", "Shard requests re-sent after backoff."),
		Partials:    r.Counter("viewcube_cluster_partial_results_total", "Degraded answers returned with one or more shards missing."),
		ShardsLive:  r.Gauge("viewcube_cluster_shards_live", "Shards that contributed to the most recent scatter-gather query."),
		ShardsKnown: r.Gauge("viewcube_cluster_shards_known", "Shards configured at the coordinator."),
		RPCDuration: r.Histogram("viewcube_cluster_rpc_duration_seconds",
			"Round-trip latency of individual shard attempts at the coordinator, including retries.", nil),
		QueryDuration: queryDur,
		Served:        r.Counter("viewcube_cluster_shard_served_total", "Requests executed by this shard server."),
		ServedErrors:  r.Counter("viewcube_cluster_shard_served_errors_total", "Shard-server requests that returned an execution error."),
		Conns:         r.Gauge("viewcube_cluster_shard_connections", "Open shard-protocol connections at this shard server."),
		InFlight:      r.Gauge("viewcube_cluster_shard_in_flight_requests", "Requests currently executing at this shard server."),
		StageDecode: r.Histogram("viewcube_cluster_shard_stage_seconds",
			"Per-request time the shard server spends in each handling stage.", nil, "stage", "decode"),
		StageExecute: r.Histogram("viewcube_cluster_shard_stage_seconds",
			"Per-request time the shard server spends in each handling stage.", nil, "stage", "execute"),
		StageWrite: r.Histogram("viewcube_cluster_shard_stage_seconds",
			"Per-request time the shard server spends in each handling stage.", nil, "stage", "write"),
	}
}

// ObserveQuery records one coordinator query's latency under its kind. Safe
// on nil and on unknown kinds.
func (m *ClusterMetrics) ObserveQuery(kind string, seconds float64) {
	if m == nil {
		return
	}
	m.QueryDuration[kind].Observe(seconds)
}

// IngestMetrics instruments the streaming-ingest write path: WAL appends,
// delta coalescing, background merges and the snapshot lifecycle. LagSeqs
// (appended minus published watermark) is the end-to-end freshness signal:
// a reader pinning the current snapshot sees every write except the lagging
// tail.
type IngestMetrics struct {
	Appended      *Counter // deltas acknowledged into the WAL/buffer
	Coalesced     *Counter // deltas folded into an already-dirty cell
	Backpressure  *Counter // appends that blocked on the dirty-cell bound
	WALBytes      *Counter // bytes appended to the write-ahead log
	WALReplayed   *Counter // deltas re-applied from the WAL at startup
	Merges        *Counter // background merge cycles run
	MergedCells   *Counter // distinct dirty cells folded across merges
	Published     *Counter // snapshots published
	Retired       *Counter // snapshots fully retired (memory reclaimed)
	PendingCells  *Gauge   // dirty cells awaiting the next merge
	SnapshotEpoch *Gauge   // epoch of the current published snapshot
	LagSeqs       *Gauge   // acknowledged deltas not yet visible to readers
	Degraded      *Gauge   // 1 once a merge failed and ingest stopped
	MergeSeconds  *Histogram
}

// NewIngestMetrics registers the ingest instrument set.
func NewIngestMetrics(r *Registry) *IngestMetrics {
	return &IngestMetrics{
		Appended:      r.Counter("viewcube_ingest_appended_total", "Deltas acknowledged into the ingest WAL and buffer."),
		Coalesced:     r.Counter("viewcube_ingest_coalesced_total", "Deltas coalesced into an already-dirty cell before merging."),
		Backpressure:  r.Counter("viewcube_ingest_backpressure_total", "Ingest appends that blocked on the dirty-cell bound."),
		WALBytes:      r.Counter("viewcube_ingest_wal_bytes_total", "Bytes appended to the ingest write-ahead log."),
		WALReplayed:   r.Counter("viewcube_ingest_wal_replayed_total", "Deltas re-applied from the WAL during crash recovery."),
		Merges:        r.Counter("viewcube_ingest_merges_total", "Background merge cycles that folded deltas into a snapshot."),
		MergedCells:   r.Counter("viewcube_ingest_merged_cells_total", "Distinct dirty cells folded into snapshots across merges."),
		Published:     r.Counter("viewcube_ingest_snapshots_published_total", "Immutable snapshots published by the merger."),
		Retired:       r.Counter("viewcube_ingest_snapshots_retired_total", "Snapshots retired after their last reader released them."),
		PendingCells:  r.Gauge("viewcube_ingest_pending_cells", "Dirty cells in the ingest buffer awaiting the next merge."),
		SnapshotEpoch: r.Gauge("viewcube_ingest_snapshot_epoch", "Epoch of the currently published snapshot."),
		LagSeqs:       r.Gauge("viewcube_ingest_lag_seqs", "Acknowledged deltas not yet visible to readers (appended minus published watermark)."),
		Degraded:      r.Gauge("viewcube_ingest_degraded", "1 once a merge failed: appends fail, readers keep the last published snapshot."),
		MergeSeconds:  r.Histogram("viewcube_ingest_merge_seconds", "Wall-clock duration of background merge cycles, in seconds.", nil),
	}
}

// RangeMetrics instruments §6 range aggregation: the engine's range and
// grouped-range contractions, or a §6 Querier's pyramid reads.
type RangeMetrics struct {
	RangeQueries *Counter
	CellsRead    *Counter // cells contracted (a Querier: pyramid cells read)
	ElementMiss  *Counter // stored elements contracted (a Querier: pyramid misses)
}

// NewRangeMetrics registers the range-aggregation instrument set.
func NewRangeMetrics(r *Registry) *RangeMetrics {
	return &RangeMetrics{
		RangeQueries: r.Counter("viewcube_range_queries_total", "Range-SUM queries answered by contracting the stored elements."),
		CellsRead:    r.Counter("viewcube_range_cells_read_total", "Stored cells contracted by range and grouped-range sums (the §6 cost)."),
		ElementMiss:  r.Counter("viewcube_range_element_fetches_total", "Stored elements contracted by range and grouped-range sums."),
	}
}
