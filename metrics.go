package viewcube

import (
	"io"
	"sync"
	"time"

	"viewcube/internal/obs"
)

// Metrics is an engine's observability registry: query latency histograms,
// queries-by-kind counters, store cache performance, assembly cost counters
// and reselection behaviour, all exposable in the Prometheus text format.
//
// A Metrics may be shared by several engines (for example the shard engines
// of one process, each built with the same EngineOptions.Metrics); their
// counters then aggregate into the same series. All instruments are safe
// for concurrent use.
type Metrics struct {
	reg *obs.Registry

	latency  *obs.Histogram
	updates  *obs.Counter
	resident *obs.Gauge // set by ResidentCells

	queries [numKinds]*obs.Counter // resolved once: a read counts itself without a lock

	mu       sync.Mutex
	errKinds map[string]*obs.Counter

	store    *obs.StoreMetrics
	assembly *obs.AssemblyMetrics
	adaptive *obs.AdaptiveMetrics
	ranges   *obs.RangeMetrics
	plans    *obs.CacheMetrics
	ingest   *obs.IngestMetrics
}

// NewMetrics returns a fresh metrics registry with every engine instrument
// pre-registered, so an exposition is complete (if zero-valued) before any
// traffic arrives.
func NewMetrics() *Metrics { return newMetrics(obs.NewRegistry()) }

// Sub derives a Metrics whose every instrument carries the given label
// key/value pairs, writing into the same exposition as the parent. A
// multi-cube process gives each engine NewMetrics().Sub("cube", name)-style
// metrics so one /metrics endpoint serves a per-cube label dimension over
// shared metric families.
func (m *Metrics) Sub(labels ...string) *Metrics { return newMetrics(m.reg.Sub(labels...)) }

func newMetrics(reg *obs.Registry) *Metrics {
	m := &Metrics{reg: reg, errKinds: make(map[string]*obs.Counter)}
	m.latency = reg.Histogram("viewcube_query_seconds",
		"Per-query wall-clock latency of engine queries, in seconds.", nil)
	m.updates = reg.Counter("viewcube_updates_total",
		"Incremental cell updates applied to the cube and its materialised elements.")
	m.resident = reg.Gauge("viewcube_resident_cells",
		"Cells held in memory: stored elements, the raw cube while it is a separate array, live snapshot generations.")
	for k, name := range kindNames {
		m.queries[k] = reg.Counter("viewcube_queries_total",
			"Engine queries served, by query kind.", "kind", name)
	}
	m.store = obs.NewStoreMetrics(reg)
	m.assembly = obs.NewAssemblyMetrics(reg)
	m.adaptive = obs.NewAdaptiveMetrics(reg)
	m.ranges = obs.NewRangeMetrics(reg)
	m.plans = obs.NewCacheMetrics(reg, obs.PlanCachePrefix)
	m.ingest = obs.NewIngestMetrics(reg)
	return m
}

// queryKind is the kind a query counts under in viewcube_queries_total.
type queryKind uint8

const (
	viewKind queryKind = iota
	groupByKind
	groupByWhereKind
	rangeKind
	sqlKind
	totalKind
	numKinds
)

// kindNames is each kind's label value, in registration order.
var kindNames = [numKinds]string{"view", "groupby", "groupby_where", "range", "sql", "total"}

func (m *Metrics) errCounter(kind string) *obs.Counter {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.errKinds[kind]
	if !ok {
		c = m.reg.Counter("viewcube_query_errors_total",
			"Engine queries that returned an error, by query kind.", "kind", kind)
		m.errKinds[kind] = c
	}
	return c
}

// WritePrometheus renders every instrument in the Prometheus text
// exposition format (version 0.0.4).
func (m *Metrics) WritePrometheus(w io.Writer) error { return m.reg.WriteText(w) }

// Registry exposes the underlying registry so in-module callers (e.g. the
// HTTP server) can register additional instruments into the same
// exposition.
func (m *Metrics) Registry() *obs.Registry { return m.reg }

// observe records one completed engine query of the given kind.
func (m *Metrics) observe(kind queryKind, start time.Time, err error) {
	m.latency.Observe(time.Since(start).Seconds())
	m.queries[kind].Inc()
	if err != nil {
		m.errCounter(kindNames[kind]).Inc()
	}
}

// StoreStats reports the element store's cache behaviour. For an in-memory
// store, Disk is false and the counters are zero.
type StoreStats struct {
	Disk           bool `json:"disk"`
	CacheHits      int  `json:"cache_hits"`
	CacheMisses    int  `json:"cache_misses"`
	CacheEvictions int  `json:"cache_evictions"`
	CachedCells    int  `json:"cached_cells"`
}
