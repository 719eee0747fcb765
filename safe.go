package viewcube

import (
	"io"
	"sync"
	"sync/atomic"

	"viewcube/internal/rangeagg"
)

// guarded is what a guard and its ingest runtime ask of the engine they
// share — everything that differs between the scalar *Engine (width-1
// deltas) and the measure-vector *AggEngine (width-w deltas). E is the
// implementing type itself: snapshot hands back a read-only sibling.
type guarded[E any] interface {
	// metrics is the registry the engine's reads and writes report into.
	metrics() *Metrics
	// The counters that have no snapshot form: read off the base engine
	// under the read lock.
	Stats() Stats
	MaterializedElements() int
	StorageCells() int
	// rawCells is the size of the raw cube while the engine maintains it as an
	// array of its own beside the store, else 0.
	rawCells() int
	// reselectDue is the lock-free "an automatic reselection is pending"
	// flag; maybeReselect performs it (re-checking the flag, so racing
	// drainers are idempotent) and reports whether the materialised set
	// changed.
	reselectDue() bool
	maybeReselect() (bool, error)
	// ingestable rejects engines whose store a WAL replay would double-apply
	// into.
	ingestable() error
	// checkCell validates a cell index; it reads only immutable state, so it
	// needs no lock even while the merger runs.
	checkCell(idx []int) error
	// admit takes a delta into the cube's magnitude Σ|v| per component, or
	// rejects it if a cell could then overflow; it locks for itself.
	admit(vals []float64) error
	// applyDeltaRaw is per-delta maintenance — every stored element plus the
	// raw cube, one cell per component. Plan geometry is value-independent,
	// so it leaves the plan cache alone, and nothing else is derived from
	// stored values.
	applyDeltaRaw(vals []float64, idx []int) error
	// snapshot clones the store and derives a read-only generation over the
	// clone: the payload of one MVCC snapshot.
	snapshot() (E, error)
}

// guard shares one engine across goroutines with a read/write split — the
// package's one concurrency wrapper, instantiated as SafeEngine (scalar
// cubes) and SafeAggEngine (measure-vector cubes).
//
// Queries are semantically pure reads of the materialised set (Procedure 3
// planning plus Haar synthesis allocate only per-query state), so any number
// of them overlap under the read lock; only operations that rewrite the
// materialised set or its values — Optimize, Update, Reconfigure, and
// automatic reselection — take the write lock, through mutate.
//
// With streaming ingest enabled (EnableIngest), the locking regime changes:
// reads pin the current immutable snapshot for their whole duration instead
// of taking the read lock, so they never block on (or are blocked by) the
// write path; writes append to the ingest buffer and return, and the
// background merger is the only mutator of the base engine's values.
type guard[E guarded[E]] struct {
	mu  sync.RWMutex
	eng E
	ing atomic.Pointer[ingestRuntime[E]]
	// version is the data version: see DataVersion.
	version atomic.Uint64
}

// DataVersion is the one counter caches of this engine's answers sync
// against. It never decreases and never repeats a value: every locked
// mutation, every published snapshot and every ingest enable/disable moves
// it, and nothing else does (reads and zero deltas leave it alone). It is a
// single atomic load — no engine lock — so a cache hit never waits out a
// merge or a reconfiguration.
func (g *guard[E]) DataVersion() uint64 { return g.version.Load() }

// reader returns the engine a query should run against plus its release.
// With ingest enabled it pins the current snapshot (no lock, never blocks);
// otherwise it read-locks the base engine. Every read path goes through it,
// which is the non-blocking-readers guarantee in one place.
func (g *guard[E]) reader() (E, func()) {
	if rt := g.ing.Load(); rt != nil {
		snap := rt.lc.Acquire()
		return snap.Payload(), snap.Release
	}
	g.mu.RLock()
	return g.eng, g.mu.RUnlock
}

// mutate is the one locked mutation: fn runs on the base engine under the
// write lock and reports whether it changed anything. A change moves the
// data version and, under ingest, waits for a snapshot generation published
// after it, so readers stop pinning the pre-mutation materialised set.
func (g *guard[E]) mutate(fn func(E) (bool, error)) error {
	g.mu.Lock()
	changed, err := fn(g.eng)
	if changed {
		g.version.Add(1)
	}
	g.mu.Unlock()
	if changed {
		if rt := g.ing.Load(); rt != nil {
			rt.forcePublish()
		}
	}
	return err
}

// reselectIfDue performs a pending automatic reselection under the write
// lock. The unlocked fast path keeps the query path lock-free when nothing
// is due; maybeReselect's re-check under the lock makes racing drainers
// idempotent (reconfiguring clears the flag first).
func (g *guard[E]) reselectIfDue() error {
	if !g.eng.reselectDue() {
		return nil
	}
	return g.mutate(E.maybeReselect)
}

// write is the one write: validate the cell lock-free, drop a zero delta
// (nothing to fold, no lock, no version move), then append to the ingest
// runtime — visibility comes at the next snapshot publish, Flush waits for
// it — or, with ingest off, run the engine's own update under the write
// lock.
func (g *guard[E]) write(vals []float64, idx []int, apply func(E) error) error {
	if err := g.eng.checkCell(idx); err != nil {
		return err
	}
	zero := true
	for _, v := range vals {
		zero = zero && v == 0
	}
	if zero {
		return nil
	}
	if rt := g.ing.Load(); rt != nil {
		if err := g.eng.admit(vals); err != nil {
			return err
		}
		return rt.ingestAppend(vals, idx)
	}
	return g.mutate(func(e E) (bool, error) {
		err := apply(e)
		return err == nil, err
	})
}

// locked runs a read of engine state that has no snapshot form (adaptive
// counters, store statistics, the workload profile) on the base engine under
// the read lock.
func locked[E guarded[E], T any](g *guard[E], fn func(E) T) T {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return fn(g.eng)
}

// Stats returns the adaptive counters of the shared materialised set.
func (g *guard[E]) Stats() Stats { return locked(g, E.Stats) }

// MaterializedElements returns how many elements are materialised.
func (g *guard[E]) MaterializedElements() int { return locked(g, E.MaterializedElements) }

// StorageCells returns the materialised volume in stored scalars.
func (g *guard[E]) StorageCells() int { return locked(g, E.StorageCells) }

// ResidentCells counts the cells held in memory — the stored elements, the raw
// cube while that is an array of its own and, under ingest, a stored set per
// live snapshot generation — and sets the viewcube_resident_cells gauge to it.
func (g *guard[E]) ResidentCells() int {
	g.mu.RLock()
	gen, n := g.eng.StorageCells(), g.eng.rawCells()
	g.mu.RUnlock()
	n += gen
	if rt := g.ing.Load(); rt != nil {
		n += rt.lc.Stats().Live * gen
	}
	g.eng.metrics().resident.Set(int64(n))
	return n
}

// Metrics returns the engine's metrics registry. The registry itself is
// safe for concurrent use, so no lock is taken to read instruments.
func (g *guard[E]) Metrics() *Metrics { return g.eng.metrics() }

// runSafe is the guard's read seam, the one place a shared read is pinned
// and drained: it runs r through the read seam against whatever reader()
// hands out, releases the pin, then drains a due reselection under the write
// lock. Every query method below is a one-line instance of it.
func runSafe[E guarded[E], A, T any](g *guard[E], traced bool, r read[E, A, T], args A) (T, *QueryTrace, error) {
	eng, release := g.reader()
	out, qt, err := run(eng.metrics(), eng, traced, r, args)
	release()
	if err == nil {
		err = g.reselectIfDue()
	}
	return settle(out, qt, err)
}

// SafeEngine shares an Engine across goroutines: the guard over a scalar
// cube. Reads route through the engine's reselect-free read path, so a query
// never mutates shared state; when a query pushes the adaptive recorder past
// its reselection threshold, the due flag is drained afterwards under the
// write lock. Traced queries carry their own execution context, so
// concurrent traces never observe each other. The write-path switches
// (EnableIngest, DisableIngest, IngestEnabled, IngestStats, Flush,
// SnapshotEpoch), DataVersion and the counters (Stats, MaterializedElements,
// StorageCells, Metrics) are the guard's.
type SafeEngine struct {
	guard[*Engine]
}

// Safe wraps the engine for concurrent use. The wrapped engine must not be
// used directly afterwards.
func (e *Engine) Safe() *SafeEngine { return &SafeEngine{guard[*Engine]{eng: e}} }

// GroupBy is Engine.GroupBy against the pinned snapshot (or under the read
// lock when ingest is off).
func (s *SafeEngine) GroupBy(keep ...string) (*View, error) {
	return untraced(runSafe(&s.guard, false, groupByRead, keep))
}

// GroupByWhere is Engine.GroupByWhere on the read path.
func (s *SafeEngine) GroupByWhere(keep []string, ranges map[string]ValueRange) (*View, error) {
	return untraced(runSafe(&s.guard, false, groupByWhereRead, dice{keep, ranges}))
}

// View is Engine.View on the read path.
func (s *SafeEngine) View(el Element) (*View, error) {
	return untraced(runSafe(&s.guard, false, viewRead, el))
}

// Total is Engine.Total on the read path.
func (s *SafeEngine) Total() (float64, error) {
	return untraced(runSafe(&s.guard, false, totalRead, struct{}{}))
}

// RangeSum is Engine.RangeSum on the read path.
func (s *SafeEngine) RangeSum(ranges map[string]ValueRange) (float64, error) {
	return untraced(runSafe(&s.guard, false, rangeSumRead, ranges))
}

// RangeSumWithin is Engine.RangeSumWithin on the read path.
func (s *SafeEngine) RangeSumWithin(ranges map[string]ValueRange) (float64, bool, error) {
	w, err := untraced(runSafe(&s.guard, false, rangeWithinRead, ranges))
	return w.sum, w.ok, err
}

// RangeSumIndex is Engine.RangeSumIndex on the read path.
func (s *SafeEngine) RangeSumIndex(lo, ext []int) (float64, error) {
	return untraced(runSafe(&s.guard, false, rangeIndexRead, rangeagg.Box{Lo: lo, Ext: ext}))
}

// GroupByResult is GroupBy answered as the columnar Result servers encode
// directly; the trace is nil unless traced.
func (s *SafeEngine) GroupByResult(traced bool, keep ...string) (*Result, *QueryTrace, error) {
	v, qt, err := runSafe(&s.guard, traced, groupByRead, keep)
	if err != nil {
		return nil, nil, err
	}
	r, err := v.leased()
	return settle(r, qt, err)
}

// Select answers a SQL statement on the read path as a columnar Result.
func (s *SafeEngine) Select(traced bool, sql string) (*Result, *QueryTrace, error) {
	return runSafe(&s.guard, traced, sqlRead, sql)
}

// Query is Engine.Query on the read path.
func (s *SafeEngine) Query(sql string) (*QueryResult, error) {
	return untraced(asQuery(s.Select(false, sql)))
}

// TraceQuery is Engine.TraceQuery on the read path: each traced query owns
// its execution context, so traced and untraced queries overlap freely.
func (s *SafeEngine) TraceQuery(sql string) (*QueryResult, *QueryTrace, error) {
	return asQuery(s.Select(true, sql))
}

// TraceGroupBy is Engine.TraceGroupBy on the read path.
func (s *SafeEngine) TraceGroupBy(keep ...string) (*View, *QueryTrace, error) {
	return runSafe(&s.guard, true, groupByRead, keep)
}

// TraceRangeSum is Engine.TraceRangeSum on the read path.
func (s *SafeEngine) TraceRangeSum(ranges map[string]ValueRange) (float64, *QueryTrace, error) {
	return runSafe(&s.guard, true, rangeSumRead, ranges)
}

// TraceTotal is Engine.TraceTotal on the read path.
func (s *SafeEngine) TraceTotal() (float64, *QueryTrace, error) {
	return runSafe(&s.guard, true, totalRead, struct{}{})
}

// TraceRangeSumWithin is Engine.TraceRangeSumWithin on the read path.
func (s *SafeEngine) TraceRangeSumWithin(ranges map[string]ValueRange) (float64, bool, *QueryTrace, error) {
	w, qt, err := runSafe(&s.guard, true, rangeWithinRead, ranges)
	return w.sum, w.ok, qt, err
}

// Optimize is Engine.Optimize under the write lock. Under ingest, the new
// materialised set reaches readers at the forced republish.
func (s *SafeEngine) Optimize(w *Workload) error {
	return s.mutate(func(e *Engine) (bool, error) { return true, e.Optimize(w) })
}

// Reconfigure is Engine.Reconfigure under the write lock. Under ingest, the
// new materialised set reaches readers at the forced republish.
func (s *SafeEngine) Reconfigure() (changed bool, err error) {
	err = s.mutate(func(e *Engine) (bool, error) {
		var err error
		changed, err = e.Reconfigure()
		return changed, err
	})
	return changed, err
}

// Update applies a cell delta. With ingest enabled it appends to the WAL
// and coalescing buffer and returns — visibility comes at the next snapshot
// publish (Flush waits for it). Otherwise it runs under the write lock.
// Zero deltas validate and return without locking either way.
func (s *SafeEngine) Update(delta float64, idx ...int) error {
	return s.write([]float64{delta}, idx, func(e *Engine) error { return e.Update(delta, idx...) })
}

// UpdateValue is Update addressed by dimension values.
func (s *SafeEngine) UpdateValue(delta float64, values map[string]string) error {
	idx, err := s.eng.resolveUpdateIndex(values)
	if err != nil {
		return err
	}
	return s.Update(delta, idx...)
}

// StoreStats is Engine.StoreStats under the read lock.
func (s *SafeEngine) StoreStats() StoreStats { return locked(&s.guard, (*Engine).StoreStats) }

// PlanCacheStats is Engine.PlanCacheStats with the streaming snapshot epoch
// folded in when ingest is enabled — for display and the query log; caches
// sync against DataVersion. It takes no engine lock: the planner's counters
// are atomics behind the plan cache's own lock.
func (s *SafeEngine) PlanCacheStats() PlanCacheStats {
	st := s.eng.PlanCacheStats()
	st.Snapshot = s.SnapshotEpoch()
	return st
}

// Explain is Engine.Explain against the engine a query would run on —
// the pinned snapshot under ingest, the base engine under the read lock
// otherwise — so it renders the plan queries actually execute and never
// waits out the merger. Planning is a pure read of the materialised set (and
// of the shared plan cache, which is concurrency-safe), so explains overlap
// queries freely.
func (s *SafeEngine) Explain(el Element) (string, error) {
	eng, release := s.reader()
	defer release()
	return eng.Explain(el)
}

// ExplainGroupBy is Engine.ExplainGroupBy on the same pinned read.
func (s *SafeEngine) ExplainGroupBy(keep ...string) (string, error) {
	eng, release := s.reader()
	defer release()
	return eng.ExplainGroupBy(keep...)
}

// SaveState is Engine.SaveState under the read lock.
func (s *SafeEngine) SaveState(w io.Writer) error {
	return locked(&s.guard, func(e *Engine) error { return e.SaveState(w) })
}

// SafeAggEngine shares an AggEngine across goroutines: the guard over a
// measure-vector cube. Reads overlap under the read lock and, under ingest,
// pin snapshot generations exactly like a SafeEngine's; observations stream
// as width-w deltas [v, v², 1] through the same runtime. As on SafeEngine,
// the write-path switches, DataVersion and the counters are the guard's.
type SafeAggEngine struct {
	guard[*AggEngine]
}

// Safe wraps the engine for concurrent use. The wrapped engine must not be
// used directly afterwards.
func (a *AggEngine) Safe() *SafeAggEngine { return &SafeAggEngine{guard[*AggEngine]{eng: a}} }

// Cube returns the cube (dimension metadata, workloads, ...).
func (s *SafeAggEngine) Cube() *Cube { return s.eng.Cube() }

// GroupByResult answers GROUP BY keep... for any aggregate kind on the read
// path as the columnar Result; the trace is nil unless traced.
func (s *SafeAggEngine) GroupByResult(traced bool, kind AggKind, keep ...string) (*Result, *QueryTrace, error) {
	return runSafe(&s.guard, traced, groupByAggRead, aggKeep{kind, keep})
}

// GroupByAgg is AggEngine.GroupByAgg on the read path.
func (s *SafeAggEngine) GroupByAgg(kind AggKind, keep ...string) (map[string]float64, error) {
	return untraced(asGroups(s.GroupByResult(false, kind, keep...)))
}

// TraceGroupByAgg is AggEngine.TraceGroupByAgg on the read path.
func (s *SafeAggEngine) TraceGroupByAgg(kind AggKind, keep ...string) (map[string]float64, *QueryTrace, error) {
	return asGroups(s.GroupByResult(true, kind, keep...))
}

// RangeAgg is AggEngine.RangeAgg on the read path.
func (s *SafeAggEngine) RangeAgg(kind AggKind, ranges map[string]ValueRange) (float64, error) {
	return untraced(runSafe(&s.guard, false, rangeAggRead, aggRanges{kind, ranges}))
}

// TraceRangeAgg is AggEngine.TraceRangeAgg on the read path.
func (s *SafeAggEngine) TraceRangeAgg(kind AggKind, ranges map[string]ValueRange) (float64, *QueryTrace, error) {
	return runSafe(&s.guard, true, rangeAggRead, aggRanges{kind, ranges})
}

// Select is SafeEngine.Select over the measure-vector cube: every selected
// aggregate finalises from one assembled vector.
func (s *SafeAggEngine) Select(traced bool, sql string) (*Result, *QueryTrace, error) {
	return runSafe(&s.guard, traced, aggSQLRead, sql)
}

// Query is AggEngine.Query on the read path.
func (s *SafeAggEngine) Query(sql string) (*QueryResult, error) {
	return untraced(asQuery(s.Select(false, sql)))
}

// TraceQuery is AggEngine.TraceQuery on the read path.
func (s *SafeAggEngine) TraceQuery(sql string) (*QueryResult, *QueryTrace, error) {
	return asQuery(s.Select(true, sql))
}

// ExplainAgg is AggEngine.ExplainAgg against the engine a query would run
// on, like SafeEngine.Explain.
func (s *SafeAggEngine) ExplainAgg(kind AggKind, keep ...string) (string, error) {
	eng, release := s.reader()
	defer release()
	return eng.ExplainAgg(kind, keep...)
}

// Optimize is AggEngine.Optimize under the write lock. Under ingest, the new
// materialised set reaches readers at the forced republish.
func (s *SafeAggEngine) Optimize(w *Workload) error {
	return s.mutate(func(a *AggEngine) (bool, error) { return true, a.Optimize(w) })
}

// Update applies one new observation with the given measure. With ingest
// enabled its component delta [v, v², 1] is appended to the WAL and
// coalescing buffer — visibility comes at the next snapshot publish (Flush
// waits for it). Otherwise it runs under the write lock.
func (s *SafeAggEngine) Update(measure float64, idx ...int) error {
	return s.write(s.eng.observation(measure), idx, func(a *AggEngine) error { return a.Update(measure, idx...) })
}

// UpdateValue is Update addressed by dimension values.
func (s *SafeAggEngine) UpdateValue(measure float64, values map[string]string) error {
	idx, err := s.eng.eng.resolveUpdateIndex(values)
	if err != nil {
		return err
	}
	return s.Update(measure, idx...)
}

// StoreStats is always the zero value: the vector store is in-memory.
func (s *SafeAggEngine) StoreStats() StoreStats { return StoreStats{} }

// PlanCacheStats reports the engine's plan cache, with the streaming
// snapshot epoch folded in; lock-free like SafeEngine.PlanCacheStats.
func (s *SafeAggEngine) PlanCacheStats() PlanCacheStats {
	st := s.eng.eng.PlanCacheStats()
	st.Snapshot = s.SnapshotEpoch()
	return st
}
