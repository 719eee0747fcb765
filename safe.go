package viewcube

import (
	"io"
	"sync"
	"sync/atomic"

	"viewcube/internal/obs"
	"viewcube/internal/rangeagg"
)

// guard shares one engine across goroutines with a read/write split — the
// package's one concurrency wrapper, whatever the engine's measure width.
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
type guard struct {
	mu  sync.RWMutex
	eng *Engine
	ing atomic.Pointer[ingestRuntime]
	// version is the data version: see DataVersion.
	version atomic.Uint64
}

// DataVersion is the one counter caches of this engine's answers sync
// against. It never decreases and never repeats a value: every locked
// mutation, every published snapshot and every ingest enable/disable moves
// it, and nothing else does (reads and zero deltas leave it alone). It is a
// single atomic load — no engine lock — so a cache hit never waits out a
// merge or a reconfiguration.
func (g *guard) DataVersion() uint64 { return g.version.Load() }

// reader returns the engine a query should run against plus its release.
// With ingest enabled it pins the current snapshot (no lock, never blocks);
// otherwise it read-locks the base engine. Every read path goes through it,
// which is the non-blocking-readers guarantee in one place.
func (g *guard) reader() (*Engine, func()) {
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
func (g *guard) mutate(fn func(*Engine) (bool, error)) error {
	g.mu.Lock()
	g.eng.own() // a reader may pin the generation the base's arrays belong to
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
func (g *guard) reselectIfDue() error {
	if !g.eng.inner.ReselectDue() {
		return nil
	}
	return g.mutate((*Engine).maybeReselect)
}

// write is the one write of one delta per plane: validate the cell
// lock-free, drop a zero delta (nothing to fold, no lock, no version move),
// then append to the ingest runtime — visibility comes at the next snapshot
// publish, Flush waits for it — or, with ingest off, run the engine's own
// update under the write lock.
func (g *guard) write(vals []float64, idx []int) error {
	if err := g.eng.checkCell(idx); err != nil || isZero(vals) {
		return err
	}
	if rt := g.ing.Load(); rt != nil {
		if err := g.eng.mass.admit(vals); err != nil {
			return err
		}
		return rt.ingestAppend(vals, idx)
	}
	return g.mutate(func(e *Engine) (bool, error) {
		err := e.update(vals, idx)
		return err == nil, err
	})
}

// locked runs a read of engine state that has no snapshot form (adaptive
// counters, store statistics, the workload profile) on the base engine under
// the read lock.
func locked[T any](g *guard, fn func(*Engine) T) T {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return fn(g.eng)
}

// Stats returns the adaptive counters of the shared materialised set.
func (g *guard) Stats() Stats { return locked(g, (*Engine).Stats) }

// MaterializedElements returns how many elements are materialised.
func (g *guard) MaterializedElements() int { return locked(g, (*Engine).MaterializedElements) }

// StorageCells returns the materialised volume in stored scalars.
func (g *guard) StorageCells() int { return locked(g, (*Engine).StorageCells) }

// ResidentCells counts the cells held in memory — the stored elements, the raw
// cube while that is an array of its own and, under ingest, a stored set per
// live snapshot generation, the base's counted once while it reads the current
// generation's arrays — and sets the viewcube_resident_cells gauge to it.
func (g *guard) ResidentCells() int {
	g.mu.RLock()
	stored, n, sets := g.eng.StorageCells(), g.eng.rawCells(), 1
	if rt := g.ing.Load(); rt != nil {
		sets += rt.lc.Stats().Live
		if g.eng.lent {
			sets--
		}
	}
	g.mu.RUnlock()
	n += sets * stored
	g.eng.met.resident.Set(int64(n))
	return n
}

// Metrics returns the engine's metrics registry. The registry itself is
// safe for concurrent use, so no lock is taken to read instruments.
func (g *guard) Metrics() *Metrics { return g.eng.met }

// runSafe is the guard's read seam, the one place a shared read is pinned
// and drained: it runs r through the read seam against whatever reader()
// hands out, releases the pin, then drains a due reselection under the write
// lock. Every query method below is a one-line instance of it.
func runSafe[A, T any](g *guard, traced bool, r read, body func(*Engine, *obs.ExecCtx, A) (T, error), args A) (T, *QueryTrace, error) {
	eng, release := g.reader()
	out, qt, err := run(eng, traced, r, body, args)
	release()
	if err == nil {
		err = g.reselectIfDue()
	}
	return settle(out, qt, err)
}

// SafeEngine shares an Engine across goroutines, at any measure width.
// Reads route through the engine's reselect-free read path, so a query never
// mutates shared state; when a query pushes the adaptive recorder past its
// reselection threshold, the due flag is drained afterwards under the write
// lock. Traced queries carry their own execution context, so concurrent
// traces never observe each other. The write-path switches (EnableIngest,
// DisableIngest, IngestEnabled, IngestStats, Flush, SnapshotEpoch),
// DataVersion and the counters (Stats, MaterializedElements, StorageCells,
// Metrics) are the guard's.
type SafeEngine struct {
	guard
}

// Safe wraps the engine for concurrent use. The wrapped engine must not be
// used directly afterwards.
func (e *Engine) Safe() *SafeEngine { return &SafeEngine{guard{eng: e}} }

// Cube returns the cube (dimension metadata, workloads, ...).
func (s *SafeEngine) Cube() *Cube { return s.eng.cube }

// GroupBy is Engine.GroupBy against the pinned snapshot (or under the read
// lock when ingest is off).
func (s *SafeEngine) GroupBy(keep ...string) (*View, error) {
	return untraced(runSafe(&s.guard, false, groupByRead, (*Engine).groupByInner, keep))
}

// GroupByWhere is Engine.GroupByWhere on the read path.
func (s *SafeEngine) GroupByWhere(keep []string, ranges map[string]ValueRange) (*View, error) {
	return untraced(runSafe(&s.guard, false, groupByWhereRead, (*Engine).groupByWhereInner, dice{keep, ranges}))
}

// View is Engine.View on the read path.
func (s *SafeEngine) View(el Element) (*View, error) {
	return untraced(runSafe(&s.guard, false, viewRead, (*Engine).viewInner, el))
}

// Total is Engine.Total on the read path.
func (s *SafeEngine) Total() (float64, error) {
	return untraced(runSafe(&s.guard, false, totalRead, (*Engine).totalInner, struct{}{}))
}

// RangeSum is Engine.RangeSum on the read path.
func (s *SafeEngine) RangeSum(ranges map[string]ValueRange) (float64, error) {
	return untraced(runSafe(&s.guard, false, rangeRead, (*Engine).rangeSumInner, ranges))
}

// RangeSumWithin is Engine.RangeSumWithin on the read path.
func (s *SafeEngine) RangeSumWithin(ranges map[string]ValueRange) (float64, bool, error) {
	w, err := untraced(runSafe(&s.guard, false, rangeRead, (*Engine).rangeSumWithinInner, ranges))
	return w.sum, w.ok, err
}

// RangeSumIndex is Engine.RangeSumIndex on the read path.
func (s *SafeEngine) RangeSumIndex(lo, ext []int) (float64, error) {
	return untraced(runSafe(&s.guard, false, rangeRead, (*Engine).rangeSumIndexInner, rangeagg.Box{Lo: lo, Ext: ext}))
}

// GroupByResult is GroupBy answered as the columnar Result servers encode
// directly; the trace is nil unless traced.
func (s *SafeEngine) GroupByResult(traced bool, keep ...string) (*Result, *QueryTrace, error) {
	v, qt, err := runSafe(&s.guard, traced, groupByRead, (*Engine).groupByInner, keep)
	if err != nil {
		return nil, nil, err
	}
	r, err := v.leased()
	return settle(r, qt, err)
}

// GroupByAggResult answers GROUP BY keep... for any aggregate kind the
// engine's measure layout supports, on the read path, as the columnar
// Result; the trace is nil unless traced.
func (s *SafeEngine) GroupByAggResult(traced bool, kind AggKind, keep ...string) (*Result, *QueryTrace, error) {
	return runSafe(&s.guard, traced, groupByAggRead, (*Engine).groupByAggInner, aggKeep{kind, keep})
}

// GroupByAgg is Engine.GroupByAgg on the read path.
func (s *SafeEngine) GroupByAgg(kind AggKind, keep ...string) (map[string]float64, error) {
	return untraced(asGroups(s.GroupByAggResult(false, kind, keep...)))
}

// TraceGroupByAgg is Engine.TraceGroupByAgg on the read path.
func (s *SafeEngine) TraceGroupByAgg(kind AggKind, keep ...string) (map[string]float64, *QueryTrace, error) {
	return asGroups(s.GroupByAggResult(true, kind, keep...))
}

// RangeAgg is Engine.RangeAgg on the read path.
func (s *SafeEngine) RangeAgg(kind AggKind, ranges map[string]ValueRange) (float64, error) {
	return untraced(runSafe(&s.guard, false, rangeAggRead, (*Engine).rangeAggInner, aggRanges{kind, ranges}))
}

// TraceRangeAgg is Engine.TraceRangeAgg on the read path.
func (s *SafeEngine) TraceRangeAgg(kind AggKind, ranges map[string]ValueRange) (float64, *QueryTrace, error) {
	return runSafe(&s.guard, true, rangeAggRead, (*Engine).rangeAggInner, aggRanges{kind, ranges})
}

// Select answers a SQL statement on the read path as a columnar Result.
func (s *SafeEngine) Select(traced bool, sql string) (*Result, *QueryTrace, error) {
	return runSafe(&s.guard, traced, sqlRead, (*Engine).queryInner, sql)
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
	return runSafe(&s.guard, true, groupByRead, (*Engine).groupByInner, keep)
}

// TraceRangeSum is Engine.TraceRangeSum on the read path.
func (s *SafeEngine) TraceRangeSum(ranges map[string]ValueRange) (float64, *QueryTrace, error) {
	return runSafe(&s.guard, true, rangeRead, (*Engine).rangeSumInner, ranges)
}

// TraceTotal is Engine.TraceTotal on the read path.
func (s *SafeEngine) TraceTotal() (float64, *QueryTrace, error) {
	return runSafe(&s.guard, true, totalRead, (*Engine).totalInner, struct{}{})
}

// TraceRangeSumWithin is Engine.TraceRangeSumWithin on the read path.
func (s *SafeEngine) TraceRangeSumWithin(ranges map[string]ValueRange) (float64, bool, *QueryTrace, error) {
	w, qt, err := runSafe(&s.guard, true, rangeRead, (*Engine).rangeSumWithinInner, ranges)
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

// Update is Engine.Update on the write path. With ingest enabled its delta
// (on a measure-vector cube, the components [v, v², 1] of one new tuple) is
// appended to the WAL and coalescing buffer and returns — visibility comes
// at the next snapshot publish (Flush waits for it). Otherwise it runs under
// the write lock. Zero deltas validate and return without locking either
// way.
func (s *SafeEngine) Update(delta float64, idx ...int) error {
	return s.write(s.eng.observation(delta), idx)
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

// ExplainAgg is Engine.ExplainAgg on the same pinned read.
func (s *SafeEngine) ExplainAgg(kind AggKind, keep ...string) (string, error) {
	eng, release := s.reader()
	defer release()
	return eng.ExplainAgg(kind, keep...)
}

// SaveState is Engine.SaveState under the read lock.
func (s *SafeEngine) SaveState(w io.Writer) error {
	return locked(&s.guard, func(e *Engine) error { return e.SaveState(w) })
}
