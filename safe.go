package viewcube

import (
	"io"
	"sync"
	"sync/atomic"

	"viewcube/internal/rangeagg"
)

// SafeEngine shares an Engine across goroutines with a read/write split:
// queries are semantically pure reads of the materialised set (Procedure 3
// planning plus Haar synthesis allocate only per-query state), so any
// number of them overlap under the read lock; only operations that rewrite
// the materialised set — Optimize, Update, Reconfigure, and automatic
// reselection — take the write lock.
//
// Reads route through the engine's reselect-free read path, so a query
// never mutates shared state; when a query pushes the adaptive recorder
// past its reselection threshold, the due flag is drained afterwards under
// the write lock (see reselectIfDue). Traced queries carry their own
// execution context, so concurrent traces never observe each other.
//
// With streaming ingest enabled (EnableIngest), the locking regime changes:
// reads pin the current immutable snapshot for their whole duration instead
// of taking the read lock, so they never block on (or are blocked by) the
// write path; Update/UpdateValue append to the ingest buffer and return,
// and the background merger is the only mutator of the base engine.
type SafeEngine struct {
	mu  sync.RWMutex
	eng *Engine
	ing atomic.Pointer[ingestRuntime]
}

// Safe wraps the engine for concurrent use. The wrapped engine must not be
// used directly afterwards.
func (e *Engine) Safe() *SafeEngine { return &SafeEngine{eng: e} }

// reader returns the engine a query should run against plus its release.
// With ingest enabled it pins the current snapshot (no lock, never blocks);
// otherwise it read-locks the base engine. Every read path goes through it,
// which is the non-blocking-readers guarantee in one place.
func (s *SafeEngine) reader() (*Engine, func()) {
	if rt := s.ing.Load(); rt != nil {
		snap := rt.lc.Acquire()
		return snap.Payload(), snap.Release
	}
	s.mu.RLock()
	return s.eng, s.mu.RUnlock
}

// reselectIfDue performs a pending automatic reselection under the write
// lock. The unlocked fast path keeps the query path lock-free when nothing
// is due; the double-check under the lock makes racing drainers idempotent
// (Reconfigure clears the flag before reselecting). Under ingest, the
// reconfigured materialised set becomes visible to readers at the forced
// republish that follows.
func (s *SafeEngine) reselectIfDue() error {
	if !s.eng.inner.ReselectDue() {
		return nil
	}
	s.mu.Lock()
	if !s.eng.inner.ReselectDue() {
		s.mu.Unlock()
		return nil
	}
	_, err := s.eng.inner.AutoReconfigure(nil)
	s.mu.Unlock()
	if err == nil {
		if rt := s.ing.Load(); rt != nil {
			rt.forcePublish()
		}
	}
	return err
}

// runSafe is the SafeEngine read seam, the one place a shared read is
// pinned and drained: it runs r through the read seam against whatever
// reader() hands out, releases the pin, then drains a due reselection under
// the write lock. Every query method below is a one-line instance of it.
func runSafe[A, T any](s *SafeEngine, traced bool, r read[*Engine, A, T], args A) (T, *QueryTrace, error) {
	eng, release := s.reader()
	out, qt, err := run(eng.met, eng, traced, r, args)
	release()
	if err == nil {
		err = s.reselectIfDue()
	}
	return settle(out, qt, err)
}

// GroupBy is Engine.GroupBy against the pinned snapshot (or under the read
// lock when ingest is off).
func (s *SafeEngine) GroupBy(keep ...string) (*View, error) {
	return untraced(runSafe(s, false, groupByRead, keep))
}

// GroupByWhere is Engine.GroupByWhere on the read path.
func (s *SafeEngine) GroupByWhere(keep []string, ranges map[string]ValueRange) (*View, error) {
	return untraced(runSafe(s, false, groupByWhereRead, dice{keep, ranges}))
}

// View is Engine.View on the read path.
func (s *SafeEngine) View(el Element) (*View, error) {
	return untraced(runSafe(s, false, viewRead, el))
}

// Total is Engine.Total on the read path.
func (s *SafeEngine) Total() (float64, error) {
	return untraced(runSafe(s, false, totalRead, struct{}{}))
}

// RangeSum is Engine.RangeSum on the read path.
func (s *SafeEngine) RangeSum(ranges map[string]ValueRange) (float64, error) {
	return untraced(runSafe(s, false, rangeSumRead, ranges))
}

// RangeSumWithin is Engine.RangeSumWithin on the read path.
func (s *SafeEngine) RangeSumWithin(ranges map[string]ValueRange) (float64, bool, error) {
	w, err := untraced(runSafe(s, false, rangeWithinRead, ranges))
	return w.sum, w.ok, err
}

// RangeSumIndex is Engine.RangeSumIndex on the read path.
func (s *SafeEngine) RangeSumIndex(lo, ext []int) (float64, error) {
	return untraced(runSafe(s, false, rangeIndexRead, rangeagg.Box{Lo: lo, Ext: ext}))
}

// Query is Engine.Query on the read path.
func (s *SafeEngine) Query(sql string) (*QueryResult, error) {
	return untraced(runSafe(s, false, sqlRead, sql))
}

// TraceQuery is Engine.TraceQuery on the read path: each traced query owns
// its execution context, so traced and untraced queries overlap freely.
func (s *SafeEngine) TraceQuery(sql string) (*QueryResult, *QueryTrace, error) {
	return runSafe(s, true, sqlRead, sql)
}

// TraceGroupBy is Engine.TraceGroupBy on the read path.
func (s *SafeEngine) TraceGroupBy(keep ...string) (*View, *QueryTrace, error) {
	return runSafe(s, true, groupByRead, keep)
}

// TraceRangeSum is Engine.TraceRangeSum on the read path.
func (s *SafeEngine) TraceRangeSum(ranges map[string]ValueRange) (float64, *QueryTrace, error) {
	return runSafe(s, true, rangeSumRead, ranges)
}

// TraceTotal is Engine.TraceTotal on the read path.
func (s *SafeEngine) TraceTotal() (float64, *QueryTrace, error) {
	return runSafe(s, true, totalRead, struct{}{})
}

// TraceRangeSumWithin is Engine.TraceRangeSumWithin on the read path.
func (s *SafeEngine) TraceRangeSumWithin(ranges map[string]ValueRange) (float64, bool, *QueryTrace, error) {
	w, qt, err := runSafe(s, true, rangeWithinRead, ranges)
	return w.sum, w.ok, qt, err
}

// Optimize is Engine.Optimize under the write lock. Under ingest, the new
// materialised set reaches readers at the forced republish.
func (s *SafeEngine) Optimize(w *Workload) error {
	s.mu.Lock()
	err := s.eng.Optimize(w)
	s.mu.Unlock()
	if err == nil {
		if rt := s.ing.Load(); rt != nil {
			rt.forcePublish()
		}
	}
	return err
}

// Reconfigure is Engine.Reconfigure under the write lock. Under ingest, the
// new materialised set reaches readers at the forced republish.
func (s *SafeEngine) Reconfigure() (bool, error) {
	s.mu.Lock()
	changed, err := s.eng.Reconfigure()
	s.mu.Unlock()
	if err == nil && changed {
		if rt := s.ing.Load(); rt != nil {
			rt.forcePublish()
		}
	}
	return changed, err
}

// Update applies a cell delta. With ingest enabled it appends to the WAL
// and coalescing buffer and returns — visibility comes at the next snapshot
// publish (Flush waits for it). Otherwise it runs under the write lock.
// Zero deltas validate and return without locking either way.
func (s *SafeEngine) Update(delta float64, idx ...int) error {
	if rt := s.ing.Load(); rt != nil {
		return rt.ingestAppend(delta, idx)
	}
	if delta == 0 {
		// Engine.Update's zero-delta path validates and touches nothing, so
		// no lock, no plan-epoch bump, no result-cache invalidation.
		return s.eng.Update(0, idx...)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eng.Update(delta, idx...)
}

// UpdateValue is Update addressed by dimension values.
func (s *SafeEngine) UpdateValue(delta float64, values map[string]string) error {
	if rt := s.ing.Load(); rt != nil {
		idx, err := s.eng.resolveUpdateIndex(values)
		if err != nil {
			return err
		}
		return rt.ingestAppend(delta, idx)
	}
	if delta == 0 {
		return s.eng.UpdateValue(0, values)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eng.UpdateValue(delta, values)
}

// Stats is Engine.Stats under the read lock.
func (s *SafeEngine) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.eng.Stats()
}

// StoreStats is Engine.StoreStats under the read lock.
func (s *SafeEngine) StoreStats() StoreStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.eng.StoreStats()
}

// PlanCacheStats is Engine.PlanCacheStats under the read lock, with the
// streaming snapshot epoch folded in when ingest is enabled. Epoch+Snapshot
// is the monotone data-version counter result caches sync against: locked
// writes bump Epoch, ingest publishes bump Snapshot, and the sum never
// repeats a value.
func (s *SafeEngine) PlanCacheStats() PlanCacheStats {
	s.mu.RLock()
	st := s.eng.PlanCacheStats()
	s.mu.RUnlock()
	if rt := s.ing.Load(); rt != nil {
		st.Snapshot = rt.lc.Current()
	}
	return st
}

// SnapshotEpoch returns the current published snapshot epoch, 0 when ingest
// is not enabled.
func (s *SafeEngine) SnapshotEpoch() uint64 {
	if rt := s.ing.Load(); rt != nil {
		return rt.lc.Current()
	}
	return 0
}

// Explain is Engine.Explain against the engine a query would run on —
// the pinned snapshot under ingest, the base engine under the read lock
// otherwise — so it renders the plan queries actually execute and never
// waits out the merger. Planning is a pure read of the materialised set (and
// of the shared plan cache, which is concurrency-safe), so explains overlap
// queries freely; it records no access, so there is nothing to drain.
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

// MaterializedElements is Engine.MaterializedElements under the read lock.
func (s *SafeEngine) MaterializedElements() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.eng.MaterializedElements()
}

// StorageCells is Engine.StorageCells under the read lock.
func (s *SafeEngine) StorageCells() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.eng.StorageCells()
}

// Metrics returns the engine's metrics registry. The registry itself is
// safe for concurrent use, so no lock is taken to read instruments.
func (s *SafeEngine) Metrics() *Metrics {
	return s.eng.Metrics()
}

// SaveState is Engine.SaveState under the read lock.
func (s *SafeEngine) SaveState(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.eng.SaveState(w)
}
