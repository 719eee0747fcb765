package viewcube

import "viewcube/internal/ingest"

// DataVersion is the one counter caches of this engine's answers sync
// against. It never decreases and never repeats a value: every locked
// mutation, every published snapshot and every ingest enable/disable moves
// it, and nothing else does (reads and zero deltas leave it alone). It is a
// single atomic load — no engine lock — so a cache hit never waits out a
// merge or a reconfiguration.
func (e *Engine) DataVersion() uint64 { return e.version.Load() }

// reader returns the state a query should run against, pinned until
// release: with ingest enabled, the current snapshot generation, returned as
// well (no lock, never blocks); otherwise the base under the read lock, and
// a nil snapshot. Every read path goes through it, which is the
// non-blocking-readers guarantee in one place.
func (e *Engine) reader() (*core, *ingest.Snapshot[*core]) {
	if rt := e.ing.Load(); rt != nil {
		snap := rt.lc.Acquire()
		return snap.Payload(), snap
	}
	e.mu.RLock()
	return &e.core, nil
}

// release ends the pin reader took.
func (e *Engine) release(snap *ingest.Snapshot[*core]) {
	if snap != nil {
		snap.Release()
		return
	}
	e.mu.RUnlock()
}

// mutate is the one locked mutation: fn runs on the base under the write
// lock and reports whether it changed anything. A change moves the data
// version and, under ingest, waits for a snapshot generation published after
// it, so readers stop pinning the pre-mutation materialised set.
func (e *Engine) mutate(fn func(*core) (bool, error)) error {
	e.mu.Lock()
	e.core.own() // a reader may pin the generation the base's arrays belong to
	changed, err := fn(&e.core)
	if changed {
		e.version.Add(1)
	}
	e.mu.Unlock()
	if changed {
		if rt := e.ing.Load(); rt != nil {
			rt.forcePublish()
		}
	}
	return err
}

// reselectIfDue performs a pending automatic reselection under the write
// lock. The unlocked fast path keeps the query path lock-free when nothing
// is due; maybeReselect's re-check under the lock makes racing drainers
// idempotent (reconfiguring clears the flag first).
func (e *Engine) reselectIfDue() error {
	if !e.core.prof.ReselectDue() {
		return nil
	}
	return e.mutate((*core).maybeReselect)
}

// write is the one write of one delta per plane: validate the cell
// lock-free, drop a zero delta (nothing to fold, no lock, no version move),
// then append to the ingest runtime — visibility comes at the next snapshot
// publish, Flush waits for it — or, with ingest off, run the base's own
// update under the write lock.
func (e *Engine) write(vals []float64, idx []int) error {
	if err := e.core.checkCell(idx); err != nil || isZero(vals) {
		return err
	}
	if rt := e.ing.Load(); rt != nil {
		if err := e.core.mass.admit(vals); err != nil {
			return err
		}
		return rt.ingestAppend(vals, idx)
	}
	return e.mutate(func(c *core) (bool, error) {
		err := c.update(vals, idx)
		return err == nil, err
	})
}

// locked runs a read of engine state that has no snapshot form (adaptive
// counters, store statistics, the workload profile) on the base under the
// read lock.
func locked[T any](e *Engine, fn func(*core) T) T {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return fn(&e.core)
}

// ResidentCells counts the cells held in memory — the stored elements, the raw
// cube while that is an array of its own and, under ingest, a stored set per
// live snapshot generation, the base's counted once while it reads the current
// generation's arrays — and sets the viewcube_resident_cells gauge to it.
func (e *Engine) ResidentCells() int {
	e.mu.RLock()
	stored, n, sets := e.core.storageCells(), e.core.rawCells(), 1
	if rt := e.ing.Load(); rt != nil {
		sets += rt.lc.Stats().Live
		if e.core.lent {
			sets--
		}
	}
	e.mu.RUnlock()
	n += sets * stored
	e.core.met.resident.Set(int64(n))
	return n
}

// runSafe is the engine's read seam, the one place a read is pinned and
// drained: it runs the ask through run against whatever reader() hands out,
// releases the pin, then drains a due reselection under the write lock.
// Every query method states its ask and calls it.
func runSafe(e *Engine, traced bool, a ask) (answer, *QueryTrace, error) {
	c, snap := e.reader()
	out, qt, err := run(c, traced, a)
	e.release(snap)
	if err == nil {
		err = e.reselectIfDue()
	}
	return settle(out, qt, err)
}
