package viewcube

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"viewcube/internal/assembly"
	"viewcube/internal/ingest"
)

// IngestOptions configures the streaming write path of an Engine.
type IngestOptions struct {
	// WALPath, when non-empty, makes acknowledged updates durable in an
	// append-only write-ahead log at that path. On EnableIngest the segment
	// is replayed into the engine (torn tails are truncated), so the log
	// must hold the full delta history since the in-memory engine was built
	// — pairing a WAL with a DiskDir store that already absorbed the deltas
	// would double-apply and is rejected.
	WALPath string
	// Fsync syncs the WAL after every append. Off, a process crash loses
	// nothing and a machine crash loses only the un-synced tail.
	Fsync bool
	// MaxPending bounds the ingest buffer's distinct dirty cells; appends
	// that would dirty a new cell beyond it block until the merger drains
	// (coalescing into an already-dirty cell never blocks). 0 defaults to
	// 65536; negative means unbounded.
	MaxPending int
	// Interval is how long the merger accumulates deltas after the first
	// dirty cell before folding them into a new snapshot — the freshness /
	// merge-amortisation trade. 0 defaults to 5ms.
	Interval time.Duration
}

// IngestStats reports the streaming write path's counters.
type IngestStats struct {
	Appended      uint64 `json:"appended"`           // deltas acknowledged
	Coalesced     uint64 `json:"coalesced"`          // folded into a dirty cell pre-merge
	Blocked       uint64 `json:"blocked"`            // appends that hit backpressure
	PendingCells  int    `json:"pending_cells"`      // dirty cells awaiting merge
	WALBytes      uint64 `json:"wal_bytes"`          // bytes appended to the WAL
	WALReplayed   uint64 `json:"wal_replayed"`       // deltas replayed at startup
	Merges        uint64 `json:"merges"`             // merge cycles run
	MergedCells   uint64 `json:"merged_cells"`       // dirty cells folded across merges
	SnapshotEpoch uint64 `json:"snapshot_epoch"`     // current published snapshot
	Published     uint64 `json:"published"`          // snapshots published
	Live          int    `json:"live"`               // snapshots not yet retired
	Pinned        int    `json:"pinned"`             // readers on the current snapshot
	Retired       uint64 `json:"retired"`            // snapshots compacted away
	LagSeqs       uint64 `json:"lag_seqs"`           // acknowledged but not yet visible
	Degraded      string `json:"degraded,omitempty"` // why the merger stopped, if it did
}

// ErrIngestDegraded is what appends and Flush return once a merge failed:
// the merger has stopped, readers keep the last published generation, and
// the cube needs a restart (its WAL replays every acknowledged delta).
var ErrIngestDegraded = errors.New("viewcube: ingest is degraded")

// ingestRuntime is the machinery EnableIngest installs on an Engine: the
// WAL, the coalescing buffer, the background merger, and the snapshot
// lifecycle readers pin. The base (e.core) is the one writer, touched only
// under e.mu's write lock; every published snapshot is an immutable generation
// holding the base's arrays of the moment. The base reads those arrays until
// its next write, which first copies them (core.own), so at rest the
// current generation's arrays are the only copy of the stored set. A SUM
// cube streams width-1 deltas, a measure-vector cube width-3 ones; the
// runtime never looks inside them.
type ingestRuntime struct {
	e    *Engine
	opts IngestOptions

	buf *ingest.Buffer
	wal *ingest.WAL // nil without a WALPath
	lc  *ingest.Lifecycle[*core]

	// appendMu serialises sequence assignment with buffer absorption so no
	// acknowledged sequence at or below a drain's watermark can be missing
	// from that drain. It is also the lock WAL.Append's callers serialise on.
	appendMu sync.Mutex
	seqNoWAL uint64        // sequence source when running without a WAL
	appended atomic.Uint64 // last acknowledged sequence
	closed   atomic.Bool

	// pubMu guards the publish watermark, serial and republish request;
	// pubCond wakes Flush and forcePublish waiters.
	pubMu         sync.Mutex
	pubCond       *sync.Cond
	published     uint64 // watermark of the last merge (covers all seqs ≤ it)
	publishSerial uint64 // bumped only when a new snapshot generation publishes
	republish     bool   // forcePublish wants a generation even without deltas; any publish clears it
	stopped       bool   // merger exited; wake any waiters for good

	flushCh chan struct{} // capacity 1: poke the merger to merge now
	stop    chan struct{}
	done    chan struct{}

	replayed    uint64
	merges      atomic.Uint64
	mergedCells atomic.Uint64

	// fault is set, once, when a merge fails (see ErrIngestDegraded).
	fault atomic.Pointer[error]
}

// EnableIngest switches the engine's write path to streaming ingest:
// Update/UpdateValue append to a WAL-backed coalescing buffer and return,
// a background merger folds accumulated deltas into immutable snapshots
// (exact, by linearity of the Haar P/R operators, per component — DESIGN
// §16), and every query pins the current snapshot instead of taking the read
// lock, so reads never block on ingest. Requires the in-memory element
// store; disk-backed stores would double-apply on WAL replay.
func (e *Engine) EnableIngest(opts IngestOptions) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.ing.Load() != nil {
		return fmt.Errorf("viewcube: ingest already enabled")
	}
	// Only MemStore contents are cloneable cheaply, and a WAL replayed into a
	// disk store that already absorbed the deltas would double-apply.
	if _, ok := e.core.st.(*assembly.MemStore); !ok {
		return fmt.Errorf("viewcube: ingest requires the in-memory element store (no DiskDir)")
	}
	// On every path from here: a WAL replay changes the data even when
	// enabling then fails.
	defer e.version.Add(1)
	if opts.MaxPending == 0 {
		opts.MaxPending = 1 << 16
	}
	if opts.Interval <= 0 {
		opts.Interval = 5 * time.Millisecond
	}
	rt := &ingestRuntime{
		e:       e,
		opts:    opts,
		buf:     ingest.NewBuffer(opts.MaxPending),
		flushCh: make(chan struct{}, 1),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	rt.pubCond = sync.NewCond(&rt.pubMu)
	met := e.core.met.ingest
	e.core.own() // a previous runtime's last generation may still be pinned

	if opts.WALPath != "" {
		wal, err := ingest.OpenWAL(opts.WALPath, ingest.WALOptions{Fsync: opts.Fsync}, func(d ingest.Delta) error {
			rt.replayed++
			if err := e.core.mass.admit(d.Vals); err != nil {
				return err
			}
			return e.core.applyDeltaRaw(d.Vals, d.Idx)
		})
		if err != nil {
			return err
		}
		rt.wal = wal
		rt.appended.Store(wal.LastSeq())
		rt.published = wal.LastSeq()
		met.WALReplayed.Add(rt.replayed)
	}

	first, err := e.core.snapshot()
	if err != nil {
		if rt.wal != nil {
			rt.wal.Close()
		}
		return err
	}
	rt.lc = ingest.NewLifecycle(first, func(_ uint64, gen *core) {
		gen.recycle()
		met.Retired.Inc()
	})
	met.Degraded.Set(0)
	met.Published.Inc()
	met.SnapshotEpoch.Set(int64(rt.lc.Current()))

	go rt.loop()
	e.ing.Store(rt)
	return nil
}

// DisableIngest flushes every acknowledged delta into a final snapshot,
// stops the merger, closes the WAL, and returns the engine to the locked
// write path. In-flight appends racing the shutdown fail with a closed
// error.
func (e *Engine) DisableIngest() error {
	rt := e.ing.Swap(nil)
	if rt == nil {
		return nil
	}
	rt.closed.Store(true)
	rt.buf.Close()
	close(rt.stop)
	<-rt.done
	e.version.Add(1)
	var err error
	if rt.wal != nil {
		err = rt.wal.Close()
	}
	return errors.Join(rt.err(), err)
}

// IngestEnabled reports whether the streaming write path is active.
func (e *Engine) IngestEnabled() bool { return e.ing.Load() != nil }

// IngestStats snapshots the streaming write path's counters; the zero value
// is returned when ingest is not enabled.
func (e *Engine) IngestStats() IngestStats {
	rt := e.ing.Load()
	if rt == nil {
		return IngestStats{}
	}
	bs := rt.buf.Stats()
	ls := rt.lc.Stats()
	st := IngestStats{
		Appended:      rt.appended.Load(),
		Coalesced:     bs.Coalesced,
		Blocked:       bs.Blocked,
		PendingCells:  bs.Pending,
		WALReplayed:   rt.replayed,
		Merges:        rt.merges.Load(),
		MergedCells:   rt.mergedCells.Load(),
		SnapshotEpoch: ls.Epoch,
		Published:     ls.Published,
		Live:          ls.Live,
		Pinned:        ls.Pinned,
		Retired:       ls.Retired,
	}
	if rt.wal != nil {
		st.WALBytes = rt.wal.Bytes()
	}
	if err := rt.err(); err != nil {
		st.Degraded = err.Error()
	}
	if pub := rt.watermark(); st.Appended > pub {
		st.LagSeqs = st.Appended - pub
	}
	return st
}

// Flush blocks until every update acknowledged before the call is folded
// into a published snapshot — the read-your-writes barrier for tests and
// for clients that need immediate visibility. A no-op when ingest is off
// (locked writes are immediately visible). Once ingest is degraded it
// returns at once with the error that stopped the merger.
func (e *Engine) Flush() error {
	if rt := e.ing.Load(); rt != nil {
		rt.waitPublished(rt.appended.Load())
		return rt.err()
	}
	return nil
}

// SnapshotEpoch returns the current published snapshot epoch, 0 when ingest
// is not enabled.
func (e *Engine) SnapshotEpoch() uint64 {
	if rt := e.ing.Load(); rt != nil {
		return rt.lc.Current()
	}
	return 0
}

// ingestAppend is the streaming half of Engine.write: assign a sequence to
// the validated, non-zero delta (through the WAL when configured), absorb it
// into the coalescing buffer, return. Visibility comes later, at the next
// publish; Flush() waits for it.
func (rt *ingestRuntime) ingestAppend(vals []float64, idx []int) error {
	if err := rt.err(); err != nil {
		return err
	}
	d := ingest.Delta{Idx: idx, Vals: vals}
	var walBytes uint64
	rt.appendMu.Lock()
	if rt.closed.Load() {
		rt.appendMu.Unlock()
		return ingest.ErrClosed
	}
	if rt.wal != nil {
		before := rt.wal.Bytes()
		seq, err := rt.wal.Append(d)
		if err != nil {
			rt.appendMu.Unlock()
			return err
		}
		d.Seq = seq
		walBytes = rt.wal.Bytes() - before
	} else {
		rt.seqNoWAL++
		d.Seq = rt.seqNoWAL
	}
	rt.appended.Store(d.Seq)
	err := rt.buf.Add(d)
	rt.appendMu.Unlock()
	if err != nil {
		return err
	}
	met := rt.e.core.met.ingest
	met.Appended.Inc()
	met.WALBytes.Add(walBytes)
	return nil
}

// loop is the background merger: wait for dirt, accumulate for Interval
// (short-circuited by Flush/ForcePublish pokes and shutdown), fold, publish.
func (rt *ingestRuntime) loop() {
	defer close(rt.done)
	defer func() {
		rt.pubMu.Lock()
		rt.stopped = true
		rt.pubCond.Broadcast()
		rt.pubMu.Unlock()
	}()
	for {
		select {
		case <-rt.stop:
			rt.mergeOnce()
			return
		case <-rt.flushCh:
			rt.mergeOnce()
		case <-rt.buf.Dirty():
			t := time.NewTimer(rt.opts.Interval)
			select {
			case <-t.C:
				rt.mergeOnce()
			case <-rt.flushCh:
				t.Stop()
				rt.mergeOnce()
			case <-rt.stop:
				t.Stop()
				rt.mergeOnce()
				return
			}
		}
	}
}

// mergeOnce drains the buffer and, under the engine write lock, folds the
// batch into the base engine and publishes a fresh snapshot generation of
// it. Publishing under the write lock serialises snapshots with every other
// mutation (Optimize, Reconfigure, reselection), so a published generation
// always reflects a prefix-consistent engine state. With an empty batch it
// just advances the watermark, unless forcePublish asked for a fresh
// generation (after a reconfigure): a poke left over from a Flush that a
// timer merge already served publishes nothing. A failure to fold or publish
// degrades ingest (degrade) and leaves the last generation published.
func (rt *ingestRuntime) mergeOnce() {
	e := rt.e
	met := e.core.met.ingest
	start := time.Now()

	e.mu.Lock()
	if rt.fault.Load() != nil {
		e.mu.Unlock()
		return
	}
	batch := rt.buf.Drain()
	rt.pubMu.Lock()
	republish := rt.republish
	rt.pubMu.Unlock()
	if len(batch.Deltas) == 0 && !republish {
		e.mu.Unlock()
		rt.pubMu.Lock()
		if batch.Watermark > rt.published {
			rt.published = batch.Watermark
		}
		rt.pubCond.Broadcast()
		rt.pubMu.Unlock()
		return
	}
	// Before the batch, and before a republish without one: no two
	// generations share an array.
	e.core.own()
	for _, d := range batch.Deltas {
		// Validated at append time, so a failure here is a fault of the
		// engine, which may now hold part of the batch.
		if err := e.core.applyDeltaRaw(d.Vals, d.Idx); err != nil {
			rt.degrade(fmt.Errorf("applying a merged delta: %w", err))
			e.mu.Unlock()
			return
		}
	}
	gen, err := e.core.snapshot()
	if err != nil {
		rt.degrade(fmt.Errorf("publishing a snapshot: %w", err))
		e.mu.Unlock()
		return
	}
	rt.pubMu.Lock()
	epoch := rt.lc.Publish(gen)
	// After Publish, never before: a reader that syncs its result cache to
	// the new version must already pin the generation that earned it.
	e.version.Add(1)
	if batch.Watermark > rt.published {
		rt.published = batch.Watermark
	}
	rt.publishSerial++
	rt.republish = false
	rt.pubCond.Broadcast()
	rt.pubMu.Unlock()
	e.mu.Unlock()

	rt.merges.Add(1)
	rt.mergedCells.Add(uint64(len(batch.Deltas)))
	met.Merges.Inc()
	met.MergedCells.Add(uint64(len(batch.Deltas)))
	met.Published.Inc()
	met.SnapshotEpoch.Set(int64(epoch))
	met.PendingCells.Set(int64(rt.buf.Pending()))
	if app, pub := rt.appended.Load(), rt.watermark(); app > pub {
		met.LagSeqs.Set(int64(app - pub))
	} else {
		met.LagSeqs.Set(0)
	}
	met.MergeSeconds.Observe(time.Since(start).Seconds())
}

// degrade records the merge failure that stops ingest: appends and Flush
// fail with it from now on, readers keep the generation published last, the
// viewcube_ingest_degraded gauge reads 1 and waiters are woken.
func (rt *ingestRuntime) degrade(cause error) {
	err := fmt.Errorf("%w: %w", ErrIngestDegraded, cause)
	rt.fault.Store(&err)
	rt.e.core.met.ingest.Degraded.Set(1)
	rt.pubMu.Lock()
	rt.pubCond.Broadcast()
	rt.pubMu.Unlock()
}

// err is the error that degraded ingest, or nil.
func (rt *ingestRuntime) err() error {
	if p := rt.fault.Load(); p != nil {
		return *p
	}
	return nil
}

// watermark returns the publish watermark: every sequence at or below it is
// visible to readers.
func (rt *ingestRuntime) watermark() uint64 {
	rt.pubMu.Lock()
	defer rt.pubMu.Unlock()
	return rt.published
}

// waitPublished blocks until the publish watermark reaches target,
// repeatedly poking the merger so the wait is bounded by merge time rather
// than the accumulation interval.
func (rt *ingestRuntime) waitPublished(target uint64) {
	rt.pubMu.Lock()
	for rt.published < target && !rt.stopped && rt.fault.Load() == nil {
		select {
		case rt.flushCh <- struct{}{}:
		default:
		}
		rt.pubCond.Wait()
	}
	rt.pubMu.Unlock()
}

// forcePublish blocks until a snapshot generation published after the call
// — the barrier Engine.mutate uses so readers stop pinning a pre-mutation
// generation. Call without holding e.mu (the merger needs it to publish).
func (rt *ingestRuntime) forcePublish() {
	rt.pubMu.Lock()
	serial := rt.publishSerial
	rt.republish = true
	for rt.publishSerial == serial && !rt.stopped && rt.fault.Load() == nil {
		select {
		case rt.flushCh <- struct{}{}:
		default:
		}
		rt.pubCond.Wait()
	}
	rt.pubMu.Unlock()
}
