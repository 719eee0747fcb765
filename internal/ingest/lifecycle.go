package ingest

import "sync"

// Lifecycle manages epoch-versioned immutable snapshots with the
// publish → drain → retire state machine (DESIGN §16). Publish installs a
// new current snapshot; readers Acquire the current one and hold it for a
// whole query; a superseded snapshot drains until its last reader releases
// it, then retires — the lifecycle drops its payload and hands it, once, to
// an optional callback, which may reclaim it (the ingest runtime recycles a
// retired generation's arrays). The refcounting mirrors the
// catalog's lease discipline, generalising the plan cache's epoch counter
// from "a number that changed" into a full snapshot lifecycle.
type Lifecycle[T any] struct {
	mu       sync.Mutex
	current  *Snapshot[T]
	epoch    uint64
	live     int // published, not yet retired
	retired  uint64
	onRetire func(epoch uint64, payload T)
}

// Snapshot is one refcounted generation. The zero refcount plus loss of
// currency triggers retirement.
type Snapshot[T any] struct {
	lc      *Lifecycle[T]
	payload T
	epoch   uint64
	refs    int
	isCur   bool
	dead    bool
}

// LifecycleStats is a point-in-time snapshot of the lifecycle counters.
type LifecycleStats struct {
	Epoch     uint64 // epoch of the current snapshot
	Published uint64 // total snapshots ever published
	Live      int    // snapshots not yet retired (current included)
	Pinned    int    // readers holding the current snapshot
	Retired   uint64 // snapshots fully retired
}

// NewLifecycle starts the lifecycle with first as the current snapshot at
// epoch 1. onRetire, when non-nil, is invoked (outside the lifecycle lock)
// with the epoch and payload of each snapshot as it retires: exactly once
// per snapshot, after its last Release, when no reader can reach the
// payload any more.
func NewLifecycle[T any](first T, onRetire func(epoch uint64, payload T)) *Lifecycle[T] {
	lc := &Lifecycle[T]{onRetire: onRetire}
	lc.Publish(first)
	return lc
}

// Acquire pins the current snapshot and returns it. The caller must Release
// it exactly once when the read finishes.
func (lc *Lifecycle[T]) Acquire() *Snapshot[T] {
	lc.mu.Lock()
	s := lc.current
	s.refs++
	lc.mu.Unlock()
	return s
}

// Payload returns the snapshot's payload.
func (s *Snapshot[T]) Payload() T { return s.payload }

// Epoch returns the snapshot's epoch.
func (s *Snapshot[T]) Epoch() uint64 { return s.epoch }

// Release unpins the snapshot, retiring it if it was the last pin on a
// superseded generation.
func (s *Snapshot[T]) Release() {
	lc := s.lc
	lc.mu.Lock()
	s.refs--
	payload, retire := lc.maybeRetire(s)
	lc.mu.Unlock()
	if retire && lc.onRetire != nil {
		lc.onRetire(s.epoch, payload)
	}
}

// Publish installs payload as the new current snapshot and returns its
// epoch. The superseded snapshot drains: it retires as soon as (possibly
// immediately) no reader holds it.
func (lc *Lifecycle[T]) Publish(payload T) uint64 {
	lc.mu.Lock()
	prev := lc.current
	lc.epoch++
	lc.current = &Snapshot[T]{lc: lc, payload: payload, epoch: lc.epoch, isCur: true}
	lc.live++
	epoch := lc.epoch
	var old T
	retire := false
	if prev != nil {
		prev.isCur = false
		old, retire = lc.maybeRetire(prev)
	}
	lc.mu.Unlock()
	if retire && lc.onRetire != nil {
		lc.onRetire(prev.epoch, old)
	}
	return epoch
}

// maybeRetire retires s when it is unpinned and no longer current: s drops
// its payload and returns it for the retire callback. Caller holds lc.mu;
// reports whether s retired on this call.
func (lc *Lifecycle[T]) maybeRetire(s *Snapshot[T]) (T, bool) {
	var zero T
	if s.dead || s.isCur || s.refs > 0 {
		return zero, false
	}
	s.dead = true
	payload := s.payload
	s.payload = zero
	lc.live--
	lc.retired++
	return payload, true
}

// Current returns the current snapshot's epoch without pinning it.
func (lc *Lifecycle[T]) Current() uint64 {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return lc.epoch
}

// Stats snapshots the lifecycle counters.
func (lc *Lifecycle[T]) Stats() LifecycleStats {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	st := LifecycleStats{Epoch: lc.epoch, Published: lc.epoch, Live: lc.live, Retired: lc.retired}
	if lc.current != nil {
		st.Pinned = lc.current.refs
	}
	return st
}
