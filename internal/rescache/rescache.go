// Package rescache is the serving tier's answer cache: a generic,
// size-bounded (bytes and entries, LRU) cache of fully computed query
// results keyed by normalized query shape, with the same epoch-invalidation
// discipline as the plan cache (internal/plan.Cache) one layer below it.
//
// The plan cache amortises *compilation* — the Procedure 3 DP that turns a
// query shape into an executable plan — but the answer itself is still
// re-executed and re-scattered on every request. Under repeat-heavy traffic
// the answer is the thing worth keeping: a hit here skips planning,
// execution and scatter-gather entirely and costs one map lookup.
//
// Correctness mirrors the plan cache's epoch monotonicity argument:
//
//   - every entry is tagged with the epoch current when its computation
//     *started*;
//   - Invalidate (or an observed upstream epoch change via SyncUpstream)
//     bumps the epoch and drops every entry under the same lock, so an
//     entry tagged with an older epoch is never served again — even if its
//     computation raced the invalidation and stored afterwards;
//   - in-flight computations are keyed by {epoch, key}, so a caller that
//     observes the post-invalidation epoch can never join a flight started
//     before it (the post-invalidation-never-joins-stale-flights
//     guarantee).
//
// Since the epoch only moves forward and every cached value derives from a
// single epoch observation taken before its computation began, a served
// value is always one that was computed entirely within the epoch the
// caller observed: cache-on answers are bit-identical to cache-off answers.
package rescache

import (
	"container/list"
	"sync"
	"sync/atomic"

	"viewcube/internal/obs"
)

// Options bounds a cache. Zero values pick the defaults.
type Options struct {
	// MaxEntries bounds the number of live entries. 0 defaults to 4096;
	// negative disables the entry bound.
	MaxEntries int
	// MaxBytes bounds the total estimated size of cached values. 0 defaults
	// to 64 MiB; negative disables the byte bound.
	MaxBytes int64
	// Size estimates one value's footprint in bytes. nil counts every value
	// as 1 (the cache degenerates to an entry-bounded LRU). A negative size
	// marks a value uncacheable: it is returned to callers (and coalesced
	// waiters) but never stored — how the coordinator keeps degraded partial
	// answers out of the cache.
	Size func(v any) int
}

const (
	// DefaultMaxEntries bounds entries when Options.MaxEntries is zero.
	DefaultMaxEntries = 4096
	// DefaultMaxBytes bounds bytes when Options.MaxBytes is zero.
	DefaultMaxBytes = 64 << 20
)

// Cache is an epoch-invalidated, size-bounded, singleflight-deduplicated
// result cache. All methods are safe for concurrent use; the nil *Cache is
// a valid always-miss cache that never stores (so serving paths can wire it
// unconditionally and gate on a single nil check).
type Cache[V any] struct {
	epoch    atomic.Uint64
	upstream atomic.Uint64 // last upstream epoch observed by SyncUpstream

	// Own counters back Stats(); met mirrors them into a Registry when one
	// is wired (the default metrics set is no-op and holds nothing).
	hits          atomic.Uint64
	misses        atomic.Uint64
	evictions     atomic.Uint64
	invalidations atomic.Uint64

	mu      sync.Mutex
	entries map[string]*list.Element
	lru     *list.List // front = most recent
	bytes   int64

	fmu      sync.Mutex
	inflight map[flightKey]*flight[V]

	opt Options
	met *obs.ResultCacheMetrics
}

// item is one LRU slot.
type item[V any] struct {
	key   string
	epoch uint64
	val   V
	size  int64
}

// flightKey includes the epoch so a computation started before an
// invalidation is never joined by callers from the new epoch.
type flightKey struct {
	epoch uint64
	key   string
}

type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// New returns an empty cache at epoch 0 with no-op metrics.
func New[V any](opt Options) *Cache[V] {
	if opt.MaxEntries == 0 {
		opt.MaxEntries = DefaultMaxEntries
	}
	if opt.MaxBytes == 0 {
		opt.MaxBytes = DefaultMaxBytes
	}
	return &Cache[V]{
		entries:  make(map[string]*list.Element),
		lru:      list.New(),
		inflight: make(map[flightKey]*flight[V]),
		opt:      opt,
		met:      obs.NewResultCacheMetrics(nil),
	}
}

// SetMetrics attaches registered instruments; nil restores the no-op set.
// Call during wiring, before the cache is shared across goroutines. Safe on
// nil.
func (c *Cache[V]) SetMetrics(m *obs.ResultCacheMetrics) {
	if c == nil {
		return
	}
	if m == nil {
		m = obs.NewResultCacheMetrics(nil)
	}
	c.met = m
}

// Epoch returns the current epoch. Safe on nil.
func (c *Cache[V]) Epoch() uint64 {
	if c == nil {
		return 0
	}
	return c.epoch.Load()
}

// Len returns the number of live entries. Safe on nil.
func (c *Cache[V]) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Bytes returns the estimated size of all live entries. Safe on nil.
func (c *Cache[V]) Bytes() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Invalidate bumps the epoch and drops every entry. Call it whenever the
// state answers were computed from changes (an update mutated cells, a
// reselection rewrote the materialised set, a rebuild swapped the cube
// generation). Returns the new epoch. Safe on nil (returns 0) and safe to
// call concurrently with readers: computations from the old epoch finish
// but their results are tagged stale and never served.
func (c *Cache[V]) Invalidate() uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	n := c.invalidateLocked()
	c.mu.Unlock()
	return n
}

// invalidateLocked bumps the epoch and clears the LRU. Caller holds c.mu.
func (c *Cache[V]) invalidateLocked() uint64 {
	n := c.epoch.Add(1)
	c.entries = make(map[string]*list.Element)
	c.lru.Init()
	c.bytes = 0
	c.met.Bytes.Set(0)
	c.met.Entries.Set(0)
	c.invalidations.Add(1)
	c.met.Invalidations.Inc()
	return n
}

// SyncUpstream observes the authoritative upstream epoch — typically the
// serving engine's plan-cache epoch, which Update/Optimize/Reconfigure
// already bump under the engine's write lock. When the observed value
// differs from the last observation the cache invalidates, so answers
// derived from pre-change state become unreachable without the mutation
// paths needing to know this cache exists. Call it before GetOrCompute on
// every query. Safe on nil.
func (c *Cache[V]) SyncUpstream(upstream uint64) {
	if c == nil || c.upstream.Load() == upstream {
		return
	}
	c.mu.Lock()
	if c.upstream.Load() != upstream {
		c.upstream.Store(upstream)
		c.invalidateLocked()
	}
	c.mu.Unlock()
}

// get returns the entry for key if it exists at the given epoch, marking it
// most recently used.
func (c *Cache[V]) get(epoch uint64, key string) (V, bool) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		it := el.Value.(*item[V])
		if it.epoch == epoch {
			c.lru.MoveToFront(el)
			c.mu.Unlock()
			return it.val, true
		}
	}
	c.mu.Unlock()
	var zero V
	return zero, false
}

// store inserts val under key tagged with its compute-start epoch, then
// evicts from the cold end until the cache is back inside its bounds.
// Values whose size function reports negative are not stored.
func (c *Cache[V]) store(epoch uint64, key string, val V) {
	size := int64(1)
	if c.opt.Size != nil {
		s := c.opt.Size(val)
		if s < 0 {
			return
		}
		size = int64(s)
	}
	if c.opt.MaxBytes > 0 && size > c.opt.MaxBytes {
		// An oversized value would evict the whole cache for one entry that
		// itself cannot stay; keep the working set instead.
		return
	}
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		// A racing flight from an older epoch (or a re-store) already holds
		// the slot; replace it in place.
		it := el.Value.(*item[V])
		c.bytes -= it.size
		c.lru.Remove(el)
		delete(c.entries, key)
	}
	el := c.lru.PushFront(&item[V]{key: key, epoch: epoch, val: val, size: size})
	c.entries[key] = el
	c.bytes += size
	for (c.opt.MaxEntries > 0 && len(c.entries) > c.opt.MaxEntries) ||
		(c.opt.MaxBytes > 0 && c.bytes > c.opt.MaxBytes) {
		cold := c.lru.Back()
		if cold == nil || cold == el && len(c.entries) == 1 {
			break
		}
		it := cold.Value.(*item[V])
		c.lru.Remove(cold)
		delete(c.entries, it.key)
		c.bytes -= it.size
		c.evictions.Add(1)
		c.met.Evictions.Inc()
	}
	c.met.Bytes.Set(c.bytes)
	c.met.Entries.Set(int64(len(c.entries)))
	c.mu.Unlock()
}

// GetOrCompute returns the cached value for key at the current epoch,
// computing, caching and LRU-promoting it on a miss. hit reports whether
// compute was skipped entirely — a cache hit, or a coalesced wait on
// another caller's identical in-flight computation (singleflight: N
// identical concurrent queries execute the underlying work exactly once).
// Errors propagate to every coalesced caller and nothing is cached. Cached
// values are shared across callers and must be treated as read-only.
//
// Safe on a nil receiver: compute runs and nothing is cached (hit false).
func (c *Cache[V]) GetOrCompute(key string, compute func() (V, error)) (val V, hit bool, err error) {
	if c == nil {
		val, err = compute()
		return val, false, err
	}
	// The epoch is observed BEFORE the value is computed: if an invalidation
	// lands in between, the entry is tagged with the old epoch and never
	// served — the monotonicity invariant every correctness claim rests on.
	epoch := c.epoch.Load()
	if v, ok := c.get(epoch, key); ok {
		c.hits.Add(1)
		c.met.Hits.Inc()
		return v, true, nil
	}
	c.misses.Add(1)
	c.met.Misses.Inc()
	fk := flightKey{epoch: epoch, key: key}
	c.fmu.Lock()
	if f, ok := c.inflight[fk]; ok {
		c.fmu.Unlock()
		<-f.done
		return f.val, f.err == nil, f.err
	}
	// A flight stores its value before it leaves the table, so a caller whose
	// lookup missed while that flight was finishing finds the value here
	// instead of computing it a second time.
	if v, ok := c.get(epoch, key); ok {
		c.fmu.Unlock()
		return v, true, nil
	}
	f := &flight[V]{done: make(chan struct{})}
	c.inflight[fk] = f
	c.fmu.Unlock()

	f.val, f.err = compute()
	if f.err == nil {
		c.store(epoch, fk.key, f.val)
	}
	close(f.done)
	c.fmu.Lock()
	delete(c.inflight, fk)
	c.fmu.Unlock()
	return f.val, false, f.err
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Evictions     uint64 `json:"evictions"`
	Invalidations uint64 `json:"invalidations"`
	Epoch         uint64 `json:"epoch"`
	Entries       int    `json:"entries"`
	Bytes         int64  `json:"bytes"`
}

// Stats snapshots the cache counters, size and epoch. Safe on nil.
func (c *Cache[V]) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	entries, bytes := len(c.entries), c.bytes
	c.mu.Unlock()
	return Stats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Evictions:     c.evictions.Load(),
		Invalidations: c.invalidations.Load(),
		Epoch:         c.Epoch(),
		Entries:       entries,
		Bytes:         bytes,
	}
}
