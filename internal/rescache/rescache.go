// Package rescache is the one epoch-keyed cache of the read path. Every
// cached value in the serving stack is a pure function of some state plus a
// key — a compiled plan of the materialised set, an answer of the cube or
// the shard tier — so "valid until that state changes" is the whole
// contract, stated once here:
//
//   - every entry is tagged with the epoch observed *before* its
//     computation started, and a lookup serves an entry only at the epoch
//     the caller observed;
//   - Invalidate (or an observed upstream change via SyncUpstream) bumps the
//     epoch and drops every entry under the same lock, and a computation
//     whose epoch is no longer current when it finishes is returned to its
//     callers but never stored — so nothing computed before an invalidation
//     is served after it;
//   - misses for one key are single-flighted on {epoch, key}: one caller
//     computes, racing callers of the same epoch wait and share the value,
//     and a caller that observed the post-invalidation epoch never joins a
//     flight started before it;
//   - GetOrComputeAt takes the epoch from the caller, so a reader pinned to
//     an older epoch (a draining snapshot generation) neither serves nor
//     stores anything under the current one.
//
// Since the epoch only moves forward and every value derives from one epoch
// observation taken before its computation began, cache-on answers are
// bit-identical to cache-off answers. Every cache keeps its entries in LRU
// order under one mutex, which a hit takes to promote its entry; the
// bounds (entries, bytes) decide when the cold end is evicted.
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

// Cache is an epoch-invalidated, singleflight-deduplicated LRU cache. All
// methods are safe for concurrent use; the nil *Cache is a valid always-miss
// cache that never stores (so serving paths can wire it unconditionally and
// gate on a single nil check).
type Cache[K comparable, V any] struct {
	epoch    atomic.Uint64
	upstream atomic.Uint64 // last upstream epoch observed by SyncUpstream

	mu      sync.Mutex
	entries map[K]*item[K, V]
	lru     *list.List // front = most recent
	bytes   int64

	fmu      sync.Mutex
	inflight map[flightKey[K]]*flight[V]

	opt Options
	met *obs.CacheMetrics // backs Stats; private counters until SetMetrics
}

// item is one entry; immutable once stored, so a reader may use it after
// dropping the lock.
type item[K comparable, V any] struct {
	key   K
	epoch uint64
	val   V
	size  int64
	el    *list.Element // LRU slot
}

// flightKey includes the epoch so a computation started before an
// invalidation is never joined by callers from the new epoch.
type flightKey[K comparable] struct {
	epoch uint64
	key   K
}

type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// New returns an empty cache at epoch 0 whose counters are its own until
// SetMetrics attaches registered ones.
func New[K comparable, V any](opt Options) *Cache[K, V] {
	if opt.MaxEntries == 0 {
		opt.MaxEntries = DefaultMaxEntries
	}
	if opt.MaxBytes == 0 {
		opt.MaxBytes = DefaultMaxBytes
	}
	return &Cache[K, V]{
		entries:  make(map[K]*item[K, V]),
		lru:      list.New(),
		inflight: make(map[flightKey[K]]*flight[V]),
		opt:      opt,
		met:      privateMetrics(),
	}
}

// privateMetrics is an unregistered counter set: Stats work without a
// registry, and nothing is exported.
func privateMetrics() *obs.CacheMetrics {
	return &obs.CacheMetrics{Hits: new(obs.Counter), Misses: new(obs.Counter),
		Evictions: new(obs.Counter), Invalidations: new(obs.Counter)}
}

// SetMetrics attaches registered instruments, which then back Stats as
// well; nil restores a private set. Caches given the same instruments
// report their summed counts. Call during wiring, before the cache is
// shared across goroutines. Safe on nil.
func (c *Cache[K, V]) SetMetrics(m *obs.CacheMetrics) {
	if c == nil {
		return
	}
	if m == nil {
		m = privateMetrics()
	}
	c.met = m
}

// Epoch returns the current epoch. Safe on nil.
func (c *Cache[K, V]) Epoch() uint64 {
	if c == nil {
		return 0
	}
	return c.epoch.Load()
}

// Invalidate bumps the epoch and drops every entry. Call it whenever the
// state the values were computed from changes (an update mutated cells, a
// reselection rewrote the materialised set, a rebuild swapped the cube
// generation). Returns the new epoch. Safe on nil (returns 0) and safe to
// call concurrently with readers: computations from the old epoch finish
// and reach their callers but are never stored.
func (c *Cache[K, V]) Invalidate() uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.invalidateLocked()
}

// invalidateLocked bumps the epoch and clears the entries. Caller holds c.mu.
func (c *Cache[K, V]) invalidateLocked() uint64 {
	n := c.epoch.Add(1)
	c.met.Bytes.Add(-c.bytes)
	c.met.Entries.Add(-int64(len(c.entries)))
	c.entries = make(map[K]*item[K, V])
	c.lru.Init()
	c.bytes = 0
	c.met.Invalidations.Inc()
	return n
}

// SyncUpstream observes the authoritative upstream version — typically the
// serving engine's DataVersion, which every mutation moves. When the
// observed value differs from the last observation the cache invalidates, so
// values derived from pre-change state become unreachable without the
// mutation paths needing to know this cache exists. Call it before
// GetOrCompute on every query. Safe on nil.
func (c *Cache[K, V]) SyncUpstream(upstream uint64) {
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
func (c *Cache[K, V]) get(epoch uint64, key K) (V, bool) {
	c.mu.Lock()
	it := c.entries[key]
	hit := it != nil && it.epoch == epoch
	if hit {
		c.lru.MoveToFront(it.el)
	}
	c.mu.Unlock()
	if !hit {
		var zero V
		return zero, false
	}
	return it.val, true
}

// store inserts val under key tagged with its compute-start epoch — unless
// that epoch is no longer current — then evicts from the cold end until the
// cache is back inside its bounds. Values whose size function reports
// negative are not stored.
func (c *Cache[K, V]) store(epoch uint64, key K, val V) {
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
	defer c.mu.Unlock()
	if epoch != c.epoch.Load() {
		return // invalidated while computing: unreachable, so not stored
	}
	if old := c.entries[key]; old != nil {
		c.removeLocked(old)
	}
	it := &item[K, V]{key: key, epoch: epoch, val: val, size: size}
	it.el = c.lru.PushFront(it)
	c.entries[key] = it
	c.bytes += size
	c.met.Bytes.Add(size)
	c.met.Entries.Add(1)
	for (c.opt.MaxEntries > 0 && len(c.entries) > c.opt.MaxEntries) ||
		(c.opt.MaxBytes > 0 && c.bytes > c.opt.MaxBytes) {
		cold := c.lru.Back()
		if cold == it.el {
			break
		}
		c.removeLocked(cold.Value.(*item[K, V]))
		c.met.Evictions.Inc()
	}
}

// removeLocked drops one entry. Caller holds c.mu.
func (c *Cache[K, V]) removeLocked(it *item[K, V]) {
	delete(c.entries, it.key)
	c.lru.Remove(it.el)
	c.bytes -= it.size
	c.met.Bytes.Add(-it.size)
	c.met.Entries.Add(-1)
}

// GetOrCompute is GetOrComputeAt at the current epoch.
func (c *Cache[K, V]) GetOrCompute(key K, compute func() (V, error)) (val V, hit bool, err error) {
	return c.GetOrComputeAt(c.Epoch(), key, compute)
}

// GetOrComputeAt returns the value for key cached at epoch, computing and
// caching it on a miss. hit reports whether compute was skipped entirely — a
// cache hit, or a coalesced wait on another caller's identical in-flight
// computation (which counts as a miss in Stats). Errors propagate to every
// coalesced caller and nothing is cached. Cached values are shared across
// callers and must be treated as read-only.
//
// The lookup, the flight and the stored entry all use epoch, so a caller
// pinned to an epoch the cache has since left computes uncached. Safe on a
// nil receiver: compute runs and nothing is cached (hit false).
func (c *Cache[K, V]) GetOrComputeAt(epoch uint64, key K, compute func() (V, error)) (val V, hit bool, err error) {
	if c == nil {
		val, err = compute()
		return val, false, err
	}
	if v, ok := c.get(epoch, key); ok {
		c.met.Hits.Inc()
		return v, true, nil
	}
	c.met.Misses.Inc()
	fk := flightKey[K]{epoch: epoch, key: key}
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
		c.store(epoch, key, f.val)
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

// Stats snapshots the counters, the live size and the epoch. Safe on nil.
func (c *Cache[K, V]) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	entries, bytes := len(c.entries), c.bytes
	c.mu.Unlock()
	return Stats{
		Hits:          c.met.Hits.Value(),
		Misses:        c.met.Misses.Value(),
		Evictions:     c.met.Evictions.Value(),
		Invalidations: c.met.Invalidations.Value(),
		Epoch:         c.Epoch(),
		Entries:       entries,
		Bytes:         bytes,
	}
}
