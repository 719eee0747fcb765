// Package store provides a durable, file-backed view element store with a
// bounded in-memory LRU cache. MOLAP systems keep the cube and its
// materialised elements on disk; this package is that substrate for the
// reproduction: each element is one self-describing binary file (magic,
// version, element identity, shape, payload, CRC32), and the store
// implements the same interface as the in-memory store of package assembly
// so engines can run off either.
package store

import (
	"container/list"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"viewcube/internal/freq"
	"viewcube/internal/ndarray"
	"viewcube/internal/obs"
)

const (
	magic   = "VCEL"
	version = 1
	fileExt = ".vce"
)

// ErrCorrupt reports a damaged element file.
var ErrCorrupt = errors.New("store: corrupt element file")

// WriteElement serialises one view element. Layout (little endian):
//
//	magic[4] version:u16 rank:u16 nodes[rank]:u32 shape[rank]:u32
//	cells:u64 data[cells]:f64 crc:u32
//
// The CRC covers everything before it.
func WriteElement(w io.Writer, r freq.Rect, a *ndarray.Array) error {
	if len(r) != a.Rank() {
		return fmt.Errorf("store: rect rank %d does not match array rank %d", len(r), a.Rank())
	}
	crc := crc32.NewIEEE()
	mw := io.MultiWriter(w, crc)
	if _, err := mw.Write([]byte(magic)); err != nil {
		return err
	}
	hdr := []any{uint16(version), uint16(len(r))}
	for _, v := range hdr {
		if err := binary.Write(mw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	for _, n := range r {
		if err := binary.Write(mw, binary.LittleEndian, uint32(n)); err != nil {
			return err
		}
	}
	for _, n := range a.Shape() {
		if err := binary.Write(mw, binary.LittleEndian, uint32(n)); err != nil {
			return err
		}
	}
	if err := binary.Write(mw, binary.LittleEndian, uint64(a.Size())); err != nil {
		return err
	}
	buf := make([]byte, 8*a.Size())
	for i, v := range a.Data() {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	if _, err := mw.Write(buf); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, crc.Sum32())
}

// ReadElement deserialises one view element, verifying magic, version and
// checksum.
func ReadElement(rd io.Reader) (freq.Rect, *ndarray.Array, error) {
	crc := crc32.NewIEEE()
	tr := io.TeeReader(rd, crc)
	head := make([]byte, 4)
	if _, err := io.ReadFull(tr, head); err != nil {
		return nil, nil, fmt.Errorf("%w: short magic: %v", ErrCorrupt, err)
	}
	if string(head) != magic {
		return nil, nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, head)
	}
	var ver, rank uint16
	if err := binary.Read(tr, binary.LittleEndian, &ver); err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if ver != version {
		return nil, nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, ver)
	}
	if err := binary.Read(tr, binary.LittleEndian, &rank); err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if rank == 0 || rank > 8 {
		return nil, nil, fmt.Errorf("%w: implausible rank %d", ErrCorrupt, rank)
	}
	rect := make(freq.Rect, rank)
	for m := range rect {
		var n uint32
		if err := binary.Read(tr, binary.LittleEndian, &n); err != nil {
			return nil, nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		if n == 0 {
			return nil, nil, fmt.Errorf("%w: zero node", ErrCorrupt)
		}
		rect[m] = freq.Node(n)
	}
	shape := make([]int, rank)
	cellsWant := 1
	for m := range shape {
		var n uint32
		if err := binary.Read(tr, binary.LittleEndian, &n); err != nil {
			return nil, nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		if n == 0 || n > 1<<24 {
			return nil, nil, fmt.Errorf("%w: implausible extent %d", ErrCorrupt, n)
		}
		shape[m] = int(n)
		cellsWant *= int(n)
	}
	var cells uint64
	if err := binary.Read(tr, binary.LittleEndian, &cells); err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if cells != uint64(cellsWant) {
		return nil, nil, fmt.Errorf("%w: cell count %d does not match shape %v", ErrCorrupt, cells, shape)
	}
	buf := make([]byte, 8*cells)
	if _, err := io.ReadFull(tr, buf); err != nil {
		return nil, nil, fmt.Errorf("%w: short payload: %v", ErrCorrupt, err)
	}
	data := make([]float64, cells)
	for i := range data {
		data[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	want := crc.Sum32()
	var got uint32
	if err := binary.Read(rd, binary.LittleEndian, &got); err != nil {
		return nil, nil, fmt.Errorf("%w: short checksum: %v", ErrCorrupt, err)
	}
	if got != want {
		return nil, nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	a, err := ndarray.NewFrom(data, shape...)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return rect, a, nil
}

// fileName encodes an element identity as a filename, e.g. "2-5-1.vce".
func fileName(r freq.Rect) string {
	parts := make([]string, len(r))
	for m, n := range r {
		parts[m] = strconv.FormatUint(uint64(n), 10)
	}
	return strings.Join(parts, "-") + fileExt
}

// parseFileName inverts fileName; ok=false for foreign files.
func parseFileName(name string) (freq.Rect, bool) {
	if !strings.HasSuffix(name, fileExt) {
		return nil, false
	}
	parts := strings.Split(strings.TrimSuffix(name, fileExt), "-")
	if len(parts) == 0 || len(parts) > 8 {
		return nil, false
	}
	r := make(freq.Rect, len(parts))
	for m, p := range parts {
		n, err := strconv.ParseUint(p, 10, 32)
		if err != nil || n == 0 {
			return nil, false
		}
		r[m] = freq.Node(n)
	}
	return r, true
}

// FileStore is a directory of element files with an LRU read cache bounded
// by a cell budget. It implements assembly.Store (and assembly.CtxStore for
// traced reads).
//
// Gets are safe for concurrent callers: the index, LRU list and cache maps
// are guarded by an internal mutex and the hit/miss/eviction counters are
// atomics, so the incidental bookkeeping a read performs never races.
// Mutations (Put, Delete) still require external serialisation against
// each other — concurrent readers during a mutation are only safe when the
// caller enforces a read/write discipline (e.g. viewcube.Engine's write
// lock).
type FileStore struct {
	dir string

	mu          sync.Mutex // guards index, lru, cache, cacheCells
	index       map[freq.Key]bool
	cacheBudget int // max cached cells; 0 disables caching
	cacheCells  int
	lru         *list.List // front = most recent; values are *cacheEntry
	cache       map[freq.Key]*list.Element

	hits, misses, evictions atomic.Int64

	met *obs.StoreMetrics
}

type cacheEntry struct {
	key freq.Key
	arr *ndarray.Array
}

// Open opens (or creates) a file store in dir. cacheBudget bounds the
// in-memory cache in cells; 0 disables caching.
func Open(dir string, cacheBudget int) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	fs := &FileStore{
		dir:         dir,
		index:       make(map[freq.Key]bool),
		cacheBudget: cacheBudget,
		lru:         list.New(),
		cache:       make(map[freq.Key]*list.Element),
		met:         obs.NewStoreMetrics(nil),
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: scanning %s: %w", dir, err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if r, ok := parseFileName(e.Name()); ok {
			fs.index[r.Key()] = true
		}
	}
	return fs, nil
}

// Dir returns the store's directory.
func (fs *FileStore) Dir() string { return fs.dir }

// SetMetrics attaches registered instruments; nil restores the no-op set.
func (fs *FileStore) SetMetrics(m *obs.StoreMetrics) {
	if m == nil {
		m = obs.NewStoreMetrics(nil)
	}
	fs.met = m
}

// Len returns the number of stored elements.
func (fs *FileStore) Len() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return len(fs.index)
}

// Hits returns the number of cache hits served so far.
func (fs *FileStore) Hits() int { return int(fs.hits.Load()) }

// Misses returns the number of cache misses (reads that fell to disk).
func (fs *FileStore) Misses() int { return int(fs.misses.Load()) }

// Evictions returns the number of cache evictions performed.
func (fs *FileStore) Evictions() int { return int(fs.evictions.Load()) }

// Get implements assembly.Store: cache first, then disk.
func (fs *FileStore) Get(r freq.Rect) (*ndarray.Array, bool) {
	return fs.GetCtx(nil, r)
}

// ClonesOnGet implements assembly.CloningStore: every Get/GetCtx result is
// already a private copy (see GetCtx), so the read kernel may take
// ownership of it without copying again.
func (fs *FileStore) ClonesOnGet() bool { return true }

// GetCtx is Get with per-query tracing (assembly.CtxStore): under a span
// (nil means untraced), the read records a "store.get" child with its cache
// outcome.
//
// The returned array is always a private copy: the cached arrays are shared
// across every concurrent reader, so handing out an aliased slice would let
// one caller's mutation corrupt every later read of the same element.
func (fs *FileStore) GetCtx(sp *obs.Span, r freq.Rect) (*ndarray.Array, bool) {
	k := r.Key()
	fs.mu.Lock()
	if !fs.index[k] {
		fs.mu.Unlock()
		return nil, false
	}
	var cached *ndarray.Array
	if el, ok := fs.cache[k]; ok {
		fs.lru.MoveToFront(el)
		cached = el.Value.(*cacheEntry).arr
	}
	fs.mu.Unlock()

	if sp != nil { // the name costs a concatenation: traced reads only
		sp = sp.Start("store.get " + r.String())
		defer sp.End()
	}
	if cached != nil {
		fs.hits.Add(1)
		fs.met.CacheHits.Inc()
		sp.SetAttr("cache_hit", 1)
		sp.SetAttr("cells", int64(cached.Size()))
		return cached.Clone(), true
	}
	fs.misses.Add(1)
	fs.met.CacheMisses.Inc()
	sp.SetAttr("cache_hit", 0)
	f, err := os.Open(filepath.Join(fs.dir, fileName(r)))
	if err != nil {
		return nil, false
	}
	defer f.Close()
	gotRect, a, err := ReadElement(f)
	if err != nil || !gotRect.Equal(r) {
		return nil, false
	}
	fs.met.DiskReads.Inc()
	sp.SetAttr("cells", int64(a.Size()))
	fs.mu.Lock()
	admitted := fs.admitLocked(k, a)
	fs.mu.Unlock()
	if admitted {
		// The cache now owns a; give the caller its own copy.
		return a.Clone(), true
	}
	return a, true
}

// admitLocked inserts a into the cache, evicting from the LRU tail to stay
// within budget, and reports whether a is now cache-owned. fs.mu must be
// held.
func (fs *FileStore) admitLocked(k freq.Key, a *ndarray.Array) bool {
	if fs.cacheBudget <= 0 || a.Size() > fs.cacheBudget {
		return false
	}
	if el, ok := fs.cache[k]; ok {
		fs.cacheCells -= el.Value.(*cacheEntry).arr.Size()
		fs.lru.Remove(el)
		delete(fs.cache, k)
	}
	for fs.cacheCells+a.Size() > fs.cacheBudget {
		back := fs.lru.Back()
		if back == nil {
			break
		}
		ent := back.Value.(*cacheEntry)
		fs.cacheCells -= ent.arr.Size()
		fs.lru.Remove(back)
		delete(fs.cache, ent.key)
		fs.evictions.Add(1)
		fs.met.Evictions.Inc()
	}
	fs.cache[k] = fs.lru.PushFront(&cacheEntry{key: k, arr: a})
	fs.cacheCells += a.Size()
	fs.met.CachedCells.Set(int64(fs.cacheCells))
	return true
}

// Put implements assembly.Store: write-through to disk. The store takes
// ownership of a (it may be retained in the cache); callers must not
// mutate it afterwards.
func (fs *FileStore) Put(r freq.Rect, a *ndarray.Array) error {
	path := filepath.Join(fs.dir, fileName(r))
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("store: creating %s: %w", tmp, err)
	}
	if err := WriteElement(f, r, a); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: writing %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: committing %s: %w", path, err)
	}
	k := r.Key()
	fs.mu.Lock()
	fs.index[k] = true
	fs.admitLocked(k, a)
	fs.mu.Unlock()
	fs.met.DiskWrites.Inc()
	return nil
}

// Delete implements assembly.Store.
func (fs *FileStore) Delete(r freq.Rect) error {
	k := r.Key()
	fs.mu.Lock()
	if !fs.index[k] {
		fs.mu.Unlock()
		return nil
	}
	delete(fs.index, k)
	if el, ok := fs.cache[k]; ok {
		fs.cacheCells -= el.Value.(*cacheEntry).arr.Size()
		fs.lru.Remove(el)
		delete(fs.cache, k)
		fs.met.CachedCells.Set(int64(fs.cacheCells))
	}
	fs.mu.Unlock()
	if err := os.Remove(filepath.Join(fs.dir, fileName(r))); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: deleting %v: %w", r, err)
	}
	return nil
}

// Elements implements assembly.Store, returning stored identities in a
// deterministic order.
func (fs *FileStore) Elements() []freq.Rect {
	fs.mu.Lock()
	out := make([]freq.Rect, 0, len(fs.index))
	for k := range fs.index {
		out = append(out, k.Rect())
	}
	fs.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for m := range a {
			if a[m] != b[m] {
				return a[m] < b[m]
			}
		}
		return false
	})
	return out
}

// CachedCells returns the number of cells currently held in memory.
func (fs *FileStore) CachedCells() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.cacheCells
}
