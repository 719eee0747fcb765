// Package assembly turns the cost-model machinery of package core into an
// operational engine: it materialises selected view elements from a data
// cube and answers view-element queries by dynamically assembling them —
// aggregating stored elements down the element graph and synthesising
// parents from partial/residual children via perfect reconstruction. This
// is the "dynamic assembly of views" of the paper's title, executed on real
// arrays rather than on the cost model.
package assembly

import (
	"fmt"
	"sort"

	"viewcube/internal/freq"
	"viewcube/internal/haar"
	"viewcube/internal/ndarray"
	"viewcube/internal/obs"
	"viewcube/internal/velement"
)

// Store holds materialised view elements keyed by their frequency
// rectangle. Implementations must return arrays that callers may read but
// not mutate.
type Store interface {
	// Get returns the materialised element, or ok=false if absent.
	Get(r freq.Rect) (a *ndarray.Array, ok bool)
	// Put stores (or replaces) a materialised element.
	Put(r freq.Rect, a *ndarray.Array) error
	// Delete removes an element if present.
	Delete(r freq.Rect) error
	// Elements lists the rectangles currently stored, in no defined order.
	Elements() []freq.Rect
}

// CtxStore is optionally implemented by stores that can record per-query
// spans on element reads. The assembly engine forwards its current span
// through GetCtx when the store supports it, so store access shows up in
// query traces without the store holding any per-query state.
type CtxStore interface {
	GetCtx(sp *obs.Span, r freq.Rect) (*ndarray.Array, bool)
}

// CloningStore is optionally implemented by stores whose Get already
// returns a private copy of the element (e.g. a disk-backed store that
// decodes or clones out of its cache). When ClonesOnGet reports true the
// engine takes ownership of Get results directly instead of copying them
// a second time — one copy per element, not two. Stores that return
// shared arrays (MemStore) must not implement this or must report false.
type CloningStore interface {
	ClonesOnGet() bool
}

// MemStore is an in-memory Store. The zero value is not usable; construct
// with NewMemStore. MemStore is not safe for concurrent mutation, but any
// number of concurrent readers may call Get/Elements while no mutation is
// in flight (reads do not touch shared mutable state).
//
// An element handed over sparse (HoldSparse) is held as its nonzeros: the
// contraction reads it as such (read, GetSparse), Get returns a fresh dense
// copy, and a writer Puts that back, dense from then on.
type MemStore struct {
	items  map[freq.Key]*ndarray.Array
	sparse map[freq.Key]*ndarray.Coo
	cells  int
}

// NewMemStore returns an empty in-memory element store.
func NewMemStore() *MemStore {
	return &MemStore{items: make(map[freq.Key]*ndarray.Array), sparse: make(map[freq.Key]*ndarray.Coo)}
}

// Get implements Store.
func (m *MemStore) Get(r freq.Rect) (*ndarray.Array, bool) {
	k := r.Key()
	if c, ok := m.sparse[k]; ok {
		a := ndarray.New(c.ShapeInto(nil)...)
		c.DenseInto(a)
		return a, true
	}
	a, ok := m.items[k]
	return a, ok
}

// read returns element r as its array, or as its nonzeros when it is held
// so (Get would densify it): the one lookup the contraction makes per
// stored element.
func (m *MemStore) read(r freq.Rect) (*ndarray.Array, *ndarray.Coo, bool) {
	k := r.Key()
	if a, ok := m.items[k]; ok {
		return a, nil, true
	}
	c, ok := m.sparse[k]
	return nil, c, ok
}

// GetSparse returns the element if it is held as its nonzeros.
func (m *MemStore) GetSparse(r freq.Rect) (*ndarray.Coo, bool) {
	c, ok := m.sparse[r.Key()]
	return c, ok
}

// HoldSparse holds element r as its nonzeros if the store holds a itself
// there and a is sparse enough (ndarray.ToCoo).
func (m *MemStore) HoldSparse(r freq.Rect, a *ndarray.Array) {
	if k := r.Key(); m.items[k] == a {
		if c := ndarray.ToCoo(a); c != nil {
			delete(m.items, k)
			m.sparse[k] = c
		}
	}
}

// Put implements Store.
func (m *MemStore) Put(r freq.Rect, a *ndarray.Array) error {
	k := r.Key()
	if old, ok := m.items[k]; ok {
		m.cells -= old.Size() // replaced in place: no delete and re-insert
	} else {
		m.drop(k)
	}
	m.items[k] = a
	m.cells += a.Size()
	return nil
}

// Delete implements Store.
func (m *MemStore) Delete(r freq.Rect) error {
	m.drop(r.Key())
	return nil
}

func (m *MemStore) drop(k freq.Key) {
	if old, ok := m.items[k]; ok {
		m.cells -= old.Size()
		delete(m.items, k)
	}
	if old, ok := m.sparse[k]; ok {
		m.cells -= old.Size()
		delete(m.sparse, k)
	}
}

// Elements implements Store.
func (m *MemStore) Elements() []freq.Rect {
	out := make([]freq.Rect, 0, len(m.items)+len(m.sparse))
	for k := range m.items {
		out = append(out, k.Rect())
	}
	for k := range m.sparse {
		out = append(out, k.Rect())
	}
	sort.Slice(out, func(i, j int) bool { return less(out[i], out[j]) })
	return out
}

func less(a, b freq.Rect) bool {
	for m := range a {
		if a[m] != b[m] {
			return a[m] < b[m]
		}
	}
	return false
}

// Cells returns the total number of stored cells (the storage cost).
func (m *MemStore) Cells() int { return m.cells }

// Materializer generates view elements from a data cube, caching every
// intermediate element it produces so that elements sharing cascade
// prefixes are computed once. The cube itself is held as the root element.
type Materializer struct {
	space *velement.Space
	cache map[freq.Key]*ndarray.Array
}

// NewMaterializer returns a materialiser over the given cube. The cube's
// shape must match the space.
func NewMaterializer(space *velement.Space, cube *ndarray.Array) (*Materializer, error) {
	shape := cube.Shape()
	want := space.Shape()
	if len(shape) != len(want) {
		return nil, fmt.Errorf("assembly: cube rank %d does not match space rank %d", len(shape), len(want))
	}
	for m := range shape {
		if shape[m] != want[m] {
			return nil, fmt.Errorf("assembly: cube shape %v does not match space shape %v", shape, want)
		}
	}
	mat := &Materializer{space: space, cache: make(map[freq.Key]*ndarray.Array)}
	mat.cache[space.Root().Key()] = cube
	return mat, nil
}

// GeneratedCells returns the total number of cells the materialiser has
// produced so far (excluding the root cube itself). Every generated cell
// costs exactly one addition or subtraction, so this is the exact operation
// count of all cascades run, with prefix sharing accounted for.
func (mat *Materializer) GeneratedCells() int {
	total := 0
	rootKey := mat.space.Root().Key()
	for k, a := range mat.cache {
		if k == rootKey {
			continue
		}
		total += a.Size()
	}
	return total
}

// Element returns the materialised array for the view element r, computing
// it (and caching every intermediate stage) if necessary. The returned
// array is shared with the materialiser's cache: read-only for the caller.
func (mat *Materializer) Element(r freq.Rect) (*ndarray.Array, error) {
	if !mat.space.Valid(r) {
		return nil, fmt.Errorf("assembly: %v is not a view element of the space", r)
	}
	return mat.element(r)
}

func (mat *Materializer) element(r freq.Rect) (*ndarray.Array, error) {
	if a, ok := mat.cache[r.Key()]; ok {
		return a, nil
	}
	// Undo the last cascade step on the deepest dimension: the parent is r
	// with that node's final P/R stage removed. Recursing on parents walks
	// back to the root, sharing every prefix.
	dim := -1
	for m := range r {
		if r[m].Depth() > 0 && (dim < 0 || r[m].Depth() > r[dim].Depth()) {
			dim = m
		}
	}
	if dim < 0 {
		return nil, fmt.Errorf("assembly: root element missing from cache")
	}
	parentRect := r.Clone()
	parentRect[dim] = r[dim].Parent()
	parent, err := mat.element(parentRect)
	if err != nil {
		return nil, err
	}
	var a *ndarray.Array
	if r[dim].IsResidualChild() {
		a, err = haar.Residual(parent, dim)
	} else {
		a, err = haar.Partial(parent, dim)
	}
	if err != nil {
		return nil, err
	}
	mat.cache[r.Key()] = a
	return a, nil
}

// Materialize computes every element of the set and stores it. Elements
// sharing cascade prefixes are generated incrementally.
func (mat *Materializer) Materialize(set []freq.Rect, store Store) error {
	for _, r := range set {
		a, err := mat.Element(r)
		if err != nil {
			return err
		}
		if err := store.Put(r, a.Clone()); err != nil {
			return err
		}
	}
	return nil
}

// MaterializeSet is a convenience wrapper: materialise a set from a cube
// into a fresh in-memory store.
func MaterializeSet(space *velement.Space, cube *ndarray.Array, set []freq.Rect) (*MemStore, error) {
	mat, err := NewMaterializer(space, cube)
	if err != nil {
		return nil, err
	}
	store := NewMemStore()
	if err := mat.Materialize(set, store); err != nil {
		return nil, err
	}
	return store, nil
}
