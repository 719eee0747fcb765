// Package catalog is the multi-cube semantic layer: a concurrency-safe
// registry of named cubes behind one CubeHandle interface, plus declarative
// consumer-facing views (includes/excludes/aliases/allowed measures) that
// rewrite queries before they reach an engine.
//
// A Registry entry moves through a small lifecycle:
//
//	serving ──unload──▶ unloading ──drain──▶ unloaded ──load──▶ serving
//	serving ──rebuild (old handle keeps serving until the new one swaps in)
//
// Queries hold a Lease (a refcount on the entry) for their whole execution;
// Unload flips the entry to unloading — new acquires fail with ErrCubeBusy
// (HTTP 409) — and blocks until every outstanding lease is released, so an
// in-flight query can never observe its cube disappearing. Rebuild
// constructs the replacement handle first and swaps it in atomically:
// readers drain onto the old handle, new readers get the new one, and the
// entry's epoch advances so clients can tell generations apart.
package catalog

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"viewcube"
	"viewcube/internal/obs"
	"viewcube/internal/rescache"
)

// Sentinel errors the serving tier maps onto HTTP statuses.
var (
	// ErrUnknownCube: no entry with that name was ever registered (404).
	ErrUnknownCube = errors.New("unknown cube")
	// ErrUnknownView: the cube has no view with that name (404).
	ErrUnknownView = errors.New("unknown view")
	// ErrUnknownMember: a view rejected a member or measure (404).
	ErrUnknownMember = errors.New("unknown member")
	// ErrCubeUnloaded: the entry exists but is not serving (404).
	ErrCubeUnloaded = errors.New("cube is unloaded")
	// ErrCubeBusy: a lifecycle transition is in progress (409).
	ErrCubeBusy = errors.New("cube lifecycle operation in progress")
	// ErrUnsupported: this handle kind cannot perform the operation (400).
	ErrUnsupported = errors.New("operation not supported by this cube")
	// ErrInvalidWorkload: an Optimize hot-view list failed validation
	// against the cube schema (400, as opposed to a 500 engine failure).
	ErrInvalidWorkload = errors.New("invalid workload")
)

// MemberError reports a member (or measure) a view does not expose —
// whether it never existed or was excluded is deliberately not revealed to
// the caller, exactly like a row-level-security layer.
type MemberError struct {
	View    string
	Member  string
	Measure bool
}

func (e *MemberError) Error() string {
	kind := "member"
	if e.Measure {
		kind = "measure"
	}
	return fmt.Sprintf("view %q has no %s %q", e.View, kind, e.Member)
}

// Unwrap lets errors.Is(err, ErrUnknownMember) match.
func (e *MemberError) Unwrap() error { return ErrUnknownMember }

// Info describes a cube handle's schema.
type Info struct {
	Dimensions []string `json:"dimensions"`
	Shape      []int    `json:"shape"`
	Volume     int      `json:"volume"`
	Measure    string   `json:"measure"`
}

// HotView is one anticipated-view entry of an Optimize workload.
type HotView struct {
	Keep []string `json:"keep"`
	Freq float64  `json:"freq"`
}

// Stats is the uniform statistics snapshot a handle reports.
type Stats struct {
	Engine               viewcube.Stats
	Store                viewcube.StoreStats
	PlanCache            viewcube.PlanCacheStats
	MaterializedElements int
	StorageCells         int
	ResidentCells        int // held in memory: StorageCells, a separate raw cube, snapshot generations
}

// CubeHandle is the uniform serving surface of one catalog entry,
// implemented over an Engine (at any measure width) or a
// PartitionedEngine. Handles must be safe for concurrent use; operations a
// backing engine cannot perform fail with ErrUnsupported.
//
// The three reads take the trace request as an argument: traced asks for
// the query's span tree next to its answer. The returned trace is nil when
// traced is false, and also when the backing engine has no traced form of
// the read (a PartitionedEngine's fan-out); callers treat nil as "not
// traced".
type CubeHandle interface {
	Info() Info
	Query(traced bool, sql string) (*viewcube.Result, *viewcube.QueryTrace, error)
	GroupBy(traced bool, keep ...string) (*viewcube.Result, *viewcube.QueryTrace, error)
	RangeSum(traced bool, ranges map[string]viewcube.ValueRange) (float64, *viewcube.QueryTrace, error)
	UpdateValue(delta float64, values map[string]string) error
	Optimize(views []HotView) error
	ExplainGroupBy(keep ...string) (string, error)
	Stats() Stats
	// PlanCacheStats is the cheap subset of Stats the per-query logging
	// path reads; it must not aggregate store statistics.
	PlanCacheStats() viewcube.PlanCacheStats
	// DataVersion is the counter result caches sync against: it never
	// decreases or repeats, moves on every change to the handle's data or
	// materialised set, and is read without any engine lock.
	DataVersion() uint64
	Metrics() *viewcube.Metrics
}

// Ingester is the optional streaming-write face of a CubeHandle: handles
// whose engine has a batched ingest path (WAL-buffered deltas folded in by
// a background merger) implement it. The serving tier type-asserts — a
// handle without it falls back to the synchronous UpdateValue path.
type Ingester interface {
	// IngestEnabled reports whether the streaming path is active; when
	// false IngestValue degrades to the locked write path.
	IngestEnabled() bool
	// IngestValue acknowledges one delta addressed by dimension values;
	// visibility comes at the next merge.
	IngestValue(delta float64, values map[string]string) error
	// FlushIngest blocks until every previously acknowledged delta is
	// queryable.
	FlushIngest() error
	// IngestStats snapshots the streaming path's counters.
	IngestStats() viewcube.IngestStats
}

// IngestCloser is the lifecycle hook the registry uses to stop a handle's
// ingest machinery (merger goroutine, WAL handle) when the handle leaves
// service via Unload or is replaced by Rebuild.
type IngestCloser interface {
	CloseIngest() error
}

// Builder constructs (or reconstructs) a cube handle. The registry keeps
// the builder so POST /cubes/{name}/load and /rebuild can re-run it.
type Builder func() (CubeHandle, error)

// State names a catalog entry's lifecycle position.
type State int

const (
	// StateServing: the handle answers queries.
	StateServing State = iota
	// StateLoading: a Load is building the handle; acquires fail busy.
	StateLoading
	// StateUnloading: an Unload is draining in-flight leases.
	StateUnloading
	// StateUnloaded: no handle; the builder is retained for Load.
	StateUnloaded
)

func (s State) String() string {
	switch s {
	case StateServing:
		return "serving"
	case StateLoading:
		return "loading"
	case StateUnloading:
		return "unloading"
	case StateUnloaded:
		return "unloaded"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// entry is one named cube in the registry. All fields are guarded by the
// registry mutex; cond signals refs reaching zero during a drain.
type entry struct {
	name       string
	build      Builder
	state      State
	rebuilding bool
	handle     CubeHandle
	epoch      uint64
	refs       int
	cond       *sync.Cond
	views      map[string]*View
	viewOrder  []string
	viewSpecs  map[string]ViewSpec
	// rcache is the entry's answer cache (nil unless EnableResultCache).
	// Lifecycle transitions invalidate it; leases read through it.
	rcache *answerCache
}

// Registry is a concurrency-safe catalog of named cubes and their views.
type Registry struct {
	mu     sync.Mutex
	cubes  map[string]*entry
	order  []string
	def    string
	met    *viewcube.Metrics
	rcOpts *rescache.Options // non-nil once EnableResultCache was called
}

// NewRegistry returns an empty catalog. The registry owns a root metrics
// registry; per-cube engines should be built over CubeMetrics(name) so one
// /metrics exposition carries a cube label dimension.
func NewRegistry() *Registry {
	return &Registry{
		cubes: make(map[string]*entry),
		met:   viewcube.NewMetrics(),
	}
}

// Metrics returns the registry's root metrics — the single exposition the
// serving tier renders.
func (r *Registry) Metrics() *viewcube.Metrics { return r.met }

// CubeMetrics derives the per-cube labelled metrics a builder should hand
// to its engine, so engine instruments land in the shared exposition as
// series labelled {cube="name"}.
func (r *Registry) CubeMetrics(name string) *viewcube.Metrics {
	return r.met.Sub("cube", name)
}

// EnableResultCache turns on per-entry answer caching: every registered
// cube (current and future) gets its own epoch-invalidated, size-bounded
// result cache with the given bounds, instrumented per cube in the shared
// exposition. Leases acquired afterwards serve reads through it via the
// Serve* methods; lifecycle transitions (Load/Unload/Rebuild) invalidate
// the affected entry's cache.
func (r *Registry) EnableResultCache(opt rescache.Options) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rcOpts = &opt
	for _, name := range r.order {
		if e := r.cubes[name]; e.rcache == nil {
			e.rcache = r.newEntryCacheLocked(name)
		}
	}
}

// newEntryCacheLocked builds one entry's answer cache with cube-labelled
// instruments. Caller holds r.mu and has checked r.rcOpts is set.
func (r *Registry) newEntryCacheLocked(name string) *answerCache {
	c := newAnswerCache(*r.rcOpts)
	c.SetMetrics(obs.NewCacheMetrics(r.met.Sub("cube", name).Registry(), obs.ResultCachePrefix))
	return c
}

// InvalidateResults drops the named cube's cached answers (""= default),
// bumping its result-cache epoch. It exists for callers that mutate cube
// state out of band of the engine's own invalidation hooks — the catalog
// hot-reloader and the coordinator's explicit invalidation endpoint. No-op
// for entries without a cache.
func (r *Registry) InvalidateResults(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if name == "" {
		name = r.def
	}
	e, ok := r.cubes[name]
	if !ok {
		return fmt.Errorf("cube %q: %w", name, ErrUnknownCube)
	}
	e.rcache.Invalidate()
	return nil
}

// Register builds the handle now and adds it under the given name. The
// first registered cube becomes the default until SetDefault overrides it.
func (r *Registry) Register(name string, build Builder) error {
	if name == "" {
		return fmt.Errorf("catalog: cube needs a name")
	}
	if build == nil {
		return fmt.Errorf("catalog: cube %q needs a builder", name)
	}
	h, err := build()
	if err != nil {
		return fmt.Errorf("catalog: building cube %q: %w", name, err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.cubes[name]; dup {
		return fmt.Errorf("catalog: cube %q already registered", name)
	}
	e := &entry{
		name:      name,
		build:     build,
		state:     StateServing,
		handle:    h,
		epoch:     1,
		views:     make(map[string]*View),
		viewSpecs: make(map[string]ViewSpec),
	}
	e.cond = sync.NewCond(&r.mu)
	if r.rcOpts != nil {
		e.rcache = r.newEntryCacheLocked(name)
	}
	r.cubes[name] = e
	r.order = append(r.order, name)
	if r.def == "" {
		r.def = name
	}
	return nil
}

// RegisterHandle registers an already-built handle. The entry supports
// unload but not load/rebuild (there is nothing to rebuild from).
func (r *Registry) RegisterHandle(name string, h CubeHandle) error {
	if h == nil {
		return fmt.Errorf("catalog: cube %q needs a handle", name)
	}
	return r.Register(name, func() (CubeHandle, error) { return h, nil })
}

// RegisterView compiles and attaches a view to its cube, validating every
// include/exclude/measure against the cube's current schema.
func (r *Registry) RegisterView(spec ViewSpec) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.cubes[spec.Cube]
	if !ok {
		return fmt.Errorf("catalog: view %q: cube %q: %w", spec.Name, spec.Cube, ErrUnknownCube)
	}
	if e.handle == nil {
		return fmt.Errorf("catalog: view %q: cube %q: %w", spec.Name, spec.Cube, ErrCubeUnloaded)
	}
	v, err := compileView(spec, e.handle.Info())
	if err != nil {
		return err
	}
	if _, dup := e.views[spec.Name]; dup {
		return fmt.Errorf("catalog: cube %q already has view %q", spec.Cube, spec.Name)
	}
	e.views[spec.Name] = v
	e.viewOrder = append(e.viewOrder, spec.Name)
	e.viewSpecs[spec.Name] = spec
	return nil
}

// Has reports whether an entry with the given name exists, in any state.
func (r *Registry) Has(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.cubes[name]
	return ok
}

// SetBuilder replaces the named cube's builder without touching its serving
// handle: the next Load or Rebuild constructs from the new source. This is
// how a catalog hot-reload re-points a cube at changed spec before
// rebuilding it.
func (r *Registry) SetBuilder(name string, build Builder) error {
	if build == nil {
		return fmt.Errorf("catalog: cube %q needs a builder", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.cubes[name]
	if !ok {
		return fmt.Errorf("cube %q: %w", name, ErrUnknownCube)
	}
	e.build = build
	return nil
}

// ReplaceViews swaps the named cube's whole view set atomically: every spec
// compiles against the current schema first, so a bad view leaves the
// existing set serving. On an unloaded entry the specs are stored and
// compile at the next Load.
func (r *Registry) ReplaceViews(cube string, specs []ViewSpec) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.cubes[cube]
	if !ok {
		return fmt.Errorf("cube %q: %w", cube, ErrUnknownCube)
	}
	order := make([]string, 0, len(specs))
	specMap := make(map[string]ViewSpec, len(specs))
	for _, spec := range specs {
		if spec.Name == "" {
			return fmt.Errorf("catalog: cube %q: view needs a name", cube)
		}
		if _, dup := specMap[spec.Name]; dup {
			return fmt.Errorf("catalog: cube %q already has view %q", cube, spec.Name)
		}
		specMap[spec.Name] = spec
		order = append(order, spec.Name)
	}
	views := make(map[string]*View, len(specs))
	if e.handle != nil {
		info := e.handle.Info()
		for _, name := range order {
			v, err := compileView(specMap[name], info)
			if err != nil {
				return err
			}
			views[name] = v
		}
	}
	e.views = views
	e.viewOrder = order
	e.viewSpecs = specMap
	return nil
}

// SetDefault names the cube legacy single-cube routes resolve to.
func (r *Registry) SetDefault(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.cubes[name]; !ok {
		return fmt.Errorf("catalog: default cube %q: %w", name, ErrUnknownCube)
	}
	r.def = name
	return nil
}

// Default returns the default cube's name ("" for an empty registry).
func (r *Registry) Default() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.def
}

// Lease is one query's hold on a serving cube: the handle pinned for the
// query's lifetime, the resolved view (nil for raw-cube access) and the
// entry's generation. Release it when the query finishes — Unload blocks
// until every lease is gone.
type Lease struct {
	Cube   string
	View   *View
	Handle CubeHandle
	Epoch  uint64

	// Scratch is the buffer ServeGroupBy and ServeQuery encode into and leave
	// here, grown to what the body took — the caller's, if it lent one. With no
	// result cache an Answer's Body is this buffer: the next Serve* call on
	// the lease overwrites it.
	Scratch []byte

	reg      *Registry
	ent      *entry
	cache    *answerCache // nil unless the registry enabled result caching
	released atomic.Bool
}

// Release returns the lease. Idempotent and safe on nil.
func (l *Lease) Release() {
	if l == nil || l.released.Swap(true) {
		return
	}
	l.reg.mu.Lock()
	l.ent.refs--
	if l.ent.refs == 0 {
		l.ent.cond.Broadcast()
	}
	l.reg.mu.Unlock()
}

// Acquire pins the named cube (""= default) and resolves the named view
// (""= raw cube) for one query. Fails with ErrUnknownCube/ErrUnknownView
// (404), ErrCubeUnloaded (404) or ErrCubeBusy (409, lifecycle transition
// in progress).
func (r *Registry) Acquire(cube, view string) (*Lease, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	name := cube
	if name == "" {
		name = r.def
	}
	e, ok := r.cubes[name]
	if !ok {
		return nil, fmt.Errorf("cube %q: %w", name, ErrUnknownCube)
	}
	var v *View
	if view != "" {
		if v, ok = e.views[view]; !ok {
			return nil, fmt.Errorf("cube %q view %q: %w", name, view, ErrUnknownView)
		}
	}
	switch e.state {
	case StateServing:
	case StateLoading, StateUnloading:
		return nil, fmt.Errorf("cube %q is %s: %w", name, e.state, ErrCubeBusy)
	case StateUnloaded:
		return nil, fmt.Errorf("cube %q: %w", name, ErrCubeUnloaded)
	}
	e.refs++
	return &Lease{Cube: name, View: v, Handle: e.handle, Epoch: e.epoch, reg: r, ent: e, cache: e.rcache}, nil
}

// Unload drains the named cube and drops its handle: the entry flips to
// unloading (new acquires fail busy), blocks until every outstanding lease
// releases, then parks as unloaded with the builder retained for Load.
func (r *Registry) Unload(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.cubes[name]
	if !ok {
		return fmt.Errorf("cube %q: %w", name, ErrUnknownCube)
	}
	switch {
	case e.state == StateUnloaded:
		return fmt.Errorf("cube %q: %w", name, ErrCubeUnloaded)
	case e.state != StateServing || e.rebuilding:
		return fmt.Errorf("cube %q is %s: %w", name, e.state, ErrCubeBusy)
	}
	e.state = StateUnloading
	for e.refs > 0 {
		e.cond.Wait()
	}
	if c, ok := e.handle.(IngestCloser); ok {
		c.CloseIngest() // stop the merger and WAL with the cube they feed
	}
	e.handle = nil
	e.state = StateUnloaded
	e.rcache.Invalidate() // free cached answers with the cube they answer for
	return nil
}

// Load rebuilds an unloaded cube from its builder and resumes serving.
// Views are recompiled against the fresh schema; a view that no longer
// validates fails the load and the cube stays unloaded.
func (r *Registry) Load(name string) error {
	r.mu.Lock()
	e, ok := r.cubes[name]
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("cube %q: %w", name, ErrUnknownCube)
	}
	if e.state != StateUnloaded {
		state := e.state
		r.mu.Unlock()
		return fmt.Errorf("cube %q is %s: %w", name, state, ErrCubeBusy)
	}
	e.state = StateLoading
	r.mu.Unlock()

	h, err := e.build()

	r.mu.Lock()
	defer r.mu.Unlock()
	if err != nil {
		e.state = StateUnloaded
		return fmt.Errorf("catalog: loading cube %q: %w", name, err)
	}
	views, verr := recompileViews(e, h.Info())
	if verr != nil {
		e.state = StateUnloaded
		return verr
	}
	e.views = views
	e.handle = h
	e.epoch++
	e.state = StateServing
	e.rcache.Invalidate() // new generation: cached answers are stale
	return nil
}

// Rebuild constructs a replacement handle and swaps it in without downtime:
// the old handle keeps serving until the new one is ready, in-flight leases
// finish on the generation they started on, and the epoch advances. On
// builder or view-validation failure the old handle keeps serving.
func (r *Registry) Rebuild(name string) error {
	r.mu.Lock()
	e, ok := r.cubes[name]
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("cube %q: %w", name, ErrUnknownCube)
	}
	if e.state != StateServing || e.rebuilding {
		state := e.state
		r.mu.Unlock()
		return fmt.Errorf("cube %q is %s: %w", name, state, ErrCubeBusy)
	}
	e.rebuilding = true
	r.mu.Unlock()

	h, err := e.build()

	r.mu.Lock()
	defer r.mu.Unlock()
	e.rebuilding = false
	if err != nil {
		return fmt.Errorf("catalog: rebuilding cube %q: %w", name, err)
	}
	views, verr := recompileViews(e, h.Info())
	if verr != nil {
		return verr
	}
	old := e.handle
	e.views = views
	e.handle = h
	e.epoch++
	e.rcache.Invalidate() // new generation: cached answers are stale
	if c, ok := old.(IngestCloser); ok {
		// The old generation keeps serving in-flight leases (its readers
		// fall back to the locked path once ingest stops), but its merger
		// and WAL must not outlive the swap.
		c.CloseIngest()
	}
	return nil
}

// recompileViews validates every registered view spec against a fresh
// schema. Caller holds r.mu.
func recompileViews(e *entry, info Info) (map[string]*View, error) {
	views := make(map[string]*View, len(e.viewSpecs))
	for _, name := range e.viewOrder {
		v, err := compileView(e.viewSpecs[name], info)
		if err != nil {
			return nil, fmt.Errorf("catalog: revalidating view %q: %w", name, err)
		}
		views[name] = v
	}
	return views, nil
}

// CubeStatus is one row of the catalog listing.
type CubeStatus struct {
	Name    string   `json:"name"`
	State   string   `json:"state"`
	Epoch   uint64   `json:"epoch"`
	Default bool     `json:"default"`
	Views   []string `json:"views,omitempty"`
	Info    *Info    `json:"info,omitempty"`
}

// Cubes lists every entry in registration order.
func (r *Registry) Cubes() []CubeStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]CubeStatus, 0, len(r.order))
	for _, name := range r.order {
		e := r.cubes[name]
		cs := CubeStatus{
			Name:    name,
			State:   e.state.String(),
			Epoch:   e.epoch,
			Default: name == r.def,
			Views:   append([]string(nil), e.viewOrder...),
		}
		if e.rebuilding {
			cs.State = "rebuilding"
		}
		if e.handle != nil {
			info := e.handle.Info()
			cs.Info = &info
		}
		out = append(out, cs)
	}
	return out
}

// Degraded names, in registration order, the cubes whose streaming ingest
// has stopped on a failed merge (IngestStats.Degraded).
func (r *Registry) Degraded() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []string
	for _, name := range r.order {
		if ing, ok := r.cubes[name].handle.(Ingester); ok && ing.IngestStats().Degraded != "" {
			out = append(out, name)
		}
	}
	return out
}

// ViewStatus describes one compiled view for listings.
type ViewStatus struct {
	Name     string   `json:"name"`
	Cube     string   `json:"cube"`
	Members  []Member `json:"members"`
	Measures []string `json:"measures,omitempty"`
}

// Views lists the named cube's views in registration order.
func (r *Registry) Views(cube string) ([]ViewStatus, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	name := cube
	if name == "" {
		name = r.def
	}
	e, ok := r.cubes[name]
	if !ok {
		return nil, fmt.Errorf("cube %q: %w", name, ErrUnknownCube)
	}
	out := make([]ViewStatus, 0, len(e.viewOrder))
	for _, vn := range e.viewOrder {
		v := e.views[vn]
		out = append(out, ViewStatus{
			Name:     vn,
			Cube:     name,
			Members:  v.Members(),
			Measures: v.Measures(),
		})
	}
	return out, nil
}
