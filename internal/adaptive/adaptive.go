// Package adaptive implements the "dynamic" part of the paper's title: "the
// frequencies of access can be observed on-line, allowing the system to
// dynamically reconfigure" (§5). An adaptive Engine serves view-element
// queries from its materialised set, records the observed access
// frequencies, and periodically re-runs the selection algorithms to migrate
// the materialised set toward the optimum for the observed workload.
//
// Migration never touches the original relation or cube: every newly
// selected element is assembled from the currently materialised set (which
// is always kept a basis of the cube), then obsolete elements are dropped.
package adaptive

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"viewcube/internal/assembly"
	"viewcube/internal/core"
	"viewcube/internal/freq"
	"viewcube/internal/ndarray"
	"viewcube/internal/obs"
	"viewcube/internal/plan"
	"viewcube/internal/velement"
)

// Options tunes the adaptive engine.
type Options struct {
	// ReselectEvery marks a reconfiguration as due after this many queries;
	// 0 disables automatic reconfiguration (call Reconfigure manually).
	// Query itself never reconfigures: it only raises the due flag, and the
	// caller (see ReselectDue/AutoReconfigure) performs the reselection at a
	// point where exclusive access is held.
	ReselectEvery int
	// StorageBudget is the Algorithm 2 target storage in cells. If it is 0
	// or no larger than the cube volume, only the non-redundant Algorithm 1
	// basis is kept.
	StorageBudget int
	// Decay in (0, 1] multiplies all observed counts after each
	// reconfiguration, so the engine tracks drifting workloads; 1 keeps
	// full history.
	Decay float64
}

// Stats reports the engine's behaviour for observability.
type Stats struct {
	Queries         int     // queries served
	ModelOps        int64   // summed modelled add/subtract operations
	Reconfigs       int     // reconfigurations performed
	Migrated        int     // elements newly materialised across reconfigs
	Dropped         int     // elements dropped across reconfigs
	StorageCells    int     // current materialised volume
	LastPlanCost    int     // modelled cost of the most recent query
	CurrentElements int     // current materialised element count
	LastTotalCost   float64 // Procedure 3 population cost after last reconfig
}

// recorder is the only mutable state touched by the query path: the
// observed access counts, the running Stats, and the queries-since-last-
// reconfiguration counter, all guarded by one mutex, plus the lock-free
// "reselection due" flag. Keeping it separate from the planning state means
// answering a query never writes anything a concurrent query could read
// unsynchronised.
type recorder struct {
	mu            sync.Mutex
	counts        map[freq.Key]float64
	stats         Stats
	sinceReconfig int
	due           atomic.Bool
}

// Engine is an adaptive view-element engine. Answering a query is a pure
// read of the materialised set plus a short locked workload observation, so
// any number of Query calls may run concurrently (given a store that is
// safe for concurrent reads). Reconfigure is the only writer: it must not
// overlap queries — callers serialise it externally (see the root package's
// Engine, which runs it under a write lock).
type Engine struct {
	space *velement.Space
	store assembly.Store
	inner *assembly.Engine
	pl    *plan.Planner
	opts  Options

	// rec is a pointer so snapshot generations derived by ForStore share one
	// workload profile with the base engine.
	rec *recorder

	met *obs.AdaptiveMetrics
}

// New returns an adaptive engine over an existing store. The store must
// already hold a set that is complete with respect to the cube (e.g. the
// cube itself, or any materialised basis).
func New(space *velement.Space, st assembly.Store, opts Options) (*Engine, error) {
	if opts.Decay <= 0 || opts.Decay > 1 {
		opts.Decay = 1
	}
	els := st.Elements()
	if !freq.Complete(els, space.Root(), space.MaxDepths()) {
		return nil, fmt.Errorf("adaptive: store content is not a basis of the cube")
	}
	e := &Engine{
		space: space,
		store: st,
		inner: assembly.NewEngine(space, st),
		opts:  opts,
		rec:   &recorder{},
		met:   obs.NewAdaptiveMetrics(nil),
	}
	e.pl = plan.NewPlanner(e.inner)
	e.rec.counts = make(map[freq.Key]float64)
	e.rec.stats.StorageCells = space.SetVolume(els)
	e.rec.stats.CurrentElements = len(els)
	return e, nil
}

// ForStore derives a read-only sibling engine over st — an immutable
// snapshot clone of this engine's store. The derived engine shares the
// workload recorder, metrics and (epoch-pinned) planner cache, so queries
// against a pinned snapshot feed the same adaptive profile and warm the
// same plans as base queries; only the store and the assembly engine are
// generation-local. Callers must not Reconfigure the derived engine.
func (e *Engine) ForStore(st assembly.Store) *Engine {
	inner := assembly.NewEngine(e.space, st)
	return &Engine{
		space: e.space,
		store: st,
		inner: inner,
		pl:    e.pl.ForSource(inner),
		opts:  e.opts,
		rec:   e.rec,
		met:   e.met,
	}
}

// Assembler returns the inner assembly engine, so callers can attach
// observability instruments to the plan/execute hot path.
func (e *Engine) Assembler() *assembly.Engine { return e.inner }

// Planner returns the engine's cached planner — the single planning entry
// point queries, Explain and traces share.
func (e *Engine) Planner() *plan.Planner { return e.pl }

// InvalidatePlans bumps the plan-cache epoch, discarding every cached
// plan. The root engine calls it whenever stored cell values change
// (incremental updates); Reconfigure calls it itself when the materialised
// set changes. Callers serialise it against queries exactly like the
// mutation that motivated it (the root Engine's write lock).
func (e *Engine) InvalidatePlans() { e.pl.Invalidate() }

// SetMetrics attaches registered instruments; nil restores the no-op set.
// The materialised-set gauges are initialised from the current state. Call
// it during wiring, before the engine is shared across goroutines.
func (e *Engine) SetMetrics(m *obs.AdaptiveMetrics) {
	if m == nil {
		m = obs.NewAdaptiveMetrics(nil)
	}
	e.met = m
	st := e.Stats()
	e.met.BasisElements.Set(int64(st.CurrentElements))
	e.met.StorageCells.Set(int64(st.StorageCells))
}

// Query answers a view-element query and records the access. It never
// reconfigures: when the observation pushes the engine past ReselectEvery
// it raises the due flag, and the caller decides when to run
// AutoReconfigure with exclusive access.
func (e *Engine) Query(x *obs.ExecCtx, r freq.Rect) (*ndarray.Array, error) {
	ph, err := e.pl.Element(x, r)
	if err != nil {
		return nil, err
	}
	out, err := e.inner.Execute(x, ph.Assembly)
	if err != nil {
		return nil, err
	}
	e.observeQuery(r, ph.Cost)
	return out, nil
}

// observeQuery folds one served query into the recorder.
func (e *Engine) observeQuery(r freq.Rect, cost int) {
	rec := e.rec
	rec.mu.Lock()
	rec.counts[r.Key()]++
	rec.stats.Queries++
	rec.stats.LastPlanCost = cost
	rec.stats.ModelOps += int64(cost)
	rec.sinceReconfig++
	due := e.opts.ReselectEvery > 0 && rec.sinceReconfig >= e.opts.ReselectEvery
	rec.mu.Unlock()
	if due {
		rec.due.Store(true)
	}
}

// ReselectDue reports whether enough queries have accumulated since the
// last reconfiguration that an automatic reselection should run. It is a
// lock-free read, safe from any goroutine.
func (e *Engine) ReselectDue() bool { return e.rec.due.Load() }

// AutoReconfigure performs the reconfiguration that ReselectDue announced,
// counting it as an automatic reselection. Like Reconfigure it must not
// overlap queries.
func (e *Engine) AutoReconfigure(x *obs.ExecCtx) (bool, error) {
	e.met.AutoReselects.Inc()
	changed, err := e.Reconfigure(x)
	if err != nil {
		return changed, fmt.Errorf("adaptive: automatic reconfiguration: %w", err)
	}
	return changed, nil
}

// State exports the observed access counts keyed by a stable textual
// element id (per-dimension node indices joined by '-'), suitable for JSON
// persistence; RestoreState imports them. Together they let an engine
// restart with a warm workload profile.
func (e *Engine) State() map[string]float64 {
	e.rec.mu.Lock()
	defer e.rec.mu.Unlock()
	out := make(map[string]float64, len(e.rec.counts))
	for k, c := range e.rec.counts {
		out[encodeRect(k.Rect())] = c
	}
	return out
}

// RestoreState merges previously exported counts into the engine,
// rejecting ids that do not name elements of this cube.
func (e *Engine) RestoreState(state map[string]float64) error {
	for id, c := range state {
		r, err := decodeRect(id)
		if err != nil {
			return err
		}
		if !e.space.Valid(r) {
			return fmt.Errorf("adaptive: state id %q is not an element of this cube", id)
		}
		if c > 0 {
			e.rec.mu.Lock()
			e.rec.counts[r.Key()] += c
			e.rec.mu.Unlock()
		}
	}
	return nil
}

func encodeRect(r freq.Rect) string {
	parts := make([]string, len(r))
	for m, n := range r {
		parts[m] = strconv.FormatUint(uint64(n), 10)
	}
	return strings.Join(parts, "-")
}

func decodeRect(id string) (freq.Rect, error) {
	parts := strings.Split(id, "-")
	r := make(freq.Rect, len(parts))
	for m, p := range parts {
		n, err := strconv.ParseUint(p, 10, 32)
		if err != nil || n == 0 {
			return nil, fmt.Errorf("adaptive: bad element id %q", id)
		}
		r[m] = freq.Node(n)
	}
	return r, nil
}

// Observe records weight accesses to an element without answering a query.
// Callers with a-priori workload knowledge use it to seed the frequencies
// before an explicit Reconfigure (the paper's "database administrator
// anticipates the relative frequency" mode of §5).
func (e *Engine) Observe(r freq.Rect, weight float64) {
	if weight > 0 {
		e.rec.mu.Lock()
		e.rec.counts[r.Key()] += weight
		e.rec.mu.Unlock()
	}
}

// ObservedQueries converts the recorded access counts into a normalised
// query population, in element order: equal histories normalise alike and
// select the same set, ties included.
func (e *Engine) ObservedQueries() []core.Query {
	e.rec.mu.Lock()
	queries := make([]core.Query, 0, len(e.rec.counts))
	for k, c := range e.rec.counts {
		queries = append(queries, core.Query{Rect: k.Rect(), Freq: c})
	}
	e.rec.mu.Unlock()
	slices.SortFunc(queries, func(a, b core.Query) int { return slices.Compare(a.Rect, b.Rect) })
	core.NormalizeFrequencies(queries)
	return queries
}

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() Stats {
	e.rec.mu.Lock()
	defer e.rec.mu.Unlock()
	return e.rec.stats
}

// mutateStats applies f to the running stats under the recorder lock.
func (e *Engine) mutateStats(f func(*Stats)) {
	e.rec.mu.Lock()
	f(&e.rec.stats)
	e.rec.mu.Unlock()
}

// Elements returns the currently materialised set.
func (e *Engine) Elements() []freq.Rect { return e.store.Elements() }

// greedyCandidates returns the Algorithm 2 candidate pool for online
// reconfiguration: the observed query elements plus all 2^d aggregated
// views. Enumerating the whole element graph (N_ve candidates, each probed
// with a full Procedure 3 evaluation) is tractable only for tiny cubes; the
// queried elements and whole views are where redundant storage pays off, so
// the restriction keeps reconfiguration interactive without changing what
// greedy would pick in practice.
func (e *Engine) greedyCandidates(queries []core.Query) []freq.Rect {
	seen := make(map[freq.Key]bool)
	var out []freq.Rect
	add := func(r freq.Rect) {
		k := r.Key()
		if !seen[k] {
			seen[k] = true
			out = append(out, r)
		}
	}
	for _, q := range queries {
		add(q.Rect)
	}
	for _, v := range e.space.AggregatedViews() {
		add(v)
	}
	return out
}

// phase times one stage of a reconfiguration: a child span of x and a sample
// of viewcube_reselection_seconds{phase=name} when the returned func runs.
func (e *Engine) phase(x *obs.ExecCtx, name string) (*obs.ExecCtx, func()) {
	sp, start := x.Start(name), time.Now()
	return x.Under(sp), func() {
		sp.End()
		e.met.PhaseSeconds[name].Observe(time.Since(start).Seconds())
	}
}

// Reconfigure re-selects the materialised set for the observed frequencies:
// Algorithm 1 for the basis, then Algorithm 2 up to the storage budget. New
// elements are assembled from the current set before anything is dropped,
// so the store is never left unable to answer. It reports whether the
// materialised set changed.
//
// Reconfigure is the engine's only writer of planning state (the store
// content). It must not overlap Query calls; serialise it externally.
func (e *Engine) Reconfigure(x *obs.ExecCtx) (bool, error) {
	e.rec.mu.Lock()
	e.rec.sinceReconfig = 0
	e.rec.mu.Unlock()
	e.rec.due.Store(false)
	e.met.Reselections.Inc()
	queries := e.ObservedQueries()
	if len(queries) == 0 {
		return false, nil
	}
	sp := x.Start("reconfigure")
	sp.SetAttr("observed_queries", int64(len(queries)))
	defer sp.End()
	x = x.Under(sp)
	_, done := e.phase(x, "select_basis")
	res, err := core.SelectBasis(e.space, queries)
	done()
	if err != nil {
		return false, err
	}
	target := res.Basis
	if e.opts.StorageBudget > e.space.SetVolume(target) {
		_, done := e.phase(x, "greedy")
		greedy, err := core.GreedyRedundantPruned(e.space, target, e.greedyCandidates(queries), queries, e.opts.StorageBudget)
		done()
		if err != nil {
			return false, err
		}
		target = greedy.Final
		cost := greedy.InitialCost
		if n := len(greedy.Steps); n > 0 {
			cost = greedy.Steps[n-1].Cost
		}
		e.mutateStats(func(s *Stats) { s.LastTotalCost = cost })
	} else {
		cost := core.TotalProcessingCost(e.space, target, queries)
		e.mutateStats(func(s *Stats) { s.LastTotalCost = cost })
	}

	current := e.store.Elements()
	want := make(map[freq.Key]bool, len(target))
	missing := make(map[freq.Key]bool, len(target))
	for _, r := range target {
		want[r.Key()], missing[r.Key()] = true, true
	}
	for _, r := range current {
		delete(missing, r.Key())
	}

	changed := false
	x, done = e.phase(x, "migrate")
	defer done()
	// Any store mutation invalidates cached plans — deferred so error
	// returns after a partially-applied migration invalidate too. Unchanged
	// reconfigurations leave the epoch (and every cached plan) intact.
	defer func() {
		if changed {
			e.pl.Invalidate()
		}
	}()
	// Phase 1: materialise every missing element from the current set: the
	// cascade, then the planner for what is off its tree (Algorithm 2 extras).
	put := func(r freq.Rect, a *ndarray.Array) error {
		delete(missing, r.Key())
		if err := e.store.Put(r, a); err != nil {
			return fmt.Errorf("adaptive: storing %v: %w", r, err)
		}
		e.mutateStats(func(s *Stats) { s.Migrated++ })
		e.met.Migrated.Inc()
		sp.AddAttr("migrated", 1)
		changed = true
		return nil
	}
	if err := e.cascade(x, res.Basis, target, missing, put); err != nil {
		return changed, err
	}
	for _, r := range target {
		if !missing[r.Key()] {
			continue
		}
		a, err := e.inner.Answer(x, r)
		if err != nil {
			return changed, fmt.Errorf("adaptive: assembling %v for migration: %w", r, err)
		}
		if err := put(r, a); err != nil {
			return changed, err
		}
	}
	// Phase 2: drop elements no longer selected.
	for _, r := range current {
		if want[r.Key()] {
			continue
		}
		if err := e.store.Delete(r); err != nil {
			return changed, fmt.Errorf("adaptive: dropping %v: %w", r, err)
		}
		e.mutateStats(func(s *Stats) { s.Dropped++ })
		e.met.Dropped.Inc()
		sp.AddAttr("dropped", 1)
		changed = true
	}
	els := e.store.Elements()
	cells := e.space.SetVolume(els)
	e.mutateStats(func(s *Stats) {
		if changed {
			s.Reconfigs++
		}
		s.StorageCells = cells
		s.CurrentElements = len(els)
	})
	if changed {
		e.met.ChangedReconfigs.Inc()
	}
	e.met.BasisElements.Set(int64(len(els)))
	e.met.StorageCells.Set(int64(cells))
	if e.opts.Decay < 1 {
		e.met.DecayApplied.Inc()
	}
	e.rec.mu.Lock()
	for k := range e.rec.counts {
		e.rec.counts[k] *= e.opts.Decay
	}
	e.rec.mu.Unlock()
	return changed, nil
}

// cascade stores the missing target elements on the basis's split tree,
// leaf or inner, each folded from its parent, never from the root again. It
// runs when a basis tile is missing and the root is stored; a set without
// the root leaves its missing elements to the planner, which assembles them
// from the stored tiles.
func (e *Engine) cascade(x *obs.ExecCtx, basis, target []freq.Rect, missing map[freq.Key]bool, put func(freq.Rect, *ndarray.Array) error) error {
	if !slices.ContainsFunc(basis, func(r freq.Rect) bool { return missing[r.Key()] }) {
		return nil
	}
	root := e.space.Root()
	a, ok := e.store.Get(root)
	if !ok {
		return nil
	}
	sp := x.Start("cascade")
	defer sp.End()
	wanted := slices.DeleteFunc(slices.Clone(target), func(r freq.Rect) bool { return !missing[r.Key()] })
	_, err := foldDown(root, a, basis, wanted, put)
	return err
}

// foldDown stores node's array a if node is wanted, folds a once into each
// child on the first dimension no tile inside node spans (Algorithm 1's
// basis always has one), and goes on into each child holding a wanted
// element. tiles and wanted are the basis tiles and missing target elements
// inside node. It reports whether a went to the store; if not, the caller
// recycles a child (the root stays stored either way).
func foldDown(node freq.Rect, a *ndarray.Array, tiles, wanted []freq.Rect, put func(freq.Rect, *ndarray.Array) error) (stored bool, err error) {
	if stored = slices.ContainsFunc(wanted, node.Equal); stored {
		if err := put(node, a); err != nil {
			return stored, err
		}
	}
	dim := -1
	for m := 0; m < len(node) && dim < 0 && len(tiles) > 1; m++ {
		if !slices.ContainsFunc(tiles, func(t freq.Rect) bool { return t[m] == node[m] }) {
			dim = m
		}
	}
	var in [2][]freq.Rect // the wanted elements inside each child
	for side := 0; dim >= 0 && side < 2; side++ {
		in[side] = inside(wanted, node.Child(dim, side == 1))
	}
	if len(in[0])+len(in[1]) == 0 {
		return stored, nil
	}
	shape := a.Shape()
	shape[dim] /= 2
	p, _ := ndarray.ScratchPlanes(a.Planes(), shape...)
	r, _ := ndarray.ScratchPlanes(a.Planes(), shape...)
	if err := a.PairSumInto(dim, p); err != nil {
		return stored, err
	}
	if err := a.PairDiffInto(dim, r); err != nil {
		return stored, err
	}
	for side, c := range [2]*ndarray.Array{p, r} {
		kept := false
		if child := node.Child(dim, side == 1); len(in[side]) > 0 {
			if kept, err = foldDown(child, c, inside(tiles, child), in[side], put); err != nil {
				return stored, err
			}
		}
		if !kept {
			ndarray.Recycle(c)
		}
	}
	return stored, nil
}

// inside returns the elements of set that r contains.
func inside(set []freq.Rect, r freq.Rect) []freq.Rect {
	return slices.DeleteFunc(slices.Clone(set), func(s freq.Rect) bool { return !r.Contains(s) })
}
