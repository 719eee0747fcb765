// Package adaptive implements the "dynamic" part of the paper's title: "the
// frequencies of access can be observed on-line, allowing the system to
// dynamically reconfigure" (§5). A Profile records the access frequencies
// of the reads an engine serves, and Reconfigure periodically re-runs the
// selection algorithms over them to migrate the materialised set toward the
// optimum for the observed workload.
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

// Options tunes reselection.
type Options struct {
	// ReselectEvery marks a reconfiguration as due after this many queries;
	// 0 disables automatic reconfiguration (call Reconfigure manually).
	// Recording a query never reconfigures: it only raises the due flag, and
	// the caller (see ReselectDue/AutoReconfigure) performs the reselection
	// at a point where exclusive access is held.
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

// Profile is an engine's workload profile and reselection policy: the
// observed access counts, the running Stats and the queries-since-last-
// reconfiguration counter, all guarded by one mutex, plus the lock-free
// "reselection due" flag. It is the only mutable state the read path
// touches, so recording a read never writes anything a concurrent read
// could see unsynchronised. An engine shares one Profile with every
// snapshot generation it publishes: reads against a pinned snapshot feed
// the same profile as reads of the base.
type Profile struct {
	space *velement.Space
	opts  Options
	met   *obs.AdaptiveMetrics

	mu            sync.Mutex
	counts        map[freq.Key]float64
	stats         Stats
	sinceReconfig int
	due           atomic.Bool
}

// NewProfile returns an empty profile for an engine whose store holds
// stored, which must be complete with respect to the cube (e.g. the cube
// itself, or any materialised basis).
func NewProfile(space *velement.Space, stored []freq.Rect, opts Options) (*Profile, error) {
	if opts.Decay <= 0 || opts.Decay > 1 {
		opts.Decay = 1
	}
	if !freq.Complete(stored, space.Root(), space.MaxDepths()) {
		return nil, fmt.Errorf("adaptive: store content is not a basis of the cube")
	}
	p := &Profile{space: space, opts: opts, met: obs.NewAdaptiveMetrics(nil), counts: make(map[freq.Key]float64)}
	p.stats.StorageCells = space.SetVolume(stored)
	p.stats.CurrentElements = len(stored)
	return p, nil
}

// SetMetrics attaches registered instruments; nil restores the no-op set.
// The materialised-set gauges are initialised from the current state. Call
// it during wiring, before the profile is shared across goroutines.
func (p *Profile) SetMetrics(m *obs.AdaptiveMetrics) {
	if m == nil {
		m = obs.NewAdaptiveMetrics(nil)
	}
	p.met = m
	st := p.Stats()
	p.met.BasisElements.Set(int64(st.CurrentElements))
	p.met.StorageCells.Set(int64(st.StorageCells))
}

// Record folds one served query of element r, whose plan cost ops, into the
// profile. It never reconfigures: when the observation pushes the profile
// past ReselectEvery it raises the due flag, and the caller decides when to
// run AutoReconfigure with exclusive access.
func (p *Profile) Record(r freq.Rect, ops int) {
	p.mu.Lock()
	p.counts[r.Key()]++
	p.stats.Queries++
	p.stats.LastPlanCost = ops
	p.stats.ModelOps += int64(ops)
	p.sinceReconfig++
	due := p.opts.ReselectEvery > 0 && p.sinceReconfig >= p.opts.ReselectEvery
	p.mu.Unlock()
	if due {
		p.due.Store(true)
	}
}

// ReselectDue reports whether enough queries have accumulated since the
// last reconfiguration that an automatic reselection should run. It is a
// lock-free read, safe from any goroutine.
func (p *Profile) ReselectDue() bool { return p.due.Load() }

// State exports the observed access counts keyed by a stable textual
// element id (per-dimension node indices joined by '-'), suitable for JSON
// persistence; RestoreState imports them. Together they let an engine
// restart with a warm workload profile.
func (p *Profile) State() map[string]float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]float64, len(p.counts))
	for k, c := range p.counts {
		out[encodeRect(k.Rect())] = c
	}
	return out
}

// RestoreState merges previously exported counts into the profile,
// rejecting ids that do not name elements of this cube.
func (p *Profile) RestoreState(state map[string]float64) error {
	for id, c := range state {
		r, err := decodeRect(id)
		if err != nil {
			return err
		}
		if !p.space.Valid(r) {
			return fmt.Errorf("adaptive: state id %q is not an element of this cube", id)
		}
		p.Observe(r, c)
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
func (p *Profile) Observe(r freq.Rect, weight float64) {
	if weight > 0 {
		p.mu.Lock()
		p.counts[r.Key()] += weight
		p.mu.Unlock()
	}
}

// ObservedQueries converts the recorded access counts into a normalised
// query population, in element order: equal histories normalise alike and
// select the same set, ties included.
func (p *Profile) ObservedQueries() []core.Query {
	p.mu.Lock()
	queries := make([]core.Query, 0, len(p.counts))
	for k, c := range p.counts {
		queries = append(queries, core.Query{Rect: k.Rect(), Freq: c})
	}
	p.mu.Unlock()
	slices.SortFunc(queries, func(a, b core.Query) int { return slices.Compare(a.Rect, b.Rect) })
	core.NormalizeFrequencies(queries)
	return queries
}

// Stats returns a snapshot of the profile's counters.
func (p *Profile) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// mutateStats applies f to the running stats under the profile lock.
func (p *Profile) mutateStats(f func(*Stats)) {
	p.mu.Lock()
	f(&p.stats)
	p.mu.Unlock()
}

// greedyCandidates returns the Algorithm 2 candidate pool for online
// reconfiguration: the observed query elements plus all 2^d aggregated
// views. Enumerating the whole element graph (N_ve candidates, each probed
// with a full Procedure 3 evaluation) is tractable only for tiny cubes; the
// queried elements and whole views are where redundant storage pays off, so
// the restriction keeps reconfiguration interactive without changing what
// greedy would pick in practice.
func (p *Profile) greedyCandidates(queries []core.Query) []freq.Rect {
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
	for _, v := range p.space.AggregatedViews() {
		add(v)
	}
	return out
}

// phase times one stage of a reconfiguration: a child span of sp, which it
// returns, and a sample of viewcube_reselection_seconds{phase=name} when the
// returned func runs.
func (p *Profile) phase(sp *obs.Span, name string) (*obs.Span, func()) {
	sp, start := sp.Start(name), time.Now()
	return sp, func() {
		sp.End()
		p.met.PhaseSeconds[name].Observe(time.Since(start).Seconds())
	}
}

// AutoReconfigure performs the reconfiguration that ReselectDue announced,
// counting it as an automatic reselection. Like Reconfigure it must not
// overlap reads.
func AutoReconfigure(sp *obs.Span, k *assembly.Engine, pl *plan.Planner, p *Profile) (bool, error) {
	p.met.AutoReselects.Inc()
	changed, err := Reconfigure(sp, k, pl, p)
	if err != nil {
		return changed, fmt.Errorf("adaptive: automatic reconfiguration: %w", err)
	}
	return changed, nil
}

// Reconfigure re-selects the materialised set of kernel k's store for the
// frequencies p observed: Algorithm 1 for the basis, then Algorithm 2 up to
// the storage budget. New elements are assembled from the current set before
// anything is dropped, so the store is never left unable to answer. A change
// bumps pl's epoch. It reports whether the materialised set changed.
//
// Reconfigure is the only writer of planning state (the store content). It
// must not overlap reads of k or pl; serialise it externally (the root
// package's Engine runs it under its write lock).
func Reconfigure(sp *obs.Span, k *assembly.Engine, pl *plan.Planner, p *Profile) (bool, error) {
	p.mu.Lock()
	p.sinceReconfig = 0
	p.mu.Unlock()
	p.due.Store(false)
	p.met.Reselections.Inc()
	queries := p.ObservedQueries()
	if len(queries) == 0 {
		return false, nil
	}
	sp = sp.Start("reconfigure")
	sp.SetAttr("observed_queries", int64(len(queries)))
	defer sp.End()
	space, st := p.space, k.Store()
	_, done := p.phase(sp, "select_basis")
	res, err := core.SelectBasis(space, queries)
	done()
	if err != nil {
		return false, err
	}
	target := res.Basis
	if p.opts.StorageBudget > space.SetVolume(target) {
		_, done := p.phase(sp, "greedy")
		greedy, err := core.GreedyRedundantPruned(space, target, p.greedyCandidates(queries), queries, p.opts.StorageBudget)
		done()
		if err != nil {
			return false, err
		}
		target = greedy.Final
		cost := greedy.InitialCost
		if n := len(greedy.Steps); n > 0 {
			cost = greedy.Steps[n-1].Cost
		}
		p.mutateStats(func(s *Stats) { s.LastTotalCost = cost })
	} else {
		cost := core.TotalProcessingCost(space, target, queries)
		p.mutateStats(func(s *Stats) { s.LastTotalCost = cost })
	}

	current := st.Elements()
	want := make(map[freq.Key]bool, len(target))
	missing := make(map[freq.Key]bool, len(target))
	for _, r := range target {
		want[r.Key()], missing[r.Key()] = true, true
	}
	for _, r := range current {
		delete(missing, r.Key())
	}

	changed := false
	migrate, done := p.phase(sp, "migrate")
	defer done()
	// Any store mutation invalidates cached plans — deferred so error
	// returns after a partially-applied migration invalidate too. Unchanged
	// reconfigurations leave the epoch (and every cached plan) intact.
	defer func() {
		if changed {
			pl.Invalidate()
		}
	}()
	// Phase 1: materialise every missing element from the current set: the
	// cascade, then Procedure 3 for what is off its tree (Algorithm 2
	// extras), each plan compiled afresh since the set changes under it.
	put := func(r freq.Rect, a *ndarray.Array) error {
		delete(missing, r.Key())
		if err := st.Put(r, a); err != nil {
			return fmt.Errorf("adaptive: storing %v: %w", r, err)
		}
		p.mutateStats(func(s *Stats) { s.Migrated++ })
		p.met.Migrated.Inc()
		sp.AddAttr("migrated", 1)
		changed = true
		return nil
	}
	if err := cascade(migrate, space, st, res.Basis, target, missing, put); err != nil {
		return changed, err
	}
	for _, r := range target {
		if !missing[r.Key()] {
			continue
		}
		var a *ndarray.Array
		tree, err := k.ComputePlan(r)
		if err == nil {
			a, err = k.Execute(migrate, tree)
		}
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
		if err := st.Delete(r); err != nil {
			return changed, fmt.Errorf("adaptive: dropping %v: %w", r, err)
		}
		p.mutateStats(func(s *Stats) { s.Dropped++ })
		p.met.Dropped.Inc()
		sp.AddAttr("dropped", 1)
		changed = true
	}
	els := st.Elements()
	cells := space.SetVolume(els)
	p.mutateStats(func(s *Stats) {
		if changed {
			s.Reconfigs++
		}
		s.StorageCells = cells
		s.CurrentElements = len(els)
	})
	if changed {
		p.met.ChangedReconfigs.Inc()
	}
	p.met.BasisElements.Set(int64(len(els)))
	p.met.StorageCells.Set(int64(cells))
	if p.opts.Decay < 1 {
		p.met.DecayApplied.Inc()
	}
	p.mu.Lock()
	for key := range p.counts {
		p.counts[key] *= p.opts.Decay
	}
	p.mu.Unlock()
	return changed, nil
}

// cascade stores the missing target elements on the basis's split tree,
// leaf or inner, each folded from its parent, never from the root again. It
// runs when a basis tile is missing and the root is stored; a set without
// the root leaves its missing elements to Procedure 3, which assembles them
// from the stored tiles.
func cascade(sp *obs.Span, space *velement.Space, st assembly.Store, basis, target []freq.Rect, missing map[freq.Key]bool, put func(freq.Rect, *ndarray.Array) error) error {
	if !slices.ContainsFunc(basis, func(r freq.Rect) bool { return missing[r.Key()] }) {
		return nil
	}
	root := space.Root()
	a, ok := st.Get(root)
	if !ok {
		return nil
	}
	sp = sp.Start("cascade")
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
