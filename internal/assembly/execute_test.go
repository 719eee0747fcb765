package assembly

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"viewcube/internal/haar"
	"viewcube/internal/ndarray"
	"viewcube/internal/obs"
	"viewcube/internal/velement"
)

// TestExecutorSerialMatchesOracle checks every aggregated view assembled
// from a stored root against the direct cascade oracle.
func TestExecutorSerialMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	s := velement.MustSpace(8, 8)
	cube := randomCube(rng, 8, 8)
	store := NewMemStore()
	if err := store.Put(s.Root(), cube.Clone()); err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(s, store)
	for _, v := range s.AggregatedViews() {
		got, err := answer(eng, nil, v)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := haar.ApplyRect(cube, v)
		if !got.Equal(want, 1e-9) {
			t.Fatalf("view %v differs from the oracle", v)
		}
	}
}

// TestExecutorResultIsPrivate ensures Execute's results never alias the
// store's arrays (MemStore hands out shared arrays; Execute must copy them
// even when no operator applies).
func TestExecutorResultIsPrivate(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	s := velement.MustSpace(4, 4)
	cube := randomCube(rng, 4, 4)
	store := NewMemStore()
	if err := store.Put(s.Root(), cube); err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(s, store)
	got, err := answer(eng, nil, s.Root())
	if err != nil {
		t.Fatal(err)
	}
	if &got.Data()[0] == &cube.Data()[0] {
		t.Fatal("Execute returned the store's own array")
	}
	got.Fill(0)
	if cube.Data()[0] == 0 && cube.Data()[1] == 0 {
		t.Fatal("mutating the result corrupted the store")
	}
}

// TestConcurrentExecutorScratchIsolation is the -race scratch-isolation
// test: many goroutines repeatedly execute (and then poison) every
// aggregated view through one shared engine. If two queries ever shared a
// scratch buffer, or a result aliased a stored element read in place, the
// poisoning Fill would corrupt a neighbour's result (caught by the Equal
// check) or trip the race detector.
func TestConcurrentExecutorScratchIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	s := velement.MustSpace(16, 8)
	cube := randomCube(rng, 16, 8)
	store, err := MaterializeSet(s, cube, velement.WaveletBasis(s))
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(s, store)

	views := s.AggregatedViews()
	want := make([]*ndarray.Array, len(views))
	for i, v := range views {
		want[i], _ = haar.ApplyRect(cube, v)
	}

	const goroutines = 8
	const rounds = 30
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				i := (g + round) % len(views)
				got, err := answer(eng, nil, views[i].Clone())
				if err != nil {
					errs <- err
					return
				}
				if !got.Equal(want[i], 1e-9) {
					t.Errorf("goroutine %d round %d: view %v corrupted (maxdiff %g)",
						g, round, views[i], got.MaxAbsDiff(want[i]))
					return
				}
				// Poison the buffer, then recycle it: the next query to
				// lease it must fully overwrite the poison.
				got.Fill(-1e308)
				ndarray.Recycle(got)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestExecutorPoolCounters checks the viewcube_exec_pool_{hits,misses}
// wiring: repeated execution of the same plan must start hitting the pool.
func TestExecutorPoolCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	s := velement.MustSpace(8, 8)
	cube := randomCube(rng, 8, 8)
	store := NewMemStore()
	if err := store.Put(s.Root(), cube.Clone()); err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(s, store)
	eng.SetMetrics(obs.NewAssemblyMetrics(obs.NewRegistry()))
	v := s.AggregatedViews()[1]
	for i := 0; i < 10; i++ {
		got, err := answer(eng, nil, v.Clone())
		if err != nil {
			t.Fatal(err)
		}
		ndarray.Recycle(got)
	}
	hits := eng.met.PoolHits.Value() + eng.met.PoolMisses.Value()
	if hits == 0 {
		t.Fatal("Execute's leases were not accounted on the pool counters")
	}
	if eng.met.PoolHits.Value() == 0 {
		t.Fatal("repeated identical executions never hit the scratch pool")
	}
}

// TestTracedConcurrentQueriesIsolated runs traced queries from many
// goroutines through one shared engine: every trace must hold only its own
// spans (ops reconcile per query), which under -race also pins the span
// tree's thread safety.
func TestTracedConcurrentQueriesIsolated(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	s := velement.MustSpace(16, 8)
	cube := randomCube(rng, 16, 8)
	store, err := MaterializeSet(s, cube, velement.WaveletBasis(s))
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(s, store)

	views := s.AggregatedViews()
	wantOps := make([]int64, len(views))
	for i, v := range views {
		tr := obs.NewTrace("q")
		if _, err := answer(eng, tr.Root(), v.Clone()); err != nil {
			t.Fatal(err)
		}
		tr.Finish()
		wantOps[i] = tr.Tree().SumAttr("ops")
	}

	const goroutines, rounds = 6, 20
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			for round := 0; round < rounds; round++ {
				i := (g + round) % len(views)
				tr := obs.NewTrace("q")
				if _, err := answer(eng, tr.Root(), views[i].Clone()); err != nil {
					errs <- err
					return
				}
				tr.Finish()
				if got := tr.Tree().SumAttr("ops"); got != wantOps[i] {
					errs <- fmt.Errorf("goroutine %d round %d: view %v ops %d, want %d",
						g, round, views[i], got, wantOps[i])
					return
				}
			}
			errs <- nil
		}(g)
	}
	for g := 0; g < goroutines; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestExecuteSpanPerPlanNode checks a traced execution against its plan:
// under "execute" one span per plan node, named for its kind and element,
// "ops" summing to the plan's cost and "cells" on every read; and the
// traced answer equals the untraced one bit for bit.
func TestExecuteSpanPerPlanNode(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	s := velement.MustSpace(16, 8, 4)
	cube := randomCube(rng, 16, 8, 4)
	store, err := MaterializeSet(s, cube, velement.WaveletBasis(s))
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(s, store)
	var want func(p *Plan) string
	want = func(p *Plan) string {
		switch p.Kind {
		case PlanStored:
			return "stored " + p.Rect.String() + "[cells]{}"
		case PlanAggregate:
			return "aggregate " + p.Rect.String() + " from " + p.Source.String() + "[cells,ops]{}"
		}
		kids := []string{want(p.Partial), want(p.Residual)}
		sort.Strings(kids)
		return fmt.Sprintf("synthesize %s dim=%d[ops]{%s}", p.Rect, p.Dim, strings.Join(kids, ";"))
	}
	var got func(n *obs.Span) string
	got = func(n *obs.Span) string {
		var attrs, kids []string
		for k := range n.Attrs {
			attrs = append(attrs, k)
		}
		for _, c := range n.Children {
			kids = append(kids, got(c))
		}
		sort.Strings(attrs)
		sort.Strings(kids)
		return fmt.Sprintf("%s[%s]{%s}", n.Name, strings.Join(attrs, ","), strings.Join(kids, ";"))
	}
	for _, v := range s.AggregatedViews() {
		p, err := eng.ComputePlan(v)
		if err != nil {
			t.Fatal(err)
		}
		tr := obs.NewTrace("q")
		a, err := eng.Execute(tr.Root(), p)
		if err != nil {
			t.Fatal(err)
		}
		tr.Finish()
		exec := tr.Tree().Find("execute")
		if exec == nil || len(exec.Children) != 1 || exec.Attrs["total_ops"] != int64(p.Ops) {
			t.Fatalf("view %v: execute span %+v, plan ops %d", v, exec, p.Ops)
		}
		if g, w := got(exec.Children[0]), want(p); g != w {
			t.Fatalf("view %v: span tree\n%s\nwant\n%s", v, g, w)
		}
		if ops := tr.Tree().SumAttr("ops"); ops != int64(p.Ops) {
			t.Fatalf("view %v: span ops sum to %d, plan costs %d", v, ops, p.Ops)
		}
		b, err := eng.Execute(nil, p)
		if err != nil {
			t.Fatal(err)
		}
		for i, x := range a.Data() {
			if math.Float64bits(x) != math.Float64bits(b.Data()[i]) {
				t.Fatalf("view %v: traced cell %d = %v, untraced %v", v, i, x, b.Data()[i])
			}
		}
		want, _ := haar.ApplyRect(cube, v)
		if !a.Equal(want, 0) {
			t.Fatalf("view %v differs from the oracle (maxdiff %g)", v, a.MaxAbsDiff(want))
		}
	}
}
