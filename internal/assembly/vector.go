package assembly

import (
	"fmt"
	"runtime"

	"viewcube/internal/freq"
	"viewcube/internal/haar"
	"viewcube/internal/ndarray"
	"viewcube/internal/obs"
	"viewcube/internal/velement"
)

// VectorEngine answers measure-vector view-element queries from a
// MultiStore: the same Procedure 3 planning (plan geometry is
// width-independent, so the scalar planner is reused verbatim) and the same
// pooled, bounded-parallel execution discipline as Engine, with every
// kernel applied per component plane. One VectorEngine replaces the w
// scalar engines a component-per-engine design would need, reading each
// stored element once per query instead of once per component.
type VectorEngine struct {
	space *velement.Space
	store MultiStore
	width int
	met   *obs.AssemblyMetrics
	ex    *vectorExecutor
}

// NewVectorEngine returns a vector engine over the given space and store
// for the given component width.
func NewVectorEngine(space *velement.Space, store MultiStore, width int) *VectorEngine {
	e := &VectorEngine{space: space, store: store, width: width, met: obs.NewAssemblyMetrics(nil)}
	e.ex = newVectorExecutor(e, 0, 0)
	return e
}

// SetExecutor replaces the executor configuration (same contract as
// Engine.SetExecutor). Call during wiring.
func (e *VectorEngine) SetExecutor(workers, parallelCells int) {
	e.ex = newVectorExecutor(e, workers, parallelCells)
}

// SetMetrics attaches registered instruments; nil restores the no-op set.
func (e *VectorEngine) SetMetrics(m *obs.AssemblyMetrics) {
	if m == nil {
		m = obs.NewAssemblyMetrics(nil)
	}
	e.met = m
}

// Space returns the engine's view element space.
func (e *VectorEngine) Space() *velement.Space { return e.space }

// Store returns the engine's vector element store.
func (e *VectorEngine) Store() MultiStore { return e.store }

// Width returns the measure-vector component width.
func (e *VectorEngine) Width() int { return e.width }

// ComputePlan implements plan.PlanSource: the Procedure 3 cost recursion
// over the vector store's rectangle set. Costs are modelled in logical
// cells (as everywhere else); the executor does width× the scalar work per
// modelled op.
func (e *VectorEngine) ComputePlan(r freq.Rect) (*Plan, error) {
	return computePlan(e.space, e.store.Elements(), e.met, r)
}

// Answer plans and executes the query for element r. The result is a
// caller-owned (pool-leased) vector; hand it back with
// ndarray.RecycleMulti when done, or keep it forever.
func (e *VectorEngine) Answer(x *obs.ExecCtx, r freq.Rect) (*ndarray.MultiArray, error) {
	plan, err := e.ComputePlan(r)
	if err != nil {
		return nil, err
	}
	return e.Execute(x, plan)
}

// Execute runs a plan and returns the produced vector element (caller
// owned, pool-leased). While x carries a trace, one span is recorded per
// plan node, with a measure_width attribute on the root execute span so
// traces distinguish vector from scalar execution.
func (e *VectorEngine) Execute(x *obs.ExecCtx, p *Plan) (*ndarray.MultiArray, error) {
	e.met.Executions.Inc()
	return e.ex.Run(x, p)
}

// vectorExecutor mirrors Executor over MultiArray kernels: pooled vector
// scratch buffers, fused per-component cascades, try-acquire fork
// parallelism. Thresholds are in logical cells, matching the scalar
// executor's plan-cost units.
type vectorExecutor struct {
	eng       *VectorEngine
	sem       chan struct{}
	threshold int
}

func newVectorExecutor(eng *VectorEngine, workers, parallelCells int) *vectorExecutor {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if parallelCells <= 0 {
		parallelCells = DefaultParallelCells
	}
	return &vectorExecutor{
		eng:       eng,
		sem:       make(chan struct{}, workers-1),
		threshold: parallelCells,
	}
}

// Run executes a plan tree. The result is owned by the caller.
func (ex *vectorExecutor) Run(x *obs.ExecCtx, p *Plan) (*ndarray.MultiArray, error) {
	st := &execState{traced: x.Tracing()}
	if !st.traced {
		return ex.node(x, st, p)
	}
	sp := x.Start("execute " + p.Rect.String())
	sp.SetAttr("total_ops", int64(p.Ops))
	sp.SetAttr("measure_width", int64(ex.eng.width))
	defer sp.End()
	out, err := ex.node(x.Under(sp), st, p)
	sp.SetAttr("parallel_nodes", st.parallelNodes.Load())
	return out, err
}

func (ex *vectorExecutor) lease(shape ...int) *ndarray.MultiArray {
	a, hit := ndarray.ScratchMulti(ex.eng.width, shape...)
	if hit {
		ex.eng.met.PoolHits.Inc()
	} else {
		ex.eng.met.PoolMisses.Inc()
	}
	return a
}

func (ex *vectorExecutor) leaseCopy(a *ndarray.MultiArray) *ndarray.MultiArray {
	var shapeBuf [8]int
	dst := ex.lease(a.Component(0).ShapeInto(shapeBuf[:0])...)
	copy(dst.Data(), a.Data())
	return dst
}

// node executes one plan node; ownership and span/counter bookkeeping
// mirror Executor.node exactly, with cell accounting in stored scalars
// (width × cells) since that is the memory actually moved.
func (ex *vectorExecutor) node(x *obs.ExecCtx, st *execState, p *Plan) (*ndarray.MultiArray, error) {
	e := ex.eng
	switch p.Kind {
	case PlanStored:
		var sp *obs.Span
		if st.traced {
			sp = x.Start("stored " + p.Rect.String())
			defer sp.End()
			x = x.Under(sp)
		}
		a, ok := e.store.Get(p.Rect)
		if !ok {
			return nil, fmt.Errorf("assembly: plan references %v but it is not stored", p.Rect)
		}
		e.met.StoredNodes.Inc()
		e.met.CellsRead.Add(uint64(a.Size()))
		sp.SetAttr("cells", int64(a.Size()))
		return ex.leaseCopy(a), nil

	case PlanAggregate:
		var sp *obs.Span
		if st.traced {
			sp = x.Start("aggregate " + p.Rect.String() + " from " + p.Source.String())
			sp.SetAttr("ops", int64(p.Ops))
			defer sp.End()
			x = x.Under(sp)
		}
		src, ok := e.store.Get(p.Source)
		if !ok {
			return nil, fmt.Errorf("assembly: plan references stored ancestor %v but it is absent", p.Source)
		}
		e.met.AggregateNodes.Inc()
		e.met.CellsRead.Add(uint64(src.Size()))
		e.met.OpsModeled.Add(uint64(p.Ops))
		sp.SetAttr("cells", int64(src.Size()))
		folds := p.Folds
		if folds == nil {
			var err error
			folds, err = haar.PathFolds(p.Source, p.Rect)
			if err != nil {
				return nil, err
			}
		}
		cur := src
		var shapeBuf [8]int
		for _, f := range folds {
			block := 1 << uint(f.K)
			if cur.Dim(f.Dim)%block != 0 {
				if cur != src {
					ndarray.RecycleMulti(cur)
				}
				return nil, fmt.Errorf("assembly: stored %v extent on dim %d is not divisible by 2^%d", p.Source, f.Dim, f.K)
			}
			outShape := cur.Component(0).ShapeInto(shapeBuf[:0])
			outShape[f.Dim] /= block
			dst := ex.lease(outShape...)
			err := cur.FoldKInto(f.Dim, f.K, f.Signs, dst)
			if cur != src {
				ndarray.RecycleMulti(cur)
			}
			if err != nil {
				ndarray.RecycleMulti(dst)
				return nil, err
			}
			cur = dst
		}
		if cur == src {
			return ex.leaseCopy(src), nil
		}
		return cur, nil

	case PlanSynthesize:
		ownOps := p.Ops - p.Partial.Ops - p.Residual.Ops
		if st.traced {
			sp := x.Start(fmt.Sprintf("synthesize %s dim=%d", p.Rect.String(), p.Dim))
			sp.SetAttr("ops", int64(ownOps))
			defer sp.End()
			x = x.Under(sp)
		}
		e.met.SynthesizeNodes.Inc()
		e.met.OpsModeled.Add(uint64(ownOps))

		var part, res *ndarray.MultiArray
		var perr, rerr error
		forked := false
		if ownOps >= ex.threshold {
			select {
			case ex.sem <- struct{}{}:
				forked = true
				st.parallelNodes.Add(1)
				done := make(chan struct{})
				go func(x *obs.ExecCtx) {
					defer close(done)
					defer func() { <-ex.sem }()
					part, perr = ex.node(x, st, p.Partial)
				}(x)
				res, rerr = ex.node(x, st, p.Residual)
				<-done
			default:
			}
		}
		if !forked {
			part, perr = ex.node(x, st, p.Partial)
			if perr == nil {
				res, rerr = ex.node(x, st, p.Residual)
			}
		}
		if perr != nil || rerr != nil {
			if part != nil {
				ndarray.RecycleMulti(part)
			}
			if res != nil {
				ndarray.RecycleMulti(res)
			}
			if perr != nil {
				return nil, perr
			}
			return nil, rerr
		}
		var shapeBuf [8]int
		outShape := part.Component(0).ShapeInto(shapeBuf[:0])
		outShape[p.Dim] *= 2
		dst := ex.lease(outShape...)
		err := ndarray.InterleaveMultiInto(p.Dim, part, res, dst)
		ndarray.RecycleMulti(part)
		ndarray.RecycleMulti(res)
		if err != nil {
			ndarray.RecycleMulti(dst)
			return nil, err
		}
		return dst, nil

	default:
		return nil, fmt.Errorf("assembly: unknown plan kind %v", p.Kind)
	}
}

// UpdateCellMulti applies a per-component delta vector to the cube cell at
// idx across every element of the vector store — the measure-vector form of
// UpdateCell. Each stored vector element changes in exactly one cell per
// component, by ±delta[c] (linearity holds per component).
func UpdateCellMulti(space *velement.Space, st MultiStore, delta []float64, idx []int) error {
	if len(idx) != space.Rank() {
		return fmt.Errorf("assembly: index rank %d does not match space rank %d", len(idx), space.Rank())
	}
	shape := space.Shape()
	for m, i := range idx {
		if i < 0 || i >= shape[m] {
			return fmt.Errorf("assembly: index %v out of bounds for shape %v", idx, shape)
		}
	}
	zero := true
	for _, d := range delta {
		if d != 0 {
			zero = false
			break
		}
	}
	if zero {
		return nil
	}
	for _, r := range st.Elements() {
		a, ok := st.Get(r)
		if !ok {
			return fmt.Errorf("assembly: element %v listed but not retrievable", r)
		}
		if len(delta) != a.Width() {
			return fmt.Errorf("assembly: delta width %d does not match stored width %d", len(delta), a.Width())
		}
		elemIdx, sign, err := haar.CellContribution(r, idx)
		if err != nil {
			return err
		}
		for c := 0; c < a.Width(); c++ {
			a.Component(c).Add(float64(sign)*delta[c], elemIdx...)
		}
		if err := st.Put(r, a); err != nil {
			return fmt.Errorf("assembly: persisting update to %v: %w", r, err)
		}
	}
	return nil
}
