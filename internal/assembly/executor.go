package assembly

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"viewcube/internal/freq"
	"viewcube/internal/haar"
	"viewcube/internal/ndarray"
	"viewcube/internal/obs"
)

// DefaultParallelCells is the default fan-out threshold: a synthesize node
// forks its partial subtree onto another worker only when the node's own
// interleave work (its cell count) is at least this large. Below it the
// goroutine handoff costs more than the arithmetic it hides.
const DefaultParallelCells = 4096

// Executor runs plan trees against an engine's store using pooled scratch
// buffers and bounded intra-query parallelism. It owns every buffer it
// leases: intermediates are recycled the moment the next kernel has
// consumed them — on error paths too — so steady-state execution allocates
// only the final result (and not even that, when the pool can serve it).
//
// Independent synthesize subtrees run on a bounded worker pool: a
// synthesize node whose own cell count reaches the threshold tries to
// acquire a slot and, if one is free, computes its partial child on a new
// goroutine while the current goroutine computes the residual child. The
// try-acquire never blocks, so the recursion cannot deadlock however deep
// the fan-out. Traced executions parallelise identically: spans carry
// explicit parents and attach atomically (see obs.Span), so the forked
// subtree records under its own span from its own goroutine.
//
// An Executor is immutable after construction and safe for any number of
// concurrent Run calls; the worker slots are shared across them.
type Executor struct {
	eng *Engine
	// sem holds the extra worker slots: capacity workers−1, because the
	// calling goroutine is itself the first worker.
	sem       chan struct{}
	threshold int
}

// newExecutor builds an executor for eng. workers ≤ 0 defaults to
// GOMAXPROCS; parallelCells ≤ 0 defaults to DefaultParallelCells.
// workers = 1 yields a fully serial executor.
func newExecutor(eng *Engine, workers, parallelCells int) *Executor {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if parallelCells <= 0 {
		parallelCells = DefaultParallelCells
	}
	return &Executor{
		eng:       eng,
		sem:       make(chan struct{}, workers-1),
		threshold: parallelCells,
	}
}

// execState is the per-query mutable state shared by the goroutines of one
// Run call.
type execState struct {
	// traced records whether the query carries a live trace. Only traced
	// executions pay for span bookkeeping — building the span-name
	// strings dominates steady-state allocations otherwise.
	traced bool
	// parallelNodes counts synthesize nodes that actually forked.
	parallelNodes atomic.Int64
}

// Run executes a plan and returns the produced element, with as many planes
// as the stored elements it reads. The result is owned by the caller. While
// x carries a trace, one span is recorded per plan node plus a
// "parallel_nodes" attribute on the root span counting synthesize nodes
// that forked onto another worker, and a "measure_width" one when the
// element has more than one plane.
func (ex *Executor) Run(x *obs.ExecCtx, p *Plan) (*ndarray.Array, error) {
	st := &execState{traced: x.Tracing()}
	if !st.traced {
		return ex.node(x, st, p)
	}
	sp := x.Start("execute " + p.Rect.String())
	sp.SetAttr("total_ops", int64(p.Ops))
	defer sp.End()
	out, err := ex.node(x.Under(sp), st, p)
	if out != nil && out.Planes() > 1 {
		sp.SetAttr("measure_width", int64(out.Planes()))
	}
	sp.SetAttr("parallel_nodes", st.parallelNodes.Load())
	return out, err
}

// lease takes a scratch buffer of planes planes from the pool, accounting
// the hit/miss on the engine's metrics.
func (ex *Executor) lease(planes int, shape ...int) *ndarray.Array {
	a, hit := ndarray.ScratchPlanes(planes, shape...)
	if hit {
		ex.eng.met.PoolHits.Inc()
	} else {
		ex.eng.met.PoolMisses.Inc()
	}
	return a
}

// leaseCopy leases a buffer shaped like a and copies a into it.
func (ex *Executor) leaseCopy(a *ndarray.Array) *ndarray.Array {
	var shapeBuf [8]int
	dst := ex.lease(a.Planes(), a.ShapeInto(shapeBuf[:0])...)
	copy(dst.Data(), a.Data())
	return dst
}

// leaseDense leases a buffer shaped like c and writes c's cells into it.
func (ex *Executor) leaseDense(c *ndarray.Coo) *ndarray.Array {
	var shapeBuf [8]int
	dst := ex.lease(1, c.ShapeInto(shapeBuf[:0])...)
	c.DenseInto(dst)
	return dst
}

// read fetches a stored element: as its nonzeros (c) when a MemStore holds
// it so — Get would densify it — else as an array (a). Either way every
// cell counts as read, zeros included.
func (ex *Executor) read(x *obs.ExecCtx, sp *obs.Span, r freq.Rect) (a *ndarray.Array, c *ndarray.Coo, ok bool) {
	if ms, isMem := ex.eng.store.(*MemStore); isMem {
		a, c, ok = ms.read(r)
	} else {
		a, ok = ex.eng.get(x, r)
	}
	size := 0
	switch {
	case c != nil:
		size = c.Size()
	case ok:
		size = a.Size()
	}
	ex.eng.met.CellsRead.Add(uint64(size))
	sp.SetAttr("cells", int64(size))
	return a, c, ok
}

// node executes one plan node. Every array it returns is private to the
// caller (never shared with the store or another query), so callers may
// Recycle it freely; every array it consumes it either recycles or returns.
// The per-node span/counter bookkeeping mirrors the modelled cost exactly:
// each span's "ops" attr is that node's own work, so summing "ops" over the
// span tree reproduces PlanCost.
func (ex *Executor) node(x *obs.ExecCtx, st *execState, p *Plan) (*ndarray.Array, error) {
	e := ex.eng
	switch p.Kind {
	case PlanStored:
		var sp *obs.Span
		if st.traced {
			sp = x.Start("stored " + p.Rect.String())
			defer sp.End()
			x = x.Under(sp)
		}
		a, c, ok := ex.read(x, sp, p.Rect)
		if !ok {
			return nil, fmt.Errorf("assembly: plan references %v but it is not stored", p.Rect)
		}
		e.met.StoredNodes.Inc()
		if c != nil {
			return ex.leaseDense(c), nil
		}
		if e.cloning {
			// The store already handed us a private copy; copying again
			// would be the second of two copies where one suffices.
			return a, nil
		}
		return ex.leaseCopy(a), nil

	case PlanAggregate:
		var sp *obs.Span
		if st.traced {
			sp = x.Start("aggregate " + p.Rect.String() + " from " + p.Source.String())
			sp.SetAttr("ops", int64(p.Ops))
			defer sp.End()
			x = x.Under(sp)
		}
		src, c, ok := ex.read(x, sp, p.Source)
		if !ok {
			return nil, fmt.Errorf("assembly: plan references stored ancestor %v but it is absent", p.Source)
		}
		e.met.AggregateNodes.Inc()
		e.met.OpsModeled.Add(uint64(p.Ops))
		folds := p.Folds
		if folds == nil {
			// Planner-built aggregates carry their folds; hand-built plans
			// derive them here.
			var err error
			folds, err = haar.PathFolds(p.Source, p.Rect)
			if err != nil {
				return nil, err
			}
		}
		own := e.cloning // src is ours to recycle once a fold consumed it
		if c != nil && len(folds) > 0 {
			// A sparse source: the first fold reads its nonzeros, the rest
			// run dense. A fold the extent cannot take fails in FoldKInto.
			f, shapeBuf := folds[0], [8]int{}
			outShape := c.ShapeInto(shapeBuf[:0])
			outShape[f.Dim] = max(outShape[f.Dim]>>uint(f.K), 1)
			src, own, folds = ex.lease(1, outShape...), true, folds[1:]
			if err := c.FoldKInto(f.Dim, f.K, f.Signs, src); err != nil {
				ndarray.Recycle(src)
				return nil, err
			}
		} else if c != nil {
			src, own = ex.leaseDense(c), true
		}
		cur := src
		var shapeBuf [8]int
		for _, f := range folds {
			block := 1 << uint(f.K)
			if cur.Dim(f.Dim)%block != 0 {
				if cur != src {
					ndarray.Recycle(cur)
				}
				return nil, fmt.Errorf("assembly: stored %v extent on dim %d is not divisible by 2^%d", p.Source, f.Dim, f.K)
			}
			outShape := cur.ShapeInto(shapeBuf[:0])
			outShape[f.Dim] /= block
			dst := ex.lease(cur.Planes(), outShape...)
			err := cur.FoldKInto(f.Dim, f.K, f.Signs, dst)
			if cur != src {
				ndarray.Recycle(cur)
			}
			if err != nil {
				ndarray.Recycle(dst)
				return nil, err
			}
			cur = dst
		}
		if cur == src {
			// Source == Rect never plans as an aggregate, but stay correct
			// if a hand-built plan does it.
			if own {
				return src, nil
			}
			return ex.leaseCopy(src), nil
		}
		if own {
			// src was a private copy from the store or the sparse fold's
			// output; a fold has consumed it.
			ndarray.Recycle(src)
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

		var part, res *ndarray.Array
		var perr, rerr error
		forked := false
		if ownOps >= ex.threshold {
			// Try-acquire: fork the partial subtree only if a worker slot
			// is free right now. Blocking here could deadlock (ancestors
			// hold no slots, but sibling queries might hold them all).
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
			// Whichever child did materialise is ours; hand it back.
			if part != nil {
				ndarray.Recycle(part)
			}
			if res != nil {
				ndarray.Recycle(res)
			}
			if perr != nil {
				return nil, perr
			}
			return nil, rerr
		}
		var shapeBuf [8]int
		outShape := part.ShapeInto(shapeBuf[:0])
		outShape[p.Dim] *= 2
		dst := ex.lease(part.Planes(), outShape...)
		err := ndarray.InterleaveInto(p.Dim, part, res, dst)
		ndarray.Recycle(part)
		ndarray.Recycle(res)
		if err != nil {
			ndarray.Recycle(dst)
			return nil, err
		}
		return dst, nil

	default:
		return nil, fmt.Errorf("assembly: unknown plan kind %v", p.Kind)
	}
}
