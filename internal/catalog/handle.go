package catalog

import (
	"fmt"
	"sync"
	"sync/atomic"

	"viewcube"
)

// NewSafeHandle wraps a SafeEngine (and the cube it serves) as a
// CubeHandle. The SafeEngine already provides the read/write split, so the
// handle adds no locking of its own.
func NewSafeHandle(cube *viewcube.Cube, eng *viewcube.SafeEngine) CubeHandle {
	return &safeHandle{cube: cube, eng: eng}
}

type safeHandle struct {
	cube *viewcube.Cube
	eng  *viewcube.SafeEngine
}

func (h *safeHandle) Info() Info {
	return Info{
		Dimensions: h.cube.Dimensions(),
		Shape:      h.cube.Shape(),
		Volume:     h.cube.Volume(),
		Measure:    h.cube.Measure(),
	}
}

func (h *safeHandle) Query(traced bool, sql string) (*viewcube.QueryResult, *viewcube.QueryTrace, error) {
	if traced {
		return h.eng.TraceQuery(sql)
	}
	res, err := h.eng.Query(sql)
	return res, nil, err
}

func (h *safeHandle) GroupBy(traced bool, keep ...string) (map[string]float64, *viewcube.QueryTrace, error) {
	var (
		v   *viewcube.View
		tr  *viewcube.QueryTrace
		err error
	)
	if traced {
		v, tr, err = h.eng.TraceGroupBy(keep...)
	} else {
		v, err = h.eng.GroupBy(keep...)
	}
	if err != nil {
		return nil, nil, err
	}
	groups, err := v.Groups()
	if err != nil {
		return nil, nil, err
	}
	return groups, tr, nil
}

func (h *safeHandle) RangeSum(traced bool, ranges map[string]viewcube.ValueRange) (float64, *viewcube.QueryTrace, error) {
	if traced {
		return h.eng.TraceRangeSum(ranges)
	}
	sum, err := h.eng.RangeSum(ranges)
	return sum, nil, err
}

func (h *safeHandle) UpdateValue(delta float64, values map[string]string) error {
	return h.eng.UpdateValue(delta, values)
}

func (h *safeHandle) Optimize(views []HotView) error {
	w, err := buildWorkload(h.cube, views)
	if err != nil {
		return err
	}
	return h.eng.Optimize(w)
}

func (h *safeHandle) ExplainGroupBy(keep ...string) (string, error) {
	return h.eng.ExplainGroupBy(keep...)
}

func (h *safeHandle) Stats() Stats {
	return Stats{
		Engine:               h.eng.Stats(),
		Store:                h.eng.StoreStats(),
		PlanCache:            h.eng.PlanCacheStats(),
		MaterializedElements: h.eng.MaterializedElements(),
		StorageCells:         h.eng.StorageCells(),
	}
}

func (h *safeHandle) PlanCacheStats() viewcube.PlanCacheStats { return h.eng.PlanCacheStats() }

func (h *safeHandle) Metrics() *viewcube.Metrics { return h.eng.Metrics() }

// EnableIngest switches the handle's SafeEngine to the streaming write
// path; see SafeEngine.EnableIngest.
func (h *safeHandle) EnableIngest(opts viewcube.IngestOptions) error {
	return h.eng.EnableIngest(opts)
}

func (h *safeHandle) IngestEnabled() bool { return h.eng.IngestEnabled() }

// IngestValue delegates to UpdateValue, which routes through the ingest
// buffer whenever the streaming path is enabled and degrades to the locked
// write otherwise.
func (h *safeHandle) IngestValue(delta float64, values map[string]string) error {
	return h.eng.UpdateValue(delta, values)
}

func (h *safeHandle) FlushIngest() error { return h.eng.Flush() }

func (h *safeHandle) IngestStats() viewcube.IngestStats { return h.eng.IngestStats() }

func (h *safeHandle) CloseIngest() error {
	if !h.eng.IngestEnabled() {
		return nil
	}
	return h.eng.DisableIngest()
}

// NewAggHandle wraps a measure-vector AggEngine as a CubeHandle. AggEngine
// is not internally synchronised, so the handle serialises every call on
// one mutex — correct first; the scalar SafeEngine path stays the
// concurrent fast path.
func NewAggHandle(eng *viewcube.AggEngine) CubeHandle {
	return &aggHandle{eng: eng}
}

type aggHandle struct {
	mu  sync.Mutex
	eng *viewcube.AggEngine
	ing atomic.Pointer[viewcube.AggIngest]
}

func (h *aggHandle) Info() Info {
	h.mu.Lock()
	defer h.mu.Unlock()
	c := h.eng.Cube()
	return Info{
		Dimensions: c.Dimensions(),
		Shape:      c.Shape(),
		Volume:     c.Volume(),
		Measure:    c.Measure(),
	}
}

func (h *aggHandle) Query(traced bool, sql string) (*viewcube.QueryResult, *viewcube.QueryTrace, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if traced {
		return h.eng.TraceQuery(sql)
	}
	res, err := h.eng.Query(sql)
	return res, nil, err
}

func (h *aggHandle) GroupBy(traced bool, keep ...string) (map[string]float64, *viewcube.QueryTrace, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if traced {
		return h.eng.TraceGroupByAgg(viewcube.AggSum, keep...)
	}
	groups, err := h.eng.GroupByAgg(viewcube.AggSum, keep...)
	return groups, nil, err
}

func (h *aggHandle) RangeSum(traced bool, ranges map[string]viewcube.ValueRange) (float64, *viewcube.QueryTrace, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if traced {
		return h.eng.TraceRangeAgg(viewcube.AggSum, ranges)
	}
	sum, err := h.eng.RangeAgg(viewcube.AggSum, ranges)
	return sum, nil, err
}

func (h *aggHandle) UpdateValue(delta float64, values map[string]string) error {
	if ai := h.ing.Load(); ai != nil {
		return ai.IngestValue(delta, values)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.eng.UpdateValue(delta, values)
}

func (h *aggHandle) Optimize(views []HotView) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	w, err := buildWorkload(h.eng.Cube(), views)
	if err != nil {
		return err
	}
	return h.eng.Optimize(w)
}

func (h *aggHandle) ExplainGroupBy(keep ...string) (string, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.eng.ExplainAgg(viewcube.AggSum, keep...)
}

func (h *aggHandle) Stats() Stats {
	h.mu.Lock()
	defer h.mu.Unlock()
	return Stats{
		Engine:               h.eng.Stats(),
		Store:                h.eng.SumEngine().StoreStats(),
		PlanCache:            h.eng.SumEngine().PlanCacheStats(),
		MaterializedElements: h.eng.MaterializedElements(),
		StorageCells:         h.eng.StorageCells(),
	}
}

func (h *aggHandle) PlanCacheStats() viewcube.PlanCacheStats {
	h.mu.Lock()
	st := h.eng.SumEngine().PlanCacheStats()
	h.mu.Unlock()
	if ai := h.ing.Load(); ai != nil {
		st.Snapshot = ai.Batches()
	}
	return st
}

func (h *aggHandle) Metrics() *viewcube.Metrics {
	return h.eng.SumEngine().Metrics()
}

// EnableIngest starts the batched streaming write path over the vector
// engine: observations coalesce in a buffer and a background merger folds
// them in under the handle's own mutex, one invalidation per batch.
func (h *aggHandle) EnableIngest(opts viewcube.IngestOptions) error {
	if h.ing.Load() != nil {
		return fmt.Errorf("catalog: ingest already enabled")
	}
	ai, err := viewcube.NewAggIngest(h.eng, &h.mu, opts)
	if err != nil {
		return err
	}
	if !h.ing.CompareAndSwap(nil, ai) {
		ai.Close()
		return fmt.Errorf("catalog: ingest already enabled")
	}
	return nil
}

func (h *aggHandle) IngestEnabled() bool { return h.ing.Load() != nil }

func (h *aggHandle) IngestValue(delta float64, values map[string]string) error {
	return h.UpdateValue(delta, values)
}

func (h *aggHandle) FlushIngest() error {
	if ai := h.ing.Load(); ai != nil {
		return ai.Flush()
	}
	return nil
}

func (h *aggHandle) IngestStats() viewcube.IngestStats {
	if ai := h.ing.Load(); ai != nil {
		return ai.Stats()
	}
	return viewcube.IngestStats{}
}

func (h *aggHandle) CloseIngest() error {
	if ai := h.ing.Swap(nil); ai != nil {
		return ai.Close()
	}
	return nil
}

// NewPartitionedHandle wraps a sharded PartitionedEngine as a CubeHandle.
// Distributive reads (GroupBy, RangeSum) fan out to the shards — the
// in-process fan-out has no traced form, so their trace is always nil; SQL,
// updates and explains are not distributive across shard encodings and
// fail with ErrUnsupported. Shape/Volume are per-shard properties and are
// left zero in Info.
func NewPartitionedHandle(eng *viewcube.PartitionedEngine) CubeHandle {
	return &partitionedHandle{eng: eng}
}

type partitionedHandle struct {
	eng *viewcube.PartitionedEngine
}

func (h *partitionedHandle) Info() Info {
	return Info{
		Dimensions: h.eng.Dimensions(),
		Measure:    h.eng.Measure(),
	}
}

func (h *partitionedHandle) Query(bool, string) (*viewcube.QueryResult, *viewcube.QueryTrace, error) {
	return nil, nil, fmt.Errorf("sql over a partitioned cube: %w", ErrUnsupported)
}

func (h *partitionedHandle) GroupBy(_ bool, keep ...string) (map[string]float64, *viewcube.QueryTrace, error) {
	groups, err := h.eng.GroupBy(keep...)
	return groups, nil, err
}

func (h *partitionedHandle) RangeSum(_ bool, ranges map[string]viewcube.ValueRange) (float64, *viewcube.QueryTrace, error) {
	sum, err := h.eng.RangeSum(ranges)
	return sum, nil, err
}

func (h *partitionedHandle) UpdateValue(float64, map[string]string) error {
	return fmt.Errorf("update over a partitioned cube: %w", ErrUnsupported)
}

func (h *partitionedHandle) Optimize(views []HotView) error {
	keeps := make([][]string, len(views))
	freqs := make([]float64, len(views))
	for i, v := range views {
		keeps[i] = v.Keep
		freqs[i] = v.Freq
	}
	return h.eng.Optimize(keeps, freqs)
}

func (h *partitionedHandle) ExplainGroupBy(...string) (string, error) {
	return "", fmt.Errorf("explain over a partitioned cube: %w", ErrUnsupported)
}

func (h *partitionedHandle) Stats() Stats {
	s := Stats{PlanCache: h.eng.PlanCacheStats()}
	for i := 0; i < h.eng.Shards(); i++ {
		sh := h.eng.Shard(i)
		s.MaterializedElements += sh.MaterializedElements()
		s.StorageCells += sh.StorageCells()
	}
	return s
}

func (h *partitionedHandle) PlanCacheStats() viewcube.PlanCacheStats {
	return h.eng.PlanCacheStats()
}

func (h *partitionedHandle) Metrics() *viewcube.Metrics {
	return h.eng.Shard(0).Metrics()
}

// buildWorkload converts the serializable hot-view form into an engine
// Workload against a concrete cube.
func buildWorkload(c *viewcube.Cube, views []HotView) (*viewcube.Workload, error) {
	w := c.NewWorkload()
	for _, hv := range views {
		if err := w.AddViewKeeping(hv.Freq, hv.Keep...); err != nil {
			return nil, fmt.Errorf("%w: %w", ErrInvalidWorkload, err)
		}
	}
	return w, nil
}
