package catalog

import (
	"fmt"

	"viewcube"
)

// NewSafeHandle wraps an Engine (and the cube it serves) as a CubeHandle.
// The engine already provides the read/write split and snapshot readers
// under ingest, so the handle adds no locking of its own. Its
// group-bys, ranges and explains answer SUM at any measure width; on a
// measure-vector cube the other aggregate kinds are reachable through Query.
func NewSafeHandle(cube *viewcube.Cube, eng *viewcube.Engine) CubeHandle {
	return &safeHandle{cube, eng}
}

type safeHandle struct {
	cube *viewcube.Cube
	eng  *viewcube.Engine
}

func (h *safeHandle) Info() Info {
	return Info{
		Dimensions: h.cube.Dimensions(),
		Shape:      h.cube.Shape(),
		Volume:     h.cube.Volume(),
		Measure:    h.cube.Measure(),
	}
}

func (h *safeHandle) Query(traced bool, sql string) (*viewcube.Result, *viewcube.QueryTrace, error) {
	return h.eng.Select(traced, sql)
}

func (h *safeHandle) GroupBy(traced bool, keep ...string) (*viewcube.Result, *viewcube.QueryTrace, error) {
	return h.eng.GroupByResult(traced, keep...)
}

func (h *safeHandle) RangeSum(traced bool, ranges map[string]viewcube.ValueRange) (float64, *viewcube.QueryTrace, error) {
	sum, _, qt, err := h.eng.RangeResult(traced, viewcube.RangeQuery{Ranges: ranges})
	return sum, qt, err
}

func (h *safeHandle) ExplainGroupBy(keep ...string) (string, error) {
	return h.eng.ExplainGroupBy(keep...)
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

func (h *safeHandle) Stats() Stats {
	return Stats{
		Engine:               h.eng.Stats(),
		Store:                h.eng.StoreStats(),
		PlanCache:            h.eng.PlanCacheStats(),
		MaterializedElements: h.eng.MaterializedElements(),
		StorageCells:         h.eng.StorageCells(),
		ResidentCells:        h.eng.ResidentCells(),
	}
}

func (h *safeHandle) PlanCacheStats() viewcube.PlanCacheStats { return h.eng.PlanCacheStats() }

func (h *safeHandle) DataVersion() uint64 { return h.eng.DataVersion() }

func (h *safeHandle) Metrics() *viewcube.Metrics { return h.eng.Metrics() }

func (h *safeHandle) IngestEnabled() bool { return h.eng.IngestEnabled() }

// IngestValue delegates to UpdateValue, which routes through the ingest
// buffer whenever the streaming path is enabled and degrades to the locked
// write otherwise.
func (h *safeHandle) IngestValue(delta float64, values map[string]string) error {
	return h.eng.UpdateValue(delta, values)
}

func (h *safeHandle) FlushIngest() error { return h.eng.Flush() }

func (h *safeHandle) IngestStats() viewcube.IngestStats { return h.eng.IngestStats() }

func (h *safeHandle) CloseIngest() error { return h.eng.DisableIngest() }

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

func (h *partitionedHandle) Query(bool, string) (*viewcube.Result, *viewcube.QueryTrace, error) {
	return nil, nil, fmt.Errorf("sql over a partitioned cube: %w", ErrUnsupported)
}

func (h *partitionedHandle) GroupBy(_ bool, keep ...string) (*viewcube.Result, *viewcube.QueryTrace, error) {
	res, err := h.eng.GroupByResult(keep...)
	return res, nil, err
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
		s.ResidentCells += sh.ResidentCells()
	}
	return s
}

func (h *partitionedHandle) PlanCacheStats() viewcube.PlanCacheStats {
	return h.eng.PlanCacheStats()
}

func (h *partitionedHandle) DataVersion() uint64 { return h.eng.DataVersion() }

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
