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
