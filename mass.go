package viewcube

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"viewcube/internal/relation"
)

// mass is Σ|v| per measure component over what a cube has taken in: its
// cells when an engine attached, then every accepted delta. Each cell of each
// view element is a ± sum of cube cells, so within relation.MaxMass none
// overflows to ±Inf and every answer stays encodable.
type mass struct {
	mu  sync.Mutex
	sum []float64
	// top is the bits of the largest component of sum, for lock-free reads.
	top atomic.Uint64
}

// massOf is the mass of width component planes laid end to end in data.
func massOf(width int, data []float64) (*mass, error) {
	cells, n := make([]float64, width), len(data)/width
	for c := range cells {
		for _, v := range data[c*n : (c+1)*n] {
			cells[c] += math.Abs(v)
		}
	}
	m := &mass{sum: make([]float64, width)}
	return m, m.admit(cells)
}

// admit takes in a delta, or fails and leaves the mass as it was if the
// delta would take a component past the bound (a NaN or an infinity does).
func (m *mass) admit(vals []float64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for c, v := range vals {
		if len(vals) != len(m.sum) || !(m.sum[c]+math.Abs(v) <= relation.MaxMass) {
			return fmt.Errorf("viewcube: %v would take the cube's Σ|v| past %g, where a cell could overflow", vals, relation.MaxMass)
		}
	}
	top := 0.0
	for c, v := range vals {
		m.sum[c] += math.Abs(v)
		top = max(top, m.sum[c])
	}
	m.top.Store(math.Float64bits(top))
	return nil
}

// bound is the largest component's Σ|v|: every plane of every view element
// sums to at most this in magnitude. It only grows, so a stale read is still
// a bound for what it was read against.
func (m *mass) bound() float64 { return math.Float64frombits(m.top.Load()) }
