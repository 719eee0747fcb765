//go:build !race

package ndarray

// poison is a no-op outside the race detector: Recycle stays O(1).
func poison([]float64) {}
