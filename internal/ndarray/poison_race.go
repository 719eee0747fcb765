//go:build race

package ndarray

import "math"

// poison fills a recycled backing store with NaN, so under the race
// detector a stale holder of a recycled array reads NaN — which no exact
// oracle accepts — instead of whatever the next lease writes.
func poison(data []float64) {
	nan := math.NaN()
	for i := range data {
		data[i] = nan
	}
}
