package main

import (
	"encoding/json"
	"fmt"
	"time"
)

// The builder machine's speed shifts by 10–20 % for tens of seconds at a
// time (memory-bound code more than compute-bound), which is longer than a
// run. calibrate times a fixed piece of work that is shaped like what cubed
// does per query — build a string-keyed map, encode it as JSON, decode it —
// using only the standard library, so it changes with the machine and the Go
// release but never with this repository's code. The timed phase pauses its
// readers every windowLength to take one sample; the mean of a run's samples
// over calibNominal is the run's slowness, and the three clock metrics (qps,
// lat_p50_ms, cpu_ms_per_query) are reported as they would have read at
// nominal speed. One sample is too noisy to correct one window with — only
// the run-level mean tracks the machine. The unscaled numbers are reported
// beside them as client.raw_*; README.md has the measurements behind this.

var calibKeys = func() []string {
	keys := make([]string, 2048)
	for i := range keys {
		keys[i] = fmt.Sprintf("product-%03d/day-%03d", i/32, i%32)
	}
	return keys
}()

// calibRounds sizes the kernel to roughly calibNominal on the builder when
// it is quiet; a run's clock metrics are reported as if the kernel had taken
// exactly calibNominal throughout.
const (
	calibRounds  = 10
	calibNominal = 20 * time.Millisecond
)

func calibrate() time.Duration {
	start := time.Now()
	for r := 0; r < calibRounds; r++ {
		m := make(map[string]float64, len(calibKeys))
		for i, k := range calibKeys {
			m[k] = float64(i * r)
		}
		data, err := json.Marshal(m)
		if err == nil {
			var back map[string]float64
			err = json.Unmarshal(data, &back)
		}
		if err != nil {
			panic(err) // unreachable: a map of floats
		}
	}
	return time.Since(start)
}
