package server

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"viewcube/internal/cluster"
	"viewcube/internal/rescache"
)

// cacheContract is every cache family in /metrics and every key of a
// plan_cache / result_cache JSON block an operator or cmd/cubebench may read,
// as "face name type" (a JSON number decodes as float64).
const cacheContract = `
single viewcube_plan_cache_hits_total counter
single viewcube_plan_cache_misses_total counter
single viewcube_plan_cache_invalidations_total counter
single plan_cache.hits float64
single plan_cache.misses float64
single plan_cache.invalidations float64
single plan_cache.epoch float64
single plan_cache.entries float64
single result_cache.hits float64
single result_cache.misses float64
single result_cache.evictions float64
single result_cache.invalidations float64
single result_cache.epoch float64
single result_cache.entries float64
single result_cache.bytes float64
coordinator viewcube_result_cache_hits_total counter
coordinator viewcube_result_cache_misses_total counter
coordinator viewcube_result_cache_evictions_total counter
coordinator viewcube_result_cache_invalidations_total counter
coordinator viewcube_result_cache_bytes gauge
coordinator viewcube_result_cache_entries gauge
coordinator result_cache.hits float64
coordinator result_cache.misses float64
coordinator result_cache.evictions float64
coordinator result_cache.invalidations float64
coordinator result_cache.epoch float64
coordinator result_cache.entries float64
coordinator result_cache.bytes float64
`

// TestCacheObservabilityContract boots a single-cube server with a result
// cache and a coordinator with one, and checks every cacheContract name is
// still exposed with its type. Names may be added; none of these may be
// renamed, retyped or removed.
func TestCacheObservabilityContract(t *testing.T) {
	cube, eng := newCubeEngine(t)
	single := newTestServer(t, New(cube, eng, quiet, WithResultCache(rescache.Options{})))
	coord, err := cluster.NewCoordinator(coordShards(t), cluster.Options{Timeout: time.Second, Cache: &rescache.Options{}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	coordTS := newTestServer(t, NewCoordinator(coord, quietCoordLog()))
	for i := 0; i < 2; i++ { // a miss, then a hit, on each face
		getBody(t, single.URL+"/groupby?keep=product")
		getBody(t, coordTS.URL+"/groupby?keep=product")
	}

	got := map[string]string{}
	families := func(face, url string) {
		_, body := getBody(t, url+"/metrics")
		for _, line := range strings.Split(body, "\n") {
			if f := strings.Fields(line); len(f) == 4 && f[1] == "TYPE" {
				got[face+" "+f[2]] = f[3]
			}
		}
	}
	keys := func(face, url, block string) {
		var out map[string]any
		getJSON(t, url, &out)
		m, _ := out[block].(map[string]any)
		for k, v := range m {
			got[fmt.Sprintf("%s %s.%s", face, block, k)] = fmt.Sprintf("%T", v)
		}
	}
	families("single", single.URL)
	families("coordinator", coordTS.URL)
	keys("single", single.URL+"/stats", "result_cache")
	keys("single", single.URL+"/explain?keep=product", "plan_cache")
	keys("coordinator", coordTS.URL+"/shards", "result_cache")

	for _, line := range strings.Split(strings.TrimSpace(cacheContract), "\n") {
		f := strings.Fields(line)
		if name := f[0] + " " + f[1]; got[name] != f[2] {
			t.Errorf("%s: type %q, want %q", name, got[name], f[2])
		}
	}
}
