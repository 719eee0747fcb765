package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"
)

// startCubed runs cubed with the given config in a goroutine and waits for
// its listeners to come up. SIGTERM to the test process (intercepted by
// run's signal.NotifyContext, so the test binary survives) shuts it down;
// the returned channel yields run's error.
func startCubed(t *testing.T, cfg config) (httpAddr, shardAddr string, done chan error) {
	t.Helper()
	type addrs struct{ http, shard string }
	readyCh := make(chan addrs, 1)
	cfg.addr = "127.0.0.1:0"
	if cfg.shard {
		cfg.shardAddr = "127.0.0.1:0"
	}
	cfg.ready = func(h, s string) { readyCh <- addrs{h, s} }
	if cfg.logW == nil {
		devNull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { devNull.Close() })
		cfg.logW = devNull
	}
	done = make(chan error, 1)
	go func() { done <- run(cfg) }()
	select {
	case a := <-readyCh:
		return a.http, a.shard, done
	case err := <-done:
		t.Fatalf("cubed exited before ready: %v", err)
		return "", "", nil
	}
}

func sigterm(t *testing.T) {
	t.Helper()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
}

func waitStopped(t *testing.T, done chan error, what string) {
	t.Helper()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: run returned %v", what, err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: run did not return after SIGTERM", what)
	}
}

// TestSIGTERMDrainsInFlight holds a query open across SIGTERM: the slow
// client must still get its answer (the server drains), and run must exit
// cleanly within the grace period.
func TestSIGTERMDrainsInFlight(t *testing.T) {
	httpAddr, _, done := startCubed(t, config{gen: 300, seed: 1, budget: 1, grace: 5 * time.Second})

	// A request whose body arrives slowly: the handler blocks in the JSON
	// decoder until the second half lands, so the request is in flight when
	// the signal hits.
	pr, pw := io.Pipe()
	type result struct {
		status int
		body   []byte
		err    error
	}
	resCh := make(chan result, 1)
	go func() {
		resp, err := http.Post("http://"+httpAddr+"/query", "application/json", pr)
		if err != nil {
			resCh <- result{err: err}
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		resCh <- result{status: resp.StatusCode, body: body}
	}()

	if _, err := io.WriteString(pw, `{"sql": "SELECT SUM(sales)`); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond) // let the handler start reading
	sigterm(t)
	time.Sleep(200 * time.Millisecond) // shutdown is now in progress
	if _, err := io.WriteString(pw, ` GROUP BY product"}`); err != nil {
		t.Fatal(err)
	}
	pw.Close()

	res := <-resCh
	if res.err != nil {
		t.Fatalf("in-flight request failed during drain: %v", res.err)
	}
	if res.status != http.StatusOK {
		t.Fatalf("in-flight request got %d during drain: %s", res.status, res.body)
	}
	waitStopped(t, done, "cubed")

	// The listener must be gone after shutdown.
	if _, err := http.Get("http://" + httpAddr + "/healthz"); err == nil {
		t.Fatal("server still answering after clean shutdown")
	}
}

func getGroups(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/groupby?keep=product")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("%s: status %d: %s", base, resp.StatusCode, body)
	}
	var out map[string]float64
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestClusterEndToEnd boots two shard nodes and a coordinator the way the
// README quickstart does, queries through the coordinator, and pins the
// answer to the sum of the shards' own HTTP answers. One SIGTERM then
// stops all three processes-worth of servers cleanly.
func TestClusterEndToEnd(t *testing.T) {
	httpA, shardA, doneA := startCubed(t, config{gen: 400, seed: 1, budget: 1, shard: true, grace: 5 * time.Second})
	httpB, shardB, doneB := startCubed(t, config{gen: 400, seed: 2, budget: 1, shard: true, grace: 5 * time.Second})
	httpC, _, doneC := startCubed(t, config{coordinator: shardA + "," + shardB, grace: 5 * time.Second})

	got := getGroups(t, "http://"+httpC)
	want := make(map[string]float64)
	for _, base := range []string{"http://" + httpA, "http://" + httpB} {
		for k, v := range getGroups(t, base) {
			want[k] += v
		}
	}
	if len(got) != len(want) {
		t.Fatalf("coordinator groups %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("group %q = %v, want %v (must be exact)", k, got[k], v)
		}
	}

	// A node hands its cube's cells over to the engine: after /optimize has
	// dropped the root element, the stored set is all it holds.
	resp, err := http.Post("http://"+httpA+"/optimize", "application/json", strings.NewReader(`{"views":[{"keep":["product"],"freq":1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	var st struct {
		Storage  int `json:"storage_cells"`
		Resident int `json:"resident_cells"`
	}
	if resp, err = http.Get("http://" + httpA + "/stats"); err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Storage == 0 || st.Resident != st.Storage {
		t.Fatalf("shard A after /optimize: %d cells resident, %d stored", st.Resident, st.Storage)
	}

	// The coordinator names unreachable shards once one goes away; here all
	// are up, so an exact query also works.
	if resp, err = http.Get("http://" + httpC + "/total"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/total status %d", resp.StatusCode)
	}

	// NotifyContext is registered in every run; one signal stops them all,
	// and they drain concurrently while we wait in turn.
	sigterm(t)
	waitStopped(t, doneA, "shard A")
	waitStopped(t, doneB, "shard B")
	waitStopped(t, doneC, "coordinator")
}

// TestCoordinatorServingFlags boots a replicated, cached, admission-bounded
// coordinator the way the README quickstart does: each shard is listed with
// itself as a replica (two connections to one server — a degenerate but real
// replica set), the result cache answers the repeat query, and /shards
// exposes the cache counters.
func TestCoordinatorServingFlags(t *testing.T) {
	_, shardA, doneA := startCubed(t, config{gen: 400, seed: 1, budget: 1, shard: true, grace: 5 * time.Second})
	_, shardB, doneB := startCubed(t, config{gen: 400, seed: 2, budget: 1, shard: true, grace: 5 * time.Second})
	topo := shardA + "|" + shardA + "," + shardB + "|" + shardB
	httpC, _, doneC := startCubed(t, config{
		coordinator:  topo,
		resCacheMB:   16,
		maxInFlight:  64,
		queueTimeout: 100 * time.Millisecond,
		grace:        5 * time.Second,
	})

	cold := getGroups(t, "http://"+httpC)
	warm := getGroups(t, "http://"+httpC)
	if len(cold) == 0 {
		t.Fatal("empty coordinator answer")
	}
	for k, v := range cold {
		if warm[k] != v {
			t.Fatalf("cached answer differs: %q %v vs %v", k, warm[k], v)
		}
	}

	resp, err := http.Get("http://" + httpC + "/shards")
	if err != nil {
		t.Fatal(err)
	}
	var shardsOut struct {
		ResultCache *struct {
			Hits    uint64 `json:"hits"`
			Entries int    `json:"entries"`
		} `json:"result_cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&shardsOut); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if shardsOut.ResultCache == nil || shardsOut.ResultCache.Hits < 1 || shardsOut.ResultCache.Entries != 1 {
		t.Fatalf("/shards result_cache %+v", shardsOut.ResultCache)
	}

	sigterm(t)
	waitStopped(t, doneA, "shard A")
	waitStopped(t, doneB, "shard B")
	waitStopped(t, doneC, "coordinator")
}

// TestCoordinatorPprofFlag: -pprof mounts /debug/pprof/ on a coordinator as
// on a node, and a coordinator started without it has no such route. Shards
// are dialled lazily, so neither needs one up.
func TestCoordinatorPprofFlag(t *testing.T) {
	for _, pprof := range []bool{true, false} {
		httpC, _, done := startCubed(t, config{coordinator: "127.0.0.1:1", enablePprof: pprof, grace: 5 * time.Second})
		resp, err := http.Get("http://" + httpC + "/debug/pprof/")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if want := map[bool]int{true: http.StatusOK, false: http.StatusNotFound}[pprof]; resp.StatusCode != want {
			t.Errorf("-pprof=%v: GET /debug/pprof/ is %d, want %d", pprof, resp.StatusCode, want)
		}
		sigterm(t)
		waitStopped(t, done, "coordinator")
	}
}

// TestCatalogReloadFlag edits the catalog file under a running -catalogreload
// cubed and watches the new cube appear without a restart.
func TestCatalogReloadFlag(t *testing.T) {
	dir := t.TempDir()
	cat := dir + "/catalog.json"
	doc := `{"cubes": [{"name": "sales", "gen": 200, "seed": 1, "default": true}]}`
	if err := os.WriteFile(cat, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	httpAddr, _, done := startCubed(t, config{
		catalogPath:   cat,
		catalogReload: 20 * time.Millisecond,
		resCacheMB:    16,
		grace:         5 * time.Second,
	})
	base := "http://" + httpAddr

	doc = `{"cubes": [
	  {"name": "sales", "gen": 200, "seed": 1, "default": true},
	  {"name": "extra", "gen": 150, "seed": 2}
	]}`
	if err := os.WriteFile(cat, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	// Coarse mtime granularity can hide a same-instant rewrite from the
	// poller's stat check; push the timestamp firmly forward.
	future := time.Now().Add(10 * time.Second)
	if err := os.Chtimes(cat, future, future); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/cubes/extra/groupby?keep=product")
		if err != nil {
			t.Fatal(err)
		}
		ok := resp.StatusCode == http.StatusOK
		resp.Body.Close()
		if ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("hot-reloaded cube never appeared")
		}
		time.Sleep(20 * time.Millisecond)
	}

	sigterm(t)
	waitStopped(t, done, "catalog cubed")
}

// TestRunErrors covers startup failures surfacing as errors, not hangs.
func TestRunErrors(t *testing.T) {
	if err := run(config{}); err == nil || !strings.Contains(err.Error(), "-csv") {
		t.Fatalf("no input: err = %v", err)
	}
	if err := run(config{coordinator: " , "}); err == nil {
		t.Fatal("coordinator with no shard addresses should fail")
	}
	if err := run(config{gen: 10, addr: fmt.Sprintf("127.0.0.1:%d", -1)}); err == nil {
		t.Fatal("bad listen address should fail")
	}
	if err := run(config{catalogPath: "x.json", shard: true}); err == nil || !strings.Contains(err.Error(), "-shard") {
		t.Fatalf("-catalog with -shard: err = %v", err)
	}
	if err := run(config{catalogPath: "x.json", gen: 10}); err == nil || !strings.Contains(err.Error(), "-csv/-gen") {
		t.Fatalf("-catalog with -gen: err = %v", err)
	}
	if err := run(config{catalogPath: "/does/not/exist.json"}); err == nil {
		t.Fatal("missing catalog file should fail")
	}
}

// TestCatalogMode boots cubed in -catalog mode with two cubes and checks
// the multi-cube surface end to end: the listing, a per-cube query, a view
// that hides a member, and the legacy default-cube route.
func TestCatalogMode(t *testing.T) {
	dir := t.TempDir()
	csv := dir + "/sales.csv"
	if err := os.WriteFile(csv, []byte("product,region,sales\nale,east,10\nale,west,5\nbock,east,7\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cat := dir + "/catalog.json"
	doc := `{
	  "cubes": [
	    {"name": "sales", "csv": "sales.csv", "default": true},
	    {"name": "synth", "gen": 200, "seed": 3}
	  ],
	  "views": [
	    {"name": "public", "cube": "sales", "includes": "*", "excludes": ["region"]}
	  ]
	}`
	if err := os.WriteFile(cat, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	httpAddr, _, done := startCubed(t, config{catalogPath: cat, grace: 5 * time.Second})
	base := "http://" + httpAddr

	var listing struct {
		Default string           `json:"default"`
		Cubes   []map[string]any `json:"cubes"`
	}
	resp, err := http.Get(base + "/cubes")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if listing.Default != "sales" || len(listing.Cubes) != 2 ||
		listing.Cubes[0]["name"] != "sales" || listing.Cubes[1]["name"] != "synth" {
		t.Fatalf("cube listing %+v", listing)
	}

	// Legacy route answers from the default cube; the scoped route agrees.
	got := getGroups(t, base)
	if got["ale"] != 15 || got["bock"] != 7 {
		t.Fatalf("legacy groupby %v", got)
	}
	scoped := getGroups(t, base+"/cubes/sales")
	if scoped["ale"] != got["ale"] || scoped["bock"] != got["bock"] {
		t.Fatalf("scoped groupby %v differs from legacy %v", scoped, got)
	}

	// The view hides region: 404 with the unified error body.
	resp, err = http.Get(base + "/cubes/sales/views/public/groupby?keep=region")
	if err != nil {
		t.Fatal(err)
	}
	var errBody map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&errBody); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || errBody["code"].(float64) != http.StatusNotFound {
		t.Fatalf("excluded member: status %d body %v", resp.StatusCode, errBody)
	}

	sigterm(t)
	waitStopped(t, done, "catalog cubed")
}

// TestOversizeDimensionRefusedAtLoad: a CSV dimension with more than 32 768
// distinct values cannot be keyed by the planner; -csv and -catalog must
// refuse it at start-up with an error naming the limit, not serve a cube
// whose every query panics.
func TestOversizeDimensionRefusedAtLoad(t *testing.T) {
	dir := t.TempDir()
	var b strings.Builder
	b.WriteString("customer,k,sales\n")
	for i := 0; i <= 32768; i++ {
		fmt.Fprintf(&b, "c%05d,x,1\n", i)
	}
	if err := os.WriteFile(dir+"/big.csv", []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(config{csvPath: dir + "/big.csv", measure: "sales"}); err == nil || !strings.Contains(err.Error(), "32768") {
		t.Fatalf("-csv: err = %v", err)
	}
	cat := dir + "/catalog.json"
	if err := os.WriteFile(cat, []byte(`{"cubes": [{"name": "big", "csv": "big.csv"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(config{catalogPath: cat}); err == nil || !strings.Contains(err.Error(), "32768") {
		t.Fatalf("-catalog: err = %v", err)
	}
}
