package server

// The encoded-body serving path pinned through the HTTP face: what a hit
// costs, what an uncached answer costs, and which bytes come out.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	"viewcube"
	"viewcube/internal/catalog"
	"viewcube/internal/cluster"
	"viewcube/internal/obs"
	"viewcube/internal/rescache"
)

// discardWriter is a ResponseWriter that keeps nothing, so AllocsPerRun
// counts the handler and not a recorder's growing buffer.
type discardWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *discardWriter) Header() http.Header { return w.h }
func (w *discardWriter) WriteHeader(code int) {
	w.status = code
}
func (w *discardWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// gridServer serves a 128×64×16×1 cube: /groupby?keep=x,y answers 8 192
// groups, /groupby?keep=z,w answers 16. The logger starts at Warn, as
// cubed's does without -accesslog.
func gridServer(t *testing.T, opts ...Option) *Server {
	t.Helper()
	tbl, err := viewcube.NewTable([]string{"x", "y", "z", "w"}, "m")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 128*64; i++ {
		row := []string{fmt.Sprintf("x%03d", i%128), fmt.Sprintf("y%02d", i/128), fmt.Sprintf("z%02d", i%16), "w0"}
		if err := tbl.Append(row, float64(i%97)+0.5); err != nil {
			t.Fatal(err)
		}
	}
	cube, err := viewcube.FromRelation(tbl)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := cube.NewEngine(viewcube.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	warn := slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelWarn}))
	return New(cube, eng, append([]Option{WithLogger(warn)}, opts...)...)
}

// allocsPerRequest serves target repeatedly and reports allocations per
// request and the response size.
func allocsPerRequest(t *testing.T, s http.Handler, target string) (allocs float64, bytes int) {
	t.Helper()
	w := &discardWriter{h: http.Header{}}
	req := httptest.NewRequest("GET", target, nil)
	allocs = testing.AllocsPerRun(50, func() {
		clear(w.h)
		w.status, w.n = 0, 0
		s.ServeHTTP(w, req)
	})
	if w.status != http.StatusOK {
		t.Fatalf("%s: status %d", target, w.status)
	}
	return allocs, w.n
}

// TestGroupByHitAllocs: a cached hit performs the same number of
// allocations whether the answer has 16 groups or 8 192 — it is the cached
// bytes and one Write — and an uncached /groupby or /query allocates O(1)
// objects per request and the same bytes for 16 groups as for 8 192: the body
// is encoded into the request's pooled buffer and the view it was encoded
// from goes back to the scratch pool. The bounds also pin the per-request fixes that
// ride along: counters resolved once, the query string parsed once, no
// access-log attributes built, no SQL re-parse for the query log.
func TestGroupByHitAllocs(t *testing.T) {
	qlog, err := obs.NewQueryLog(obs.QueryLogOptions{RingSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	cached := gridServer(t, WithResultCache(rescache.Options{}), WithQueryLog(qlog))
	small, smallBytes := allocsPerRequest(t, cached, "/groupby?keep=z,w")
	big, bigBytes := allocsPerRequest(t, cached, "/groupby?keep=x,y")
	if smallBytes >= 1<<10 || bigBytes <= 100<<10 {
		t.Fatalf("fixture: %d-byte and %d-byte answers", smallBytes, bigBytes)
	}
	if small != big {
		t.Errorf("cached hit: %v allocations for 16 groups, %v for 8192", small, big)
	}
	if big > 30 {
		t.Errorf("cached hit allocates %v objects per request, want ≤ 30", big)
	}

	// A cached /query hit through a view: the rows are cached bytes too.
	q := httptest.NewRequest("POST", "/query", nil)
	w := &discardWriter{h: http.Header{}}
	sql := func() {
		q.Body = io.NopCloser(strings.NewReader(`{"sql":"SELECT SUM(m), SUM(m) GROUP BY x, y"}`))
		clear(w.h)
		cached.ServeHTTP(w, q)
	}
	sql()
	if got := testing.AllocsPerRun(50, sql); got > 60 {
		t.Errorf("cached /query hit allocates %v objects per request, want ≤ 60", got)
	}

	uncached := gridServer(t, WithQueryLog(qlog))
	few, _ := allocsPerRequest(t, uncached, "/groupby?keep=z,w")
	many, _ := allocsPerRequest(t, uncached, "/groupby?keep=x,y")
	// The body is encoded into the request's pooled buffer: 512× the groups
	// costs no allocation more — not 8 192 × (key + map entry + ...), as it
	// did, nor a body-sized one. The race detector makes sync.Pool drop a
	// quarter of what it is given, so there a body may still grow by doubling.
	slack := 2.0
	if raceEnabled {
		slack = 40
	}
	if many > few+slack || many > 200 {
		t.Errorf("uncached /groupby: %v allocations for 16 groups, %v for 8192", few, many)
	}
	if raceEnabled {
		return
	}
	// And not a byte for the body or for the engine's assembled view, 8 B per
	// group, which the lease releases back to the scratch pool once the body
	// is encoded. Measured with the collector off and on one P, so the pools
	// hand back what the warm-up requests grew and returned.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, tc := range []struct{ name, method, small, big string }{
		{"/groupby", "GET", "/groupby?keep=z,w", "/groupby?keep=x,y"},
		{"/query", "POST", `{"sql":"SELECT SUM(m) GROUP BY z, w"}`, `{"sql":"SELECT SUM(m) GROUP BY x, y"}`},
	} {
		bytesPer := func(target string) float64 {
			w := &discardWriter{h: http.Header{}}
			do := func() {
				url, body := target, ""
				if tc.method == "POST" {
					url, body = tc.name, target
				}
				req := httptest.NewRequest(tc.method, url, strings.NewReader(body))
				if uncached.ServeHTTP(w, req); w.status != http.StatusOK {
					t.Fatalf("%s %s: status %d", tc.method, target, w.status)
				}
			}
			do()
			do() // twice: /query holds two pooled buffers, and both must have grown
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < 20; i++ {
				do()
			}
			runtime.ReadMemStats(&after)
			return float64(after.TotalAlloc-before.TotalAlloc) / 20
		}
		// The same bytes, to within a few request-sized odds and ends: the view's
		// 64 KiB would show.
		if small, big := bytesPer(tc.small), bytesPer(tc.big); big > small+512 {
			t.Errorf("uncached %s: %.0f B for 16 groups, %.0f B for 8192, want the same", tc.name, small, big)
		}
	}
}

// TestCoordinatorGroupByHitAllocs: a coordinator /groupby whose merged answer
// is cached re-encodes that Result on every hit, and allocates the same
// number of objects for a 16-group answer as for a 16 384-group one — both
// keyed by three dimensions, since the encoder's scratch is per key
// position: the body goes into a pooled buffer, and the row kernel builds no
// table per call or per member. The shards have the shape of the benchmark's
// largest sharded answer (product 128 × region 16 × channel 8, integer
// cells) and two one-member dimensions, u and v, so that region, u and v
// key 16 groups.
func TestCoordinatorGroupByHitAllocs(t *testing.T) {
	var shards []cluster.Shard
	for s := 0; s < 2; s++ {
		tbl, err := viewcube.NewTable([]string{"product", "region", "channel", "u", "v"}, "sales")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 128*16*8; i++ {
			row := []string{fmt.Sprintf("product-%03d", i/128), fmt.Sprintf("region-%02d", i/8%16), fmt.Sprintf("channel-%d", i%8), "u0", "v0"}
			if err := tbl.Append(row, float64(1+(i+s)*7919%9973)); err != nil {
				t.Fatal(err)
			}
		}
		cube, err := viewcube.FromRelation(tbl)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := cube.NewEngine(viewcube.EngineOptions{})
		if err != nil {
			t.Fatal(err)
		}
		shards = append(shards, cluster.Shard{Name: fmt.Sprint("s", s), Client: cluster.NewLoopback(cluster.NewShardEngine(cube, eng))})
	}
	coord, err := cluster.NewCoordinator(shards, cluster.Options{Timeout: 5 * time.Second, Cache: &rescache.Options{}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	s := NewCoordinator(coord, WithCoordinatorLogger(slog.New(slog.NewTextHandler(io.Discard, nil))))
	small, smallBytes := allocsPerRequest(t, s, "/groupby?keep=region,u,v")
	big, bigBytes := allocsPerRequest(t, s, "/groupby?keep=product,region,channel")
	if smallBytes >= 1<<10 || bigBytes <= 16384*20 {
		t.Fatalf("fixture: %d-byte and %d-byte answers", smallBytes, bigBytes)
	}
	if st := coord.ResultCacheStats(); st.Hits < 100 {
		t.Fatalf("%d cache hits: the requests did not hit", st.Hits)
	}
	if raceEnabled {
		return // the race detector makes sync.Pool drop the pooled body at random
	}
	// 26 is what a 16 384-group hit allocated before the row kernel wrote
	// into a window (its prefix grew by appends from 8 bytes); it is 23 since.
	if small != big || big > 26 {
		t.Errorf("cached coordinator hit: %v allocations for 16 groups, %v for 16384; want the same, ≤ 26", small, big)
	}
}

// TestConcurrentBodyOwnership: a response body is encoded into a pooled,
// request-scoped buffer, and nothing that outlives the request may alias it.
// Leases that miss together on a fresh cache — one computes, the others wait
// on its flight — each scribble over their own scratch after the call, and
// every one of them, and a later hit, still holds the right bytes; then
// concurrent plain, traced and SQL requests against a cached and an uncached
// server, trading pooled buffers of very different sizes, all answer what a
// server that shares nothing answers. Run under -race, aliasing is a report
// as well as a wrong byte.
func TestConcurrentBodyOwnership(t *testing.T) {
	lone := gridServer(t)
	want := map[string]string{}
	for _, target := range []string{"/groupby?keep=x,y", "/groupby?keep=y,z", "/groupby?keep=z,w"} {
		want[target] = serve(t, lone, "GET", target, "")
	}
	const sql = `{"sql":"SELECT SUM(m) GROUP BY x, y"}`
	want[sql] = serve(t, lone, "POST", "/query", sql)

	cached := gridServer(t, WithResultCache(rescache.Options{}))
	const waiters = 8
	var ready, scribbled sync.WaitGroup
	ready.Add(waiters)
	scribbled.Add(waiters)
	bodies := make([][]byte, waiters)
	var wg sync.WaitGroup
	for g := 0; g < waiters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lease, err := cached.reg.Acquire("", "")
			if err != nil {
				t.Error(err)
				return
			}
			defer lease.Release()
			lease.Scratch = make([]byte, 0, 64)
			ready.Done()
			ready.Wait()
			ans, _, _, err := lease.ServeGroupBy(false, "x", "y")
			if err != nil {
				t.Error(err)
			}
			bodies[g] = ans.Body
			for i := range lease.Scratch[:cap(lease.Scratch)] {
				lease.Scratch[:cap(lease.Scratch)][i] = '#'
			}
			scribbled.Done()
			scribbled.Wait()
			if string(ans.Body) != want["/groupby?keep=x,y"] {
				t.Errorf("lease %d: body changed after the scratch buffers were reused", g)
			}
		}()
	}
	wg.Wait()
	for g, body := range bodies {
		if len(body) == 0 || &body[0] != &bodies[0][0] {
			t.Fatalf("lease %d does not hold the cached copy", g)
		}
	}
	if hit := serve(t, cached, "GET", "/groupby?keep=x,y", ""); hit != want["/groupby?keep=x,y"] {
		t.Fatal("a hit after the scratch buffers were reused is not the miss's bytes")
	}

	for _, s := range []*Server{cached, gridServer(t)} {
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for round := g; round < g+12; round++ {
					target := []string{"/groupby?keep=x,y", "/groupby?keep=z,w", "/groupby?keep=y,z"}[round%3]
					rec := httptest.NewRecorder()
					switch round % 4 {
					case 0:
						s.ServeHTTP(rec, httptest.NewRequest("POST", "/query", strings.NewReader(sql)))
						target = sql
					case 1:
						s.ServeHTTP(rec, httptest.NewRequest("GET", target+"&trace=1", nil))
						prefix := `{"groups":` + strings.TrimSuffix(want[target], "\n") + `,"trace":{`
						if got := rec.Body.String(); !strings.HasPrefix(got, prefix) || !strings.HasSuffix(got, "}}\n") || !json.Valid(rec.Body.Bytes()) {
							t.Errorf("traced %s does not wrap the plain body", target)
						}
						continue
					default:
						s.ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
					}
					if rec.Body.String() != want[target] {
						t.Errorf("%s: body differs from a lone server's", target)
					}
				}
			}()
		}
	}
	wg.Wait()
}

// TestConcurrentReleasedViews: an assembled view goes back to the scratch pool
// the moment its response bytes exist, so nothing that outlives the encode may
// alias it. Leases take the body of one query — from their own scratch on an
// uncached server; the cached copy, computed or coalesced onto, on a cached one
// — and hold it while other requests assemble views of the same shape (one
// pool class) and different cells: filtered SQL, the plain SQL, traced
// group-bys. Every response of the churn and every held body is still the
// bytes a lone server answers; so is a coordinator's cached merged result
// while uncached coordinators drive the same shards. Run under -race, a reader
// of a recycled view is a report as well as a wrong byte.
func TestConcurrentReleasedViews(t *testing.T) {
	const (
		plain   = "/groupby?keep=x,y"
		sqlAll  = `{"sql":"SELECT SUM(m) GROUP BY x, y"}`
		sqlSome = `{"sql":"SELECT SUM(m) GROUP BY x, y WHERE z BETWEEN 'z00' AND 'z07'"}`
	)
	lone := gridServer(t)
	want := map[string]string{plain: serve(t, lone, "GET", plain, "")}
	for _, sql := range []string{sqlAll, sqlSome} {
		want[sql] = serve(t, lone, "POST", "/query", sql)
	}
	if want[sqlAll] == want[sqlSome] {
		t.Fatal("fixture: the filter changes nothing")
	}
	churn := func(s http.Handler, g int) {
		for round := g; round < g+9; round++ {
			rec := httptest.NewRecorder()
			switch round % 3 {
			case 0:
				s.ServeHTTP(rec, httptest.NewRequest("GET", plain+"&trace=1", nil))
				prefix := `{"groups":` + strings.TrimSuffix(want[plain], "\n") + `,"trace":{`
				if got := rec.Body.String(); !strings.HasPrefix(got, prefix) || !json.Valid(rec.Body.Bytes()) {
					t.Errorf("traced %s does not wrap the plain body", plain)
				}
			case 1:
				s.ServeHTTP(rec, httptest.NewRequest("POST", "/query", strings.NewReader(sqlSome)))
				if rec.Body.String() != want[sqlSome] {
					t.Error("filtered SQL: body differs from a lone server's")
				}
			default:
				s.ServeHTTP(rec, httptest.NewRequest("POST", "/query", strings.NewReader(sqlAll)))
				if rec.Body.String() != want[sqlAll] {
					t.Error("SQL: body differs from a lone server's")
				}
			}
		}
	}
	for name, s := range map[string]*Server{"uncached": gridServer(t), "cached": gridServer(t, WithResultCache(rescache.Options{}))} {
		const holders = 4
		var ready, held, wg sync.WaitGroup
		ready.Add(holders)
		held.Add(holders)
		for g := 0; g < holders; g++ {
			wg.Add(2)
			go func() {
				defer wg.Done()
				lease, err := s.reg.Acquire("", "")
				if err != nil {
					t.Error(err)
					ready.Done()
					held.Done()
					return
				}
				defer lease.Release()
				ready.Done()
				ready.Wait()
				ans, _, _, err := lease.ServeGroupBy(false, "x", "y")
				if err != nil {
					t.Error(err)
				}
				held.Done()
				held.Wait()
				churn(s, g)
				if string(ans.Body) != want[plain] {
					t.Errorf("%s lease %d: the held body changed once its view was recycled", name, g)
				}
			}()
			go func() {
				defer wg.Done()
				held.Wait()
				churn(s, g+1)
			}()
		}
		wg.Wait()
	}

	// The coordinator caches the merged Result, not bytes: it must own its body.
	shards := coordShards(t)
	cachedCoord, err := cluster.NewCoordinator(shards, cluster.Options{Cache: &rescache.Options{}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cachedCoord.Close() })
	quietCoord := WithCoordinatorLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))
	front := NewCoordinator(cachedCoord, quietCoord)
	merged := serve(t, front, "GET", "/groupby?keep=product,region", "")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			coord, err := cluster.NewCoordinator(shards, cluster.Options{})
			if err != nil {
				t.Error(err)
				return
			}
			defer coord.Close()
			s := NewCoordinator(coord, quietCoord)
			for round := 0; round < 8; round++ {
				for _, keep := range []string{"product,region", "region,day", "product,day"} {
					s.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/groupby?keep="+keep, nil))
				}
				rec := httptest.NewRecorder()
				front.ServeHTTP(rec, httptest.NewRequest("GET", "/groupby?keep=product,region", nil))
				if rec.Body.String() != merged {
					t.Errorf("the cached merged result changed: %q, was %q", rec.Body.String(), merged)
				}
			}
		}()
	}
	wg.Wait()
	if st := cachedCoord.ResultCacheStats(); st.Hits == 0 {
		t.Fatalf("no coordinator cache hit: %+v", st)
	}
}

// TestAccessLogLevels: the request line is an Info record — absent from a
// logger that starts at Warn, where a failed request is still logged.
func TestAccessLogLevels(t *testing.T) {
	cube, eng := newCubeEngine(t)
	for _, tc := range []struct {
		level      slog.Level
		ok, failed bool
	}{{slog.LevelInfo, true, true}, {slog.LevelWarn, false, true}} {
		var buf bytes.Buffer
		s := New(cube, eng, WithLogger(slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: tc.level}))))
		s.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/groupby?keep=product", nil))
		if got := strings.Contains(buf.String(), "msg=request"); got != tc.ok {
			t.Errorf("level %v: 200 logged = %v, want %v: %s", tc.level, got, tc.ok, buf.String())
		}
		buf.Reset()
		s.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/groupby?keep=nope", nil))
		if got := strings.Contains(buf.String(), "level=WARN msg=request") && strings.Contains(buf.String(), "status=400"); got != tc.failed {
			t.Errorf("level %v: 400 logged at WARN = %v, want %v: %s", tc.level, got, tc.failed, buf.String())
		}
	}
}

func serve(t *testing.T, h http.Handler, method, target, body string) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("%s %s: status %d: %s", method, target, rec.Code, rec.Body)
	}
	if cl := rec.Header().Get("Content-Length"); cl != fmt.Sprint(rec.Body.Len()) {
		t.Fatalf("%s %s: Content-Length %q for a %d-byte body", method, target, cl, rec.Body.Len())
	}
	return rec.Body.String()
}

// TestEncodedBodyIdentity: the miss and the hit of one query are the same
// bytes; a query cached through one view is served, with that view's own
// column aliases, as a hit through another; and the ?trace=1 forms wrap the
// same body.
func TestEncodedBodyIdentity(t *testing.T) {
	reg := newCatalogRegistry(t)
	s := NewCatalog(reg, quiet, WithResultCache(rescache.Options{}))

	const raw = `{"sql":"SELECT SUM(sales) GROUP BY product"}`
	miss := serve(t, s, "POST", "/query", raw)
	if want := `{"columns":["product","SUM(sales)"],"rows":[{"key":["ale"],"values":[17]},{"key":["bock"],"values":[11]},{"key":["cider"],"values":[3]}]}` + "\n"; miss != want {
		t.Fatalf("/query body %q, want %q", miss, want)
	}
	if hit := serve(t, s, "POST", "/query", raw); hit != miss {
		t.Fatalf("hit %q differs from miss %q", hit, miss)
	}
	before := stats(t, reg).Hits
	aliased := serve(t, s, "POST", "/cubes/sales/views/aliased/query", `{"sql":"SELECT SUM(sales) GROUP BY item"}`)
	if want := strings.Replace(miss, `"product"`, `"item"`, 1); aliased != want {
		t.Fatalf("aliased view body %q, want %q", aliased, want)
	}
	if got := stats(t, reg).Hits; got != before+1 {
		t.Fatalf("the aliased view's query was not a hit on the raw cube's entry (hits %d → %d)", before, got)
	}

	groups := serve(t, s, "GET", "/groupby?keep=product,region", "")
	if want := `{"ale/east":12,"ale/west":5,"bock/east":7,"bock/west":4,"cider/east":0,"cider/west":3}` + "\n"; groups != want {
		t.Fatalf("/groupby body %q, want %q", groups, want)
	}
	if hit := serve(t, s, "GET", "/cubes/sales/views/aliased/groupby?keep=item,region", ""); hit != groups {
		t.Fatalf("view hit %q differs from miss %q", hit, groups)
	}
	traced := serve(t, s, "GET", "/groupby?keep=product,region&trace=1", "")
	if prefix := `{"groups":` + strings.TrimSuffix(groups, "\n") + `,"trace":{`; !strings.HasPrefix(traced, prefix) || !strings.HasSuffix(traced, "}}\n") {
		t.Fatalf("traced /groupby %q does not wrap %q", traced, prefix)
	}
	tracedQ := serve(t, s, "POST", "/query?trace=1", raw)
	if prefix := strings.TrimSuffix(miss, "}\n") + `,"trace":{`; !strings.HasPrefix(tracedQ, prefix) {
		t.Fatalf("traced /query %q does not wrap %q", tracedQ, prefix)
	}
	var decoded struct {
		Trace map[string]any `json:"trace"`
	}
	if err := json.Unmarshal([]byte(tracedQ), &decoded); err != nil || decoded.Trace == nil {
		t.Fatalf("traced /query does not decode: %v", err)
	}

	// A statement whose filter leaves no group: "rows" is null, as it was.
	empty := serve(t, s, "POST", "/cubes/inventory/query", `{"sql":"SELECT SUM(stock) GROUP BY item"}`)
	if !strings.Contains(empty, `"rows":[{"key":["ale"]`) {
		t.Fatalf("inventory rows: %q", empty)
	}
}

func stats(t *testing.T, reg *catalog.Registry) rescache.Stats {
	t.Helper()
	lease, err := reg.Acquire("sales", "")
	if err != nil {
		t.Fatal(err)
	}
	defer lease.Release()
	return lease.ResultCacheStats()
}

// TestCoordinatorGroupByBodies: the coordinator's /groupby writes the merged
// columnar result with the single-node encoder — plain, ?partial=1 and
// ?trace=1 wrap the same groups object — and a cached answer is the same
// bytes again.
func TestCoordinatorGroupByBodies(t *testing.T) {
	// The two shards hold different values of every dimension, so the merge
	// unions dictionaries; together they hold exactly salesCSV.
	coord, err := cluster.NewCoordinator(coordShards(t), cluster.Options{Cache: &rescache.Options{}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	s := NewCoordinator(coord, WithCoordinatorLogger(slog.New(slog.NewTextHandler(io.Discard, nil))))
	cube, eng := newCubeEngine(t)
	single := New(cube, eng, quiet)
	for _, keep := range []string{"product", "product,region", ""} {
		want := serve(t, single, "GET", "/groupby?keep="+keep, "")
		plain := serve(t, s, "GET", "/groupby?keep="+keep, "")
		if plain != want {
			t.Fatalf("keep=%q: coordinator %q, single node %q", keep, plain, want)
		}
		if again := serve(t, s, "GET", "/groupby?keep="+keep, ""); again != plain {
			t.Fatalf("keep=%q: cached answer %q differs from %q", keep, again, plain)
		}
		groups := strings.TrimSuffix(want, "\n")
		if partial := serve(t, s, "GET", "/groupby?partial=1&keep="+keep, ""); partial != `{"groups":`+groups+`,"partial":null}`+"\n" {
			t.Fatalf("keep=%q partial body %q", keep, partial)
		}
		traced := serve(t, s, "GET", "/groupby?trace=1&keep="+keep, "")
		if prefix := `{"groups":` + groups + `,"partial":null,"trace":{`; !strings.HasPrefix(traced, prefix) {
			t.Fatalf("keep=%q traced body %q does not start %q", keep, traced, prefix)
		}
	}
	if st := coord.ResultCacheStats(); st.Hits == 0 {
		t.Fatalf("no coordinator cache hit: %+v", st)
	}
}

// TestCoordinatorSumBodies pins the coordinator's /range and /total bodies:
// plain (the single node's bytes), ?partial=1 with every shard up and with
// one down (the missing list and its error exact), and ?trace=1 (the key set
// and the root span's name).
func TestCoordinatorSumBodies(t *testing.T) {
	newCoord := func(shards []cluster.Shard) http.Handler {
		coord, err := cluster.NewCoordinator(shards, cluster.Options{Backoff: time.Millisecond, Cache: &rescache.Options{}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { coord.Close() })
		return NewCoordinator(coord, quietCoordLog())
	}
	// The wrapped forms go out through encoding/json, which sets no
	// Content-Length, so this reads bodies without serve's header check.
	get := func(h http.Handler, target string, status int) string {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
		if rec.Code != status {
			t.Fatalf("GET %s: status %d, want %d: %s", target, rec.Code, status, rec.Body)
		}
		return rec.Body.String()
	}
	s := newCoord(coordShards(t))
	cube, eng := newCubeEngine(t)
	single := New(cube, eng, quiet)

	// Each request ends in "?" or "&", so one more parameter can follow.
	for _, c := range []struct{ path, query, sum, root string }{
		{"/total?", "", "31", "cluster total"},
		{"/range?", "day=d1:d2&", "28", "cluster range day=[d1,d2]"},
		{"/range?", "day=d1:d2&product=bock:cider&", "11", "cluster range day=[d1,d2] product=[bock,cider]"},
	} {
		target, want := c.path+c.query, `{"sum":`+c.sum+"}\n"
		if got := get(single, "/range?"+c.query, http.StatusOK); got != want {
			t.Fatalf("single node %s: %q, want %q", target, got, want)
		}
		for _, again := range []string{"", " cached"} {
			if got := get(s, target, http.StatusOK); got != want {
				t.Fatalf("%s%s: %q, want %q", target, again, got, want)
			}
		}
		if got, want := get(s, target+"partial=1", http.StatusOK), `{"partial":null,"sum":`+c.sum+"}\n"; got != want {
			t.Fatalf("%s partial: %q, want %q", target, got, want)
		}
		var traced map[string]json.RawMessage
		var root obs.Span
		if err := json.Unmarshal([]byte(get(s, target+"trace=1", http.StatusOK)), &traced); err != nil ||
			len(traced) != 3 || string(traced["sum"]) != c.sum || string(traced["partial"]) != "null" {
			t.Fatalf("%s traced keys: %v (%v)", target, traced, err)
		}
		if err := json.Unmarshal(traced["trace"], &root); err != nil || root.Name != c.root {
			t.Fatalf("%s trace root %q (%v), want %q", target, root.Name, err, c.root)
		}
	}

	shards := coordShards(t)
	shards[1].Client = downClient{}
	degraded := newCoord(shards)
	for _, target := range []string{"/total?", "/range?day=d1:d2&"} {
		get(degraded, target, http.StatusBadGateway)
		want := `{"partial":{"missing":["b"],"errors":{"b":"shard b: connection refused"}},"sum":22}` + "\n"
		if got := get(degraded, target+"partial=1", http.StatusOK); got != want {
			t.Fatalf("%s with shard b down: %q, want %q", target, got, want)
		}
	}
}
