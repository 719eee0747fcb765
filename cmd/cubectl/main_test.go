package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"viewcube"
	"viewcube/internal/catalog"
	"viewcube/internal/cluster"
	"viewcube/internal/obs"
	"viewcube/internal/server"
)

// The two shards' rows; together they are the catalog's sales cube.
var shardRows = []string{"ale,east,d1,10\nale,west,d1,5\nbock,east,d1,7\n", "ale,east,d2,2\nbock,west,d2,4\ncider,west,d3,3\n"}

var quietLog = slog.New(slog.NewTextHandler(io.Discard, nil))

func safeEngine(t *testing.T, rows string) (*viewcube.Cube, *viewcube.SafeEngine) {
	t.Helper()
	cube, err := viewcube.Load(strings.NewReader("product,region,day,sales\n"+rows), "sales")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := cube.NewEngine(viewcube.EngineOptions{ExecWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return cube, eng.Safe()
}

// catalogServer serves the sales cube through a catalog, with the view
// "aliased" exposing region and product (as item).
func catalogServer(t *testing.T) http.Handler {
	reg := catalog.NewRegistry()
	if err := reg.Register("sales", func() (catalog.CubeHandle, error) {
		return catalog.NewSafeHandle(safeEngine(t, shardRows[0]+shardRows[1])), nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterView(catalog.ViewSpec{Name: "aliased", Cube: "sales",
		Includes: catalog.IncludeList{Members: []catalog.MemberSpec{{Name: "region"}, {Name: "product", Alias: "item"}}},
	}); err != nil {
		t.Fatal(err)
	}
	return server.NewCatalog(reg, server.WithLogger(quietLog))
}

// downClient refuses every call, as a dead shard does.
type downClient struct{}

func (downClient) Do(context.Context, *cluster.Request) (*cluster.Response, error) {
	return nil, errors.New("connection refused")
}
func (downClient) Close() error { return nil }

// coordinatorServer serves shards a and b behind a coordinator; with down,
// b refuses every call.
func coordinatorServer(t *testing.T, down bool) http.Handler {
	shards := make([]cluster.Shard, 2)
	for i, rows := range shardRows {
		shards[i] = cluster.Shard{Name: string(rune('a' + i)), Client: cluster.NewLoopback(cluster.NewShardEngine(safeEngine(t, rows)))}
	}
	if down {
		shards[1].Client = downClient{}
	}
	coord, err := cluster.NewCoordinator(shards, cluster.Options{Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	return server.NewCoordinator(coord, server.WithCoordinatorLogger(quietLog))
}

// recorded serves h over HTTP and returns its URL and a func that reads the
// body of the last response, so a test can hold cubectl's stdout against
// the bytes the server sent for that very request.
func recorded(t *testing.T, h http.Handler) (string, func() string) {
	var mu sync.Mutex
	var last []byte
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		mu.Lock()
		last = rec.Body.Bytes()
		mu.Unlock()
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes())
	}))
	t.Cleanup(ts.Close)
	return ts.URL, func() string { mu.Lock(); defer mu.Unlock(); return string(last) }
}

// cubectl runs a command line against url and returns its stdout.
func cubectl(url, stdin string, args ...string) (string, error) {
	var out bytes.Buffer
	err := run(append([]string{"-server", url}, args...), strings.NewReader(stdin), &out)
	return out.String(), err
}

// checkBodies requires each command line's stdout to be the body of the
// request it made, byte for byte.
func checkBodies(t *testing.T, url string, last func() string, lines ...[]string) {
	t.Helper()
	for _, args := range lines {
		out, err := cubectl(url, "", args...)
		if body := last(); err != nil || out != body || body == "" {
			t.Fatalf("%v: stdout %q (%v), response body %q", args, out, err, body)
		}
	}
}

// checkTrace requires a trace command line's stdout to be the returned
// tree, rendered, and one summary line ending in suffix.
func checkTrace(t *testing.T, url string, last func() string, suffix string, args ...string) {
	t.Helper()
	out, err := cubectl(url, "", args...)
	var resp struct {
		Trace *obs.SpanNode `json:"trace"`
	}
	if jerr := json.Unmarshal([]byte(last()), &resp); err != nil || jerr != nil || resp.Trace == nil {
		t.Fatalf("%v: %v; response %q (%v)", args, err, last(), jerr)
	}
	summary, ok := strings.CutPrefix(out, obs.RenderNode(resp.Trace))
	if !ok || !strings.HasPrefix(summary, "trace "+resp.Trace.Name+": ") ||
		!strings.HasSuffix(summary, suffix+"\n") || strings.Count(summary, "\n") != 1 {
		t.Fatalf("%v: stdout %q is not the rendered tree and one summary line ending %q", args, out, suffix)
	}
}

func TestCatalogServer(t *testing.T) {
	url, last := recorded(t, catalogServer(t))
	view := func(args ...string) []string { return append([]string{"-cube", "sales", "-view", "aliased"}, args...) }
	checkBodies(t, url, last,
		[]string{"groupby", "product,region"},
		[]string{"groupby"},
		[]string{"-cube", "sales", "groupby", "region"},
		view("groupby", "item"),
		[]string{"range", "day=d1:d2"},
		[]string{"range"},
		view("range", "item=ale:bock", "region=east:east"),
		[]string{"query", "SELECT SUM(sales) GROUP BY product"},
		view("query", "SELECT SUM(sales) GROUP BY item WHERE region = 'west'"),
		[]string{"explain", "product"},
		view("explain", "item,region"),
	)
	checkTrace(t, url, last, "[cube sales]", "trace", "groupby", "product")
	checkTrace(t, url, last, "[cube sales, view aliased]", view("trace", "groupby", "item")...)
	checkTrace(t, url, last, "[cube sales, view aliased]", view("trace", "range", "item=ale:ale")...)
	checkTrace(t, url, last, "[cube sales]", "trace", "query", "SELECT SUM(sales) GROUP BY region")

	// ingest posts compact rows, or JSON objects from stdin, and the total
	// moves by the deltas.
	checkBodies(t, url, last, []string{"ingest", "product=ale,region=east,day=d1:5"})
	in := `{"delta": 2, "values": {"product": "cider", "region": "west", "day": "d3"}}` + "\n"
	if out, err := cubectl(url, in, "-noflush", "-cube", "sales", "ingest", "-"); err != nil || out != last() {
		t.Fatalf("ingest from stdin: %q, %v", out, err)
	}
	if out, err := cubectl(url, "", "range"); err != nil || out != `{"sum":38}`+"\n" {
		t.Fatalf("total after ingest: %q, %v", out, err)
	}
}

func TestCoordinatorServer(t *testing.T) {
	url, last := recorded(t, coordinatorServer(t, false))
	checkBodies(t, url, last,
		[]string{"groupby", "product"},
		[]string{"groupby", "product,region"},
		[]string{"range", "day=d1:d2"},
		[]string{"range"},
		[]string{"-partial", "range", "day=d1:d2"},
	)
	checkTrace(t, url, last, "", "trace", "groupby", "product")
	checkTrace(t, url, last, "", "trace", "range", "day=d1:d2")

	url, last = recorded(t, coordinatorServer(t, true))
	checkBodies(t, url, last, []string{"-partial", "groupby", "region"}, []string{"-partial", "range", "day=d1:d3"})
	if want := `{"partial":{"missing":["b"],"errors":{"b":"shard b: connection refused"}},"sum":22}` + "\n"; last() != want {
		t.Fatalf("partial range body %q, want %q", last(), want)
	}
	checkTrace(t, url, last, "; partial, missing b", "trace", "groupby", "product")
}

func TestErrors(t *testing.T) {
	catalogURL, _ := recorded(t, catalogServer(t))
	coordURL, _ := recorded(t, coordinatorServer(t, true))
	for _, c := range []struct {
		url  string
		args []string
		want string
	}{
		{catalogURL, []string{"-cube", "sales", "-view", "aliased", "groupby", "day"}, `404 Not Found: view "aliased" has no member "day"`},
		{catalogURL, []string{"-cube", "nope", "range"}, `404 Not Found: cube "nope": unknown cube`},
		{catalogURL, []string{"range", "day"}, `bad range "day"`},
		{coordURL, []string{"groupby", "region"}, "502 Bad Gateway: cluster: 1/2 shards unreachable (b)"},
		{coordURL, []string{"query", "SELECT SUM(sales)"}, "404 Not Found: 404 page not found"},
		{coordURL, []string{"-view", "aliased", "groupby"}, "-view needs -cube"},
		{coordURL, []string{"trace", "ingest", "a=b:1"}, "usage: cubectl trace"},
		{coordURL, []string{"total"}, `unknown command "total"`},
	} {
		if out, err := cubectl(c.url, "", c.args...); err == nil || !strings.Contains(err.Error(), c.want) || out != "" {
			t.Fatalf("%v: stdout %q, error %v; want an error containing %q", c.args, out, err, c.want)
		}
	}
}
