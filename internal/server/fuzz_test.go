package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"viewcube"
)

// fuzzCSV is the 8-row cube the request fuzzer serves.
const fuzzCSV = salesCSV + `cider,east,d3,1
stout,east,d4,6
`

// fuzzServer is a server over a fresh fuzzCSV cube with streaming ingest on,
// so /update and /ingest take the streamed write path; ingest stops when the
// test ends.
func fuzzServer(t *testing.T) http.Handler {
	t.Helper()
	cube, err := viewcube.Load(strings.NewReader(fuzzCSV), "sales")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := cube.NewEngine(viewcube.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cube.ReleaseCells()
	safe := eng
	if err := safe.EnableIngest(viewcube.IngestOptions{Interval: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { safe.DisableIngest() })
	return New(cube, safe, quiet)
}

// FuzzRequestDecoding sends a fuzzed query string to every GET query route
// and a fuzzed body to every POST route. Whatever the bytes, the server must
// not panic or answer 5xx, every body must be JSON, and every non-2xx body
// must carry "error" and "code". The seeds are the server tests' requests.
func FuzzRequestDecoding(f *testing.F) {
	seeds := []struct{ query, body string }{
		{"keep=product", `{"sql":"SELECT SUM(sales) GROUP BY product"}`},
		{"keep=region&trace=1", `{"sql":"garbage"}`},
		{"day=d1:d2", `{"delta":5,"values":{"product":"ale","region":"east","day":"d1"}}`},
		{"day=oops", `{"delta":6e307,"values":{"product":"ale","region":"east","day":"d1"}}`},
		{"day=d1:d2&product=bock:cider", `{"rows":[{"delta":5,"values":{"product":"ale","region":"east","day":"d1"}}],"flush":true}`},
		{"keep=nope", `{"views":[{"keep":["product"],"freq":1}]}`},
		{"keep=product,region&trace=1", `{"views":[{"keep":["nope"],"freq":1}]}`},
		{"", `{"rows":[]}`},
		{"%zz&=&keep=,", `{"pad":"aaaa"}`},
	}
	for _, s := range seeds {
		f.Add(s.query, s.body)
	}
	f.Fuzz(func(t *testing.T, query, body string) {
		h := fuzzServer(t)
		for _, path := range []string{"/groupby", "/range", "/explain"} {
			r := httptest.NewRequest(http.MethodGet, path, nil)
			r.URL.RawQuery = query
			checkFuzzedResponse(t, h, r)
		}
		for _, path := range []string{"/query", "/update", "/ingest", "/optimize"} {
			checkFuzzedResponse(t, h, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		}
	})
}

// checkFuzzedResponse serves r and holds the answer to the fuzzer's
// contract.
func checkFuzzedResponse(t *testing.T, h http.Handler, r *http.Request) {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	what := r.Method + " " + r.URL.Path + "?" + r.URL.RawQuery
	body := w.Body.Bytes()
	if w.Code >= 500 {
		t.Fatalf("%s: status %d: %s", what, w.Code, body)
	}
	if !json.Valid(body) {
		t.Fatalf("%s: status %d, body is not JSON: %q", what, w.Code, body)
	}
	if w.Code < 200 || w.Code > 299 {
		var e map[string]any
		if err := json.Unmarshal(body, &e); err != nil || e["error"] == nil || e["code"] == nil {
			t.Fatalf("%s: status %d, error body without error and code: %s", what, w.Code, body)
		}
	}
}
