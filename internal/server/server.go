// Package server exposes a catalog of viewcube engines over HTTP with a
// small JSON API — the daemon face of the library. Legacy single-cube
// routes address the catalog's default cube; /cubes/{cube}/... addresses
// any cube, and /cubes/{cube}/views/{view}/... queries through a
// declarative view (member aliases rewritten, excluded members rejected
// with 404 before any planning):
//
//	POST /query    {"sql": "SELECT SUM(sales) GROUP BY product"}   (?trace=1 adds a span tree)
//	POST /update   {"delta": 5, "values": {"product": "ale", ...}}
//	POST /ingest   {"rows": [{"delta": 5, "values": {...}}, ...], "flush": true}
//	GET  /groupby?keep=product,region                              (?trace=1 adds a span tree)
//	GET  /range?dim=lo:hi&dim2=lo:hi                               (?trace=1 adds a span tree)
//	GET  /explain?keep=product
//	GET  /stats
//	GET  /info
//	POST /optimize {"views": [{"keep": ["product"], "freq": 0.7}, ...]}
//	GET  /cubes                      (catalog listing: states, epochs, views)
//	GET  /cubes/{cube}/views         (view listing: members, measures)
//	POST /cubes/{cube}/query         (and groupby/range/explain/stats/info/update/optimize)
//	POST /cubes/{cube}/views/{view}/query   (read routes only, through the view)
//	POST /cubes/{cube}/load|unload|rebuild  (lifecycle: drain-gated, zero-downtime rebuild)
//	GET  /metrics          (one Prometheus exposition for all cubes, cube-labelled)
//	GET  /querylog?n=50    (recent query analytics entries, newest first)
//	GET  /healthz
//	GET  /debug/pprof/*    (only with WithPprof)
//
// Every query holds a catalog lease for its whole execution, so an unload
// drains in-flight queries instead of racing them; errors share one JSON
// shape, {"error": ..., "code": ...}, with unknown cubes, views and view
// members mapped to 404 and lifecycle conflicts to 409.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"net/url"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"viewcube"
	"viewcube/internal/catalog"
	"viewcube/internal/obs"
	"viewcube/internal/relation"
	"viewcube/internal/rescache"
)

// Server is an http.Handler over a catalog of cubes.
type Server struct {
	reg     *catalog.Registry
	met     *viewcube.Metrics
	log     *slog.Logger
	mux     *http.ServeMux
	qlog    *obs.QueryLog
	sampler *obs.Sampler

	reqLatency  *obs.Histogram
	reqInFlight *obs.Gauge
	// The two labelled request counters, resolved once per status code and
	// once per cube instead of looked up by name on every request.
	byCode, byCube sync.Map // int, string → *obs.Counter
}

// Option configures the server.
type Option func(*Server)

// WithPprof mounts net/http/pprof under /debug/pprof/. Profiling endpoints
// expose internals (goroutine dumps, heap contents), so they are opt-in.
func WithPprof() Option {
	return func(s *Server) { mountPprof(s.mux) }
}

// mountPprof registers the net/http/pprof routes, on the single-node server
// and the coordinator alike.
func mountPprof(mux *http.ServeMux) {
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}

// WithLogger sets the request logger; the default is slog.Default.
func WithLogger(l *slog.Logger) Option {
	return func(s *Server) { s.log = l }
}

// WithQueryLog records every /query, /groupby and /range into the given
// query log (cube, view, shape, duration, plan-cache outcome, per-query
// costs), served back through GET /querylog.
func WithQueryLog(l *obs.QueryLog) Option {
	return func(s *Server) { s.qlog = l }
}

// WithResultCache enables per-cube answer caching in the catalog: repeated
// identical reads (group-bys, ranges, SQL) are served from an
// epoch-invalidated, size-bounded cache with singleflight dedup, and
// invalidate exactly when the plan cache does (updates, optimizes,
// reconfigures) or when the cube's generation changes (load, rebuild,
// catalog reload). Zero Options take the rescache defaults.
func WithResultCache(opt rescache.Options) Option {
	return func(s *Server) { s.reg.EnableResultCache(opt) }
}

// WithTraceSampling traces approximately the given fraction of queries
// (deterministically, every Nth) even when the client did not ask for a
// trace; sampled trees land in the query log. Responses are unchanged.
func WithTraceSampling(rate float64) Option {
	return func(s *Server) { s.sampler = obs.NewSampler(rate) }
}

// New wraps a cube and its engine into an HTTP handler serving it as the
// default cube of a one-entry catalog. Another subsystem (the cluster shard
// server) may serve the same engine: reads and writes serialise on its one
// lock. HTTP instruments land in the engine's own metrics registry, exactly
// as before the catalog existed.
func New(cube *viewcube.Cube, eng *viewcube.Engine, opts ...Option) *Server {
	reg := catalog.NewRegistry()
	if err := reg.RegisterHandle("default", catalog.NewSafeHandle(cube, eng)); err != nil {
		panic(err) // unreachable: fresh registry, fixed name
	}
	return newCatalogServer(reg, eng.Metrics(), opts...)
}

// NewCatalog builds the handler over a prepared catalog registry. The
// registry's root metrics (which the per-cube engine registries feed,
// labelled by cube) back /metrics.
func NewCatalog(reg *catalog.Registry, opts ...Option) *Server {
	return newCatalogServer(reg, reg.Metrics(), opts...)
}

func newCatalogServer(reg *catalog.Registry, met *viewcube.Metrics, opts ...Option) *Server {
	s := &Server{
		reg: reg,
		met: met,
		log: slog.Default(),
		mux: http.NewServeMux(),
	}
	mreg := met.Registry()
	s.reqLatency = mreg.Histogram("viewcube_http_request_seconds",
		"HTTP request latency in seconds.", nil)
	s.reqInFlight = mreg.Gauge("viewcube_http_in_flight_requests",
		"HTTP requests currently being served.")

	// Legacy single-cube routes resolve the catalog's default cube; their
	// success responses are byte-identical to the pre-catalog server.
	s.mux.HandleFunc("POST /query", s.routed(s.handleQuery))
	s.mux.HandleFunc("POST /update", s.routed(s.handleUpdate))
	s.mux.HandleFunc("POST /ingest", s.routed(s.handleIngest))
	s.mux.HandleFunc("POST /optimize", s.routed(s.handleOptimize))
	s.mux.HandleFunc("GET /groupby", s.routed(s.handleGroupBy))
	s.mux.HandleFunc("GET /range", s.routed(s.handleRange))
	s.mux.HandleFunc("GET /explain", s.routed(s.handleExplain))
	s.mux.HandleFunc("GET /stats", s.routed(s.handleStats))
	s.mux.HandleFunc("GET /info", s.routed(s.handleInfo))

	// Catalog surface: explicit cube routing plus view-scoped reads.
	s.mux.HandleFunc("GET /cubes", s.handleCubes)
	s.mux.HandleFunc("GET /cubes/{cube}/views", s.handleViewList)
	s.mux.HandleFunc("POST /cubes/{cube}/query", s.routed(s.handleQuery))
	s.mux.HandleFunc("POST /cubes/{cube}/update", s.routed(s.handleUpdate))
	s.mux.HandleFunc("POST /cubes/{cube}/ingest", s.routed(s.handleIngest))
	s.mux.HandleFunc("POST /cubes/{cube}/optimize", s.routed(s.handleOptimize))
	s.mux.HandleFunc("GET /cubes/{cube}/groupby", s.routed(s.handleGroupBy))
	s.mux.HandleFunc("GET /cubes/{cube}/range", s.routed(s.handleRange))
	s.mux.HandleFunc("GET /cubes/{cube}/explain", s.routed(s.handleExplain))
	s.mux.HandleFunc("GET /cubes/{cube}/stats", s.routed(s.handleStats))
	s.mux.HandleFunc("GET /cubes/{cube}/info", s.routed(s.handleInfo))
	s.mux.HandleFunc("POST /cubes/{cube}/views/{view}/query", s.routed(s.handleQuery))
	s.mux.HandleFunc("GET /cubes/{cube}/views/{view}/groupby", s.routed(s.handleGroupBy))
	s.mux.HandleFunc("GET /cubes/{cube}/views/{view}/range", s.routed(s.handleRange))
	s.mux.HandleFunc("GET /cubes/{cube}/views/{view}/explain", s.routed(s.handleExplain))
	s.mux.HandleFunc("GET /cubes/{cube}/views/{view}/info", s.routed(s.handleInfo))

	// Lifecycle: drain-gated unload, reload, zero-downtime rebuild.
	s.mux.HandleFunc("POST /cubes/{cube}/load", s.lifecycle(reg.Load))
	s.mux.HandleFunc("POST /cubes/{cube}/unload", s.lifecycle(reg.Unload))
	s.mux.HandleFunc("POST /cubes/{cube}/rebuild", s.lifecycle(reg.Rebuild))

	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /querylog", s.handleQueryLog)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	for _, o := range opts {
		o(s)
	}
	return s
}

// statusRecorder captures the response status and size for logging.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	n, err := r.ResponseWriter.Write(p)
	r.bytes += n
	return n, err
}

// ServeHTTP implements http.Handler: it dispatches through the mux with HTTP
// metrics around every call. The per-request access line is logged at Info,
// so it costs nothing unless the logger enables that level (cubed
// -accesslog); a non-2xx response is always logged, at Warn.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.reqInFlight.Add(1)
	rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
	s.mux.ServeHTTP(rec, r)
	dur := time.Since(start)
	s.reqInFlight.Add(-1)
	s.reqLatency.Observe(dur.Seconds())
	s.counter(&s.byCode, rec.status, "viewcube_http_requests_total",
		"HTTP requests served, by status code.", "code", strconv.Itoa(rec.status)).Inc()
	logRequest(s.log, r, rec, dur)
}

// logRequest writes one request's access line: Info for a 2xx, Warn for
// anything else. The attributes are built only when the level is enabled.
func logRequest(log *slog.Logger, r *http.Request, rec *statusRecorder, dur time.Duration) {
	level := slog.LevelInfo
	if rec.status < 200 || rec.status > 299 {
		level = slog.LevelWarn
	}
	if !log.Enabled(r.Context(), level) {
		return
	}
	log.Log(r.Context(), level, "request",
		"method", r.Method,
		"path", r.URL.Path,
		"status", rec.status,
		"bytes", rec.bytes,
		"duration_ms", float64(dur.Microseconds())/1000,
	)
}

// counter returns the labelled request counter for key — a status code in
// viewcube_http_requests_total, a cube in viewcube_http_cube_requests_total
// — resolving it in the registry on the key's first request only.
func (s *Server) counter(cache *sync.Map, key any, name, help, label, value string) *obs.Counter {
	if c, ok := cache.Load(key); ok {
		return c.(*obs.Counter)
	}
	c := s.met.Registry().Counter(name, help, label, value)
	cache.Store(key, c)
	return c
}

// routed acquires the catalog lease a cube-scoped handler runs under: the
// {cube} and {view} path values (both empty on legacy routes, resolving the
// default cube raw) pin a serving handle for the whole request, so a
// concurrent unload drains instead of racing. Routed requests are counted
// per cube, giving /metrics its cube label dimension.
func (s *Server) routed(h func(http.ResponseWriter, *http.Request, *catalog.Lease)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		lease, err := s.reg.Acquire(r.PathValue("cube"), r.PathValue("view"))
		if err != nil {
			s.writeErr(w, statusFor(err), err)
			return
		}
		defer lease.Release()
		s.counter(&s.byCube, lease.Cube, "viewcube_http_cube_requests_total",
			"HTTP requests routed, by cube.", "cube", lease.Cube).Inc()
		h(w, r, lease)
	}
}

// lifecycle wraps a registry lifecycle operation as a handler.
func (s *Server) lifecycle(op func(string) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("cube")
		if err := op(name); err != nil {
			s.writeErr(w, statusFor(err), err)
			return
		}
		s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok", "cube": name})
	}
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	writeJSONWith(s.log, w, status, v)
}

func writeJSONWith(log *slog.Logger, w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// The status line is already on the wire; all we can do is log.
		log.Error("encoding response", "error", err)
	}
}

// writeBody sends an already encoded JSON response: Content-Length set, one
// Write.
func writeBody(log *slog.Logger, w http.ResponseWriter, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(body); err != nil {
		log.Error("writing response", "error", err)
	}
}

// bodyPool recycles the buffers response bodies are encoded and assembled
// in, so a request allocates nothing of its answer's size. A buffer belongs to
// one request until putBuf; nothing may hold its bytes afterwards.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

func putBuf(bp *[]byte) {
	if cap(*bp) <= 1<<20 {
		bodyPool.Put(bp)
	}
}

// lendScratch lends the lease a pooled buffer to encode its body into; the
// returned func takes it back, grown, once the response is written.
func lendScratch(lease *catalog.Lease) func() {
	bp := bodyPool.Get().(*[]byte)
	lease.Scratch = *bp
	return func() { *bp = lease.Scratch; putBuf(bp) }
}

// respond builds a JSON response into a pooled buffer and sends it with
// writeBody; a build error (a NaN the encoder refuses, say) becomes a 500
// before any byte of the response is on the wire.
func respond(log *slog.Logger, w http.ResponseWriter, build func(buf []byte) ([]byte, error)) {
	bp := bodyPool.Get().(*[]byte)
	defer putBuf(bp)
	buf, err := build((*bp)[:0])
	if err != nil {
		const status = http.StatusInternalServerError
		writeJSONWith(log, w, status, errorBody{Error: "encoding response: " + err.Error(), Code: status})
		return
	}
	*bp = buf
	writeBody(log, w, buf)
}

// writeSum answers {"sum":x}: /range and /total, here and on the coordinator.
func writeSum(log *slog.Logger, w http.ResponseWriter, sum float64) {
	respond(log, w, func(b []byte) ([]byte, error) {
		b, err := relation.AppendJSONFloat(append(b, `{"sum":`...), sum)
		return append(b, '}', '\n'), err
	})
}

// appendJSON appends v as encoding/json marshals it.
func appendJSON(dst []byte, v any) ([]byte, error) {
	enc, err := json.Marshal(v)
	return append(dst, enc...), err
}

// errorBody is the one JSON shape of every error response, server and
// coordinator alike; Code echoes the HTTP status code so clients reading
// buffered bodies can disambiguate.
type errorBody struct {
	Error string `json:"error"`
	Code  int    `json:"code"`
}

func (s *Server) writeErr(w http.ResponseWriter, status int, err error) {
	s.writeJSON(w, status, errorBody{Error: err.Error(), Code: status})
}

// statusFor maps catalog errors onto the HTTP taxonomy: names that do not
// resolve (cubes, views, view members) and unloaded cubes are 404, a
// lifecycle transition in progress is 409, an answer the encoder cannot
// write is 500, and everything else — malformed requests included — is 400.
func statusFor(err error) int {
	switch {
	case errors.Is(err, relation.ErrUnencodable):
		return http.StatusInternalServerError
	case errors.Is(err, catalog.ErrUnknownCube),
		errors.Is(err, catalog.ErrUnknownView),
		errors.Is(err, catalog.ErrUnknownMember),
		errors.Is(err, catalog.ErrCubeUnloaded):
		return http.StatusNotFound
	case errors.Is(err, catalog.ErrCubeBusy):
		return http.StatusConflict
	default:
		return http.StatusBadRequest
	}
}

// wantTrace reads ?trace=1 from a request's parsed query — parsed once per
// request by the handler and shared by everything that reads a parameter.
func wantTrace(q url.Values) bool { return q.Get("trace") == "1" }

// labelTrace stamps the serving cube (and view, if any) onto a trace's root
// span, so sampled trees in the query log and explicit ?trace=1 responses
// identify their catalog entry.
func labelTrace(tr *viewcube.QueryTrace, lease *catalog.Lease) {
	if tr == nil {
		return
	}
	tr.SetLabel("cube", lease.Cube)
	if lease.View != nil {
		tr.SetLabel("view", lease.View.Name())
	}
	if snap := lease.Handle.PlanCacheStats().Snapshot; snap != 0 {
		tr.SetLabel("snapshot_epoch", strconv.FormatUint(snap, 10))
	}
}

// logQuery records one finished query into the query log (no-op without
// one): its cube and view, shape, duration, plan-cache epoch and — when the
// query ran traced — the costs mined from the span tree, plus the full tree
// for sampled queries. shape renders the client-facing form — view aliases as
// the client wrote them — and only when there is a log. agg is the answer's
// own label ("" for the native SUM reads), so logging never re-parses SQL.
func (s *Server) logQuery(lease *catalog.Lease, kind string, shape func() string, agg string, start time.Time, qt *viewcube.QueryTrace, sampled bool, rcHit *bool, qerr error) {
	if s.qlog == nil {
		return
	}
	pcs := lease.Handle.PlanCacheStats()
	e := obs.QueryEntry{
		Kind:           kind,
		Cube:           lease.Cube,
		View:           lease.View.Name(),
		Shape:          shape(),
		DurationUS:     time.Since(start).Microseconds(),
		Epoch:          pcs.Epoch,
		SnapshotEpoch:  pcs.Snapshot,
		Sampled:        sampled,
		Agg:            agg,
		ResultCacheHit: rcHit,
	}
	if qt != nil {
		tree := qt.Tree()
		e.TraceID = qt.TraceID()
		e.Ops = tree.SumAttr("ops")
		e.Cells = tree.SumAttr("cells")
		if w := tree.MaxAttr("measure_width"); w > 1 {
			e.MeasureWidth = int(w)
		}
		if plan := tree.Find("plan "); plan != nil {
			hit := plan.Attrs["cache_hit"] == 1
			e.PlanCacheHit = &hit
		}
		if sampled {
			e.Trace = tree
		}
	}
	if qerr != nil {
		e.Error = qerr.Error()
	}
	s.qlog.Record(e)
}

// sample reports whether this query should run under a sampled trace.
func (s *Server) sample(explicit bool) bool {
	return !explicit && s.sampler.Sample()
}

func (s *Server) handleQueryLog(w http.ResponseWriter, r *http.Request) {
	n, _ := strconv.Atoi(r.URL.Query().Get("n"))
	entries := s.qlog.Recent(n)
	if entries == nil {
		entries = []obs.QueryEntry{}
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"total":   s.qlog.Total(),
		"entries": entries,
	})
}

func (s *Server) handleCubes(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]any{
		"default": s.reg.Default(),
		"cubes":   s.reg.Cubes(),
	})
}

func (s *Server) handleViewList(w http.ResponseWriter, r *http.Request) {
	views, err := s.reg.Views(r.PathValue("cube"))
	if err != nil {
		s.writeErr(w, statusFor(err), err)
		return
	}
	if views == nil {
		views = []catalog.ViewStatus{}
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"views": views})
}

// maxBodyBytes caps a JSON request body, far above any real batch: a larger
// body is refused with 413 instead of being buffered.
const maxBodyBytes = 8 << 20

// decodeBody decodes r's JSON body, at most maxBodyBytes of it, into v. On
// failure it writes the error response (413 for an oversized body, 400
// otherwise) and reports false.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	if err == nil {
		return true
	}
	status := http.StatusBadRequest
	if tooBig := (*http.MaxBytesError)(nil); errors.As(err, &tooBig) {
		status = http.StatusRequestEntityTooLarge
	}
	s.writeErr(w, status, fmt.Errorf("decoding request: %w", err))
	return false
}

type queryRequest struct {
	SQL string `json:"sql"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request, lease *catalog.Lease) {
	var req queryRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	// Resolve view aliases and reject excluded members before planning; the
	// engine only ever sees underlying dimension names.
	sql, err := lease.View.RewriteSQL(req.SQL)
	if err != nil {
		s.writeErr(w, statusFor(err), err)
		return
	}
	explicit := wantTrace(r.URL.Query())
	sampled := s.sample(explicit)
	start := time.Now()
	defer lendScratch(lease)()
	ans, tr, rcHit, err := lease.ServeQuery(explicit || sampled, sql)
	labelTrace(tr, lease)
	s.logQuery(lease, "query", func() string { return req.SQL }, ans.Agg, start, tr, sampled, rcHit, err)
	if err != nil {
		s.writeErr(w, statusFor(err), err)
		return
	}
	respond(s.log, w, func(b []byte) ([]byte, error) {
		// The rows are the cached bytes (or the lease's scratch); only the
		// column names are per view.
		b, err := appendJSON(append(b, `{"columns":`...), lease.View.RewriteColumns(ans.Columns))
		if err != nil {
			return nil, err
		}
		b = append(append(b, `,"rows":`...), ans.Body...)
		if explicit && tr != nil {
			// A sampled trace feeds the query log only; the response shape
			// must not depend on the sampling decision.
			if b, err = appendJSON(append(b, `,"trace":`...), tr); err != nil {
				return nil, err
			}
		}
		return append(b, '}', '\n'), nil
	})
}

type updateRequest struct {
	Delta  float64           `json:"delta"`
	Values map[string]string `json:"values"`
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request, lease *catalog.Lease) {
	var req updateRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if err := lease.Handle.UpdateValue(req.Delta, req.Values); err != nil {
		s.writeErr(w, statusFor(err), err)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// ingestRequest carries a batch of deltas for the streaming write path.
// With flush set, the response is delayed until every row in the batch is
// queryable; without it, rows are only acknowledged (durable when the
// engine runs a WAL) and become visible at the next background merge.
type ingestRequest struct {
	Rows  []updateRequest `json:"rows"`
	Flush bool            `json:"flush,omitempty"`
}

type ingestResponse struct {
	Status string `json:"status"`
	Rows   int    `json:"rows"`
	// Streamed reports whether the batch went through the ingest buffer
	// (false: the handle has no streaming path and rows applied through the
	// synchronous locked write, which implies flushed semantics).
	Streamed bool                  `json:"streamed"`
	Ingest   *viewcube.IngestStats `json:"ingest,omitempty"`
}

// handleIngest is the batch write endpoint. A handle with the streaming
// path enabled acknowledges rows through its WAL-backed buffer; any other
// handle falls back to per-row synchronous updates, so the endpoint is
// usable against every cube with only the durability/latency contract
// changing. Rows apply in order until the first failure; the error reports
// how many were accepted.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request, lease *catalog.Lease) {
	var req ingestRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if len(req.Rows) == 0 {
		s.writeErr(w, http.StatusBadRequest, fmt.Errorf("ingest batch has no rows"))
		return
	}
	ing, streamed := lease.Handle.(catalog.Ingester)
	streamed = streamed && ing.IngestEnabled()
	for i, row := range req.Rows {
		var err error
		if streamed {
			err = ing.IngestValue(row.Delta, row.Values)
		} else {
			err = lease.Handle.UpdateValue(row.Delta, row.Values)
		}
		if err != nil {
			s.writeErr(w, statusFor(err), fmt.Errorf("row %d (after %d accepted): %w", i, i, err))
			return
		}
	}
	if streamed && req.Flush {
		if err := ing.FlushIngest(); err != nil {
			s.writeErr(w, http.StatusInternalServerError, fmt.Errorf("flushing ingest: %w", err))
			return
		}
	}
	resp := ingestResponse{Status: "ok", Rows: len(req.Rows), Streamed: streamed}
	if streamed {
		st := ing.IngestStats()
		resp.Ingest = &st
	}
	s.writeJSON(w, http.StatusOK, resp)
}

type optimizeRequest struct {
	Views []catalog.HotView `json:"views"`
}

func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request, lease *catalog.Lease) {
	var req optimizeRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if err := lease.Handle.Optimize(req.Views); err != nil {
		// A hot-view list the schema rejects is the client's fault; an
		// engine failure during re-selection is ours.
		status := http.StatusInternalServerError
		if errors.Is(err, catalog.ErrInvalidWorkload) {
			status = http.StatusBadRequest
		}
		s.writeErr(w, status, err)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func parseKeep(q url.Values) []string {
	keepParam := q.Get("keep")
	if keepParam == "" {
		return nil
	}
	return strings.Split(keepParam, ",")
}

func (s *Server) handleGroupBy(w http.ResponseWriter, r *http.Request, lease *catalog.Lease) {
	q := r.URL.Query()
	keep := parseKeep(q)
	resolved, err := lease.View.ResolveKeep(keep)
	if err != nil {
		s.writeErr(w, statusFor(err), err)
		return
	}
	explicit := wantTrace(q)
	sampled := s.sample(explicit)
	start := time.Now()
	defer lendScratch(lease)()
	ans, tr, rcHit, err := lease.ServeGroupBy(explicit || sampled, resolved...)
	labelTrace(tr, lease)
	s.logQuery(lease, "groupby", func() string { return strings.Join(keep, ",") }, "", start, tr, sampled, rcHit, err)
	if err != nil {
		s.writeErr(w, statusFor(err), err)
		return
	}
	if !explicit {
		writeBody(s.log, w, ans.Body) // the cached bytes or the scratch, and one Write
		return
	}
	respond(s.log, w, func(b []byte) ([]byte, error) {
		groups := ans.Body[:len(ans.Body)-1] // without the trailing newline
		b, err := appendJSON(append(append(append(b, `{"groups":`...), groups...), `,"trace":`...), tr)
		return append(b, '}', '\n'), err
	})
}

// parseRanges reads a range query's dim=lo:hi parameters, skipping the
// reserved (non-dimension) parameter names.
func parseRanges(q url.Values, reserved ...string) (map[string]viewcube.ValueRange, error) {
	ranges := make(map[string]viewcube.ValueRange)
	for dim, vals := range q {
		if len(vals) == 0 || slices.Contains(reserved, dim) {
			continue
		}
		lo, hi, ok := strings.Cut(vals[0], ":")
		if !ok {
			return nil, fmt.Errorf("range %q must be lo:hi", vals[0])
		}
		ranges[dim] = viewcube.ValueRange{Lo: lo, Hi: hi}
	}
	return ranges, nil
}

// rangeShape renders a range query's shape canonically (dimensions sorted)
// for the query log.
func rangeShape(ranges map[string]viewcube.ValueRange) string {
	dims := make([]string, 0, len(ranges))
	for dim := range ranges {
		dims = append(dims, dim)
	}
	sort.Strings(dims)
	parts := make([]string, len(dims))
	for i, dim := range dims {
		parts[i] = fmt.Sprintf("%s=[%s,%s]", dim, ranges[dim].Lo, ranges[dim].Hi)
	}
	return strings.Join(parts, " ")
}

func (s *Server) handleRange(w http.ResponseWriter, r *http.Request, lease *catalog.Lease) {
	q := r.URL.Query()
	ranges, err := parseRanges(q, "trace")
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, err)
		return
	}
	resolved, err := lease.View.ResolveRanges(ranges)
	if err != nil {
		s.writeErr(w, statusFor(err), err)
		return
	}
	explicit := wantTrace(q)
	sampled := s.sample(explicit)
	start := time.Now()
	sum, tr, rcHit, err := lease.ServeRangeSum(explicit || sampled, resolved)
	labelTrace(tr, lease)
	s.logQuery(lease, "range", func() string { return rangeShape(ranges) }, "", start, tr, sampled, rcHit, err)
	if err != nil {
		s.writeErr(w, statusFor(err), err)
		return
	}
	if explicit {
		s.writeJSON(w, http.StatusOK, map[string]any{"sum": sum, "trace": tr})
		return
	}
	writeSum(s.log, w, sum)
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request, lease *catalog.Lease) {
	keep, err := lease.View.ResolveKeep(parseKeep(r.URL.Query()))
	if err != nil {
		s.writeErr(w, statusFor(err), err)
		return
	}
	// The handle proxies Explain through the engine's shared planner, so
	// the rendered text is exactly the plan IR a query for the same view
	// executes — no query is run, and the shared plan cache is warmed.
	text, err := lease.Handle.ExplainGroupBy(keep...)
	if err != nil {
		s.writeErr(w, statusFor(err), err)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"text":       text,
		"plan_cache": lease.Handle.PlanCacheStats(),
	})
}

// fullStats embeds the workload profile's counters (flattened into the
// top-level JSON object, preserving the historical /stats shape) and adds
// the store cache and materialised-set figures.
type fullStats struct {
	viewcube.Stats
	Store                viewcube.StoreStats `json:"store"`
	MaterializedElements int                 `json:"materialized_elements"`
	StorageCellsNow      int                 `json:"storage_cells"`
	ResidentCells        int                 `json:"resident_cells"`
	ResultCache          *rescache.Stats     `json:"result_cache,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request, lease *catalog.Lease) {
	st := lease.Handle.Stats()
	out := fullStats{
		Stats:                st.Engine,
		Store:                st.Store,
		MaterializedElements: st.MaterializedElements,
		StorageCellsNow:      st.StorageCells,
		ResidentCells:        st.ResidentCells,
	}
	if lease.Cached() {
		rc := lease.ResultCacheStats()
		out.ResultCache = &rc
	}
	s.writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request, lease *catalog.Lease) {
	info := lease.Handle.Info()
	dims := info.Dimensions
	if lease.View != nil {
		// Through a view, /info reports the members the view exposes under
		// their exposed names; shape and volume remain the cube's.
		members := lease.View.Members()
		dims = make([]string, len(members))
		for i, m := range members {
			dims[i] = m.Name
		}
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"dimensions": dims,
		"shape":      info.Shape,
		"volume":     info.Volume,
		"measure":    info.Measure,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	for _, cs := range s.reg.Cubes() {
		if lease, err := s.reg.Acquire(cs.Name, ""); err == nil {
			lease.Handle.Stats() // brings each cube's resident-cells gauge up to date
			lease.Release()
		}
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.met.WritePrometheus(w); err != nil {
		s.log.Error("writing metrics", "error", err)
	}
}

// handleHealthz answers 200 {"status":"ok"}, or 503 naming the cubes whose
// ingest is degraded: they still answer reads, from the last published
// snapshot, but take no writes.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if bad := s.reg.Degraded(); len(bad) > 0 {
		s.writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "degraded", "degraded": bad})
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
