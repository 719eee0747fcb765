package server

import (
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"viewcube"
	"viewcube/internal/cluster"
	"viewcube/internal/obs"
	"viewcube/internal/relation"
)

// CoordinatorServer is the HTTP face of a cluster coordinator — the same
// read API the single-node server exposes, answered by scatter-gather over
// the shard tier:
//
//	GET /groupby?keep=product,region        (?partial=1 tolerates dead shards, ?trace=1 adds the stitched trace)
//	GET /range?dim=lo:hi&dim2=lo:hi         (?partial=1, ?trace=1)
//	GET /total                              (?partial=1, ?trace=1)
//	GET /shards
//	GET /metrics
//	GET /querylog?n=50
//	GET /healthz
//	GET /debug/pprof/*    (only with WithCoordinatorPprof)
//
// Exact queries fail with 502 when any shard is unreachable; with
// partial=1 the response carries a "partial" object naming the shards the
// answer is missing, and the sums remain exact over the shards that did
// answer. With trace=1 the query runs under a distributed trace and the
// response carries the stitched span tree — one leg per shard with the
// shard's own internal spans grafted underneath (traced queries always
// tolerate dead shards, so a trace of a degraded answer shows which legs
// failed).
type CoordinatorServer struct {
	coord *cluster.Coordinator
	log   *slog.Logger
	mux   *http.ServeMux
	qlog  *obs.QueryLog
}

// CoordinatorOption configures the coordinator server.
type CoordinatorOption func(*CoordinatorServer)

// WithCoordinatorLogger sets the request logger; the default is
// slog.Default.
func WithCoordinatorLogger(l *slog.Logger) CoordinatorOption {
	return func(s *CoordinatorServer) { s.log = l }
}

// WithCoordinatorQueryLog serves the given query log through GET /querylog.
// Pass the same log the coordinator was built with (cluster.Options
// .QueryLog) — the coordinator records entries, this server exposes them.
func WithCoordinatorQueryLog(l *obs.QueryLog) CoordinatorOption {
	return func(s *CoordinatorServer) { s.qlog = l }
}

// WithCoordinatorPprof mounts net/http/pprof under /debug/pprof/, as
// WithPprof does on the single-node server; opt-in for the same reason.
func WithCoordinatorPprof() CoordinatorOption {
	return func(s *CoordinatorServer) { mountPprof(s.mux) }
}

// NewCoordinator wraps a cluster coordinator into an HTTP handler.
func NewCoordinator(coord *cluster.Coordinator, opts ...CoordinatorOption) *CoordinatorServer {
	s := &CoordinatorServer{
		coord: coord,
		log:   slog.Default(),
		mux:   http.NewServeMux(),
	}
	s.mux.HandleFunc("GET /groupby", s.handleGroupBy)
	s.mux.HandleFunc("GET /range", s.handleRange)
	s.mux.HandleFunc("GET /total", s.handleTotal)
	s.mux.HandleFunc("GET /shards", s.handleShards)
	s.mux.HandleFunc("POST /invalidate", s.handleInvalidate)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /querylog", s.handleQueryLog)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	for _, o := range opts {
		o(s)
	}
	return s
}

// ServeHTTP implements http.Handler with the same access logging as the
// single-node server: the request line at Info (cubed -accesslog), non-2xx
// responses always, at Warn.
func (s *CoordinatorServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
	s.mux.ServeHTTP(rec, r)
	logRequest(s.log, r, rec, time.Since(start))
}

func (s *CoordinatorServer) writeJSON(w http.ResponseWriter, status int, v any) {
	writeJSONWith(s.log, w, status, v)
}

func (s *CoordinatorServer) writeErr(w http.ResponseWriter, status int, err error) {
	s.writeJSON(w, status, errorBody{Error: err.Error(), Code: status})
}

func wantPartial(q url.Values) bool { return q.Get("partial") == "1" }

// queryStatus maps a coordinator error to an HTTP status: admission shed
// is 429 (retry later, the tier is saturated), a fully unreachable tier is
// 503, some shards unreachable in exact mode is 502, and shard-side query
// errors (bad dimension, malformed range) are the client's fault. An answer
// the encoder cannot write is the server's.
func queryStatus(err error) int {
	switch {
	case errors.Is(err, relation.ErrUnencodable):
		return http.StatusInternalServerError
	case errors.Is(err, cluster.ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, cluster.ErrUnavailable):
		return http.StatusServiceUnavailable
	case strings.Contains(err.Error(), "unreachable"):
		return http.StatusBadGateway
	}
	return http.StatusBadRequest
}

// handleGroupBy answers from the coordinator's merged columnar Result with
// the encoder the single-node /groupby uses, so composite keys render with
// the same "/" separator and the bodies are the same bytes.
func (s *CoordinatorServer) handleGroupBy(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	traced, partial := wantTrace(q), wantPartial(q)
	res, pr, tr, err := s.coord.GroupByResult(r.Context(), partial || traced, traced, parseKeep(q)...)
	if err != nil {
		s.writeErr(w, queryStatus(err), err)
		return
	}
	respond(s.log, w, func(b []byte) ([]byte, error) {
		if !traced && !partial {
			b, err := res.AppendGroupsJSON(b)
			return append(b, '\n'), err
		}
		b, err := res.AppendGroupsJSON(append(b, `{"groups":`...))
		if err != nil {
			return nil, err
		}
		if b, err = appendJSON(append(b, `,"partial":`...), pr); err != nil {
			return nil, err
		}
		if traced {
			if b, err = appendJSON(append(b, `,"trace":`...), tr.Tree()); err != nil {
				return nil, err
			}
		}
		return append(b, '}', '\n'), nil
	})
}

func (s *CoordinatorServer) handleRange(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	ranges := make(map[string]viewcube.ValueRange)
	for dim, vals := range q {
		if dim == "partial" || dim == "trace" || len(vals) == 0 {
			continue
		}
		lo, hi, ok := strings.Cut(vals[0], ":")
		if !ok {
			s.writeErr(w, http.StatusBadRequest, fmt.Errorf("range %q must be lo:hi", vals[0]))
			return
		}
		ranges[dim] = viewcube.ValueRange{Lo: lo, Hi: hi}
	}
	if wantTrace(q) {
		sum, pr, tr, err := s.coord.TraceRangeSum(r.Context(), ranges)
		if err != nil {
			s.writeErr(w, queryStatus(err), err)
			return
		}
		s.writeJSON(w, http.StatusOK, map[string]any{"sum": sum, "partial": pr, "trace": tr.Tree()})
		return
	}
	if wantPartial(q) {
		sum, pr, err := s.coord.RangeSumPartial(r.Context(), ranges)
		if err != nil {
			s.writeErr(w, queryStatus(err), err)
			return
		}
		s.writeJSON(w, http.StatusOK, map[string]any{"sum": sum, "partial": pr})
		return
	}
	sum, err := s.coord.RangeSum(ranges)
	if err != nil {
		s.writeErr(w, queryStatus(err), err)
		return
	}
	writeSum(s.log, w, sum)
}

func (s *CoordinatorServer) handleTotal(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	if wantTrace(q) {
		sum, pr, tr, err := s.coord.TraceTotal(r.Context())
		if err != nil {
			s.writeErr(w, queryStatus(err), err)
			return
		}
		s.writeJSON(w, http.StatusOK, map[string]any{"sum": sum, "partial": pr, "trace": tr.Tree()})
		return
	}
	if wantPartial(q) {
		sum, pr, err := s.coord.TotalPartial(r.Context())
		if err != nil {
			s.writeErr(w, queryStatus(err), err)
			return
		}
		s.writeJSON(w, http.StatusOK, map[string]any{"sum": sum, "partial": pr})
		return
	}
	sum, err := s.coord.Total()
	if err != nil {
		s.writeErr(w, queryStatus(err), err)
		return
	}
	writeSum(s.log, w, sum)
}

func (s *CoordinatorServer) handleShards(w http.ResponseWriter, r *http.Request) {
	body := map[string]any{"shards": s.coord.ShardNames()}
	if s.coord.Cached() {
		body["result_cache"] = s.coord.ResultCacheStats()
	}
	s.writeJSON(w, http.StatusOK, body)
}

// handleInvalidate drops every cached merged answer. The coordinator
// cannot observe shard-side updates, so whoever mutates the shard tier
// (a loader, a resharder, an operator) POSTs here afterwards.
func (s *CoordinatorServer) handleInvalidate(w http.ResponseWriter, r *http.Request) {
	epoch := s.coord.InvalidateResults()
	s.writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "epoch": epoch})
}

func (s *CoordinatorServer) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.coord.Registry().WriteText(w); err != nil {
		s.log.Error("writing metrics", "error", err)
	}
}

func (s *CoordinatorServer) handleQueryLog(w http.ResponseWriter, r *http.Request) {
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

func (s *CoordinatorServer) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "shards": len(s.coord.ShardNames())})
}
