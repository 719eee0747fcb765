package cluster

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sync"
	"time"

	"viewcube"
	"viewcube/internal/obs"
)

// ShardEngine executes wire requests against one shard's engine. It is the
// piece both transports share: the TCP Server drives it from a socket, the
// Loopback drives it in-process — either way every request produces the
// shard's partial aggregate, exact for its sub-cube by distributivity.
//
// The engine is safe for concurrent use, so one ShardEngine serves any
// number of concurrent requests through the shard's concurrent read path,
// and keeps its plan cache, adaptive reselection and metrics registry.
type ShardEngine struct {
	cube *viewcube.Cube
	eng  *viewcube.Engine
	met  *obs.ClusterMetrics
}

// NewShardEngine wraps a shard's cube and engine. Cluster instruments are
// registered into the engine's own metrics registry, so the shard's
// existing /metrics surface exposes them.
func NewShardEngine(cube *viewcube.Cube, eng *viewcube.Engine) *ShardEngine {
	return &ShardEngine{
		cube: cube,
		eng:  eng,
		met:  obs.NewClusterMetrics(eng.Metrics().Registry()),
	}
}

// Engine returns the wrapped engine (for the shard's HTTP surface).
func (s *ShardEngine) Engine() *viewcube.Engine { return s.eng }

// Execute answers one request with the shard's partial aggregate. Execution
// failures are carried in Response.Err, never as a transport error: a
// malformed query must not tear down the connection serving it. A request
// with Trace set runs through the shard's traced read path and returns its
// span subtree on the response (errors never carry spans on the wire).
func (s *ShardEngine) Execute(req *Request) *Response {
	s.met.Served.Inc()
	s.met.InFlight.Add(1)
	defer s.met.InFlight.Add(-1)
	resp := &Response{ID: req.ID, Kind: req.Kind}
	var (
		qt  *viewcube.QueryTrace
		err error
	)
	switch req.Kind {
	case KindGroupBy:
		resp.Result, qt, err = s.eng.GroupByResult(req.Trace, req.Keep...)
	case KindTotal:
		resp.Sum, _, qt, err = s.eng.RangeResult(req.Trace, viewcube.RangeQuery{Total: true})
	case KindRangeSum:
		ranges := make(map[string]viewcube.ValueRange, len(req.Ranges))
		for _, vr := range req.Ranges {
			ranges[vr.Dim] = viewcube.ValueRange{Lo: vr.Lo, Hi: vr.Hi}
		}
		// ok is dropped: with no values in range on this shard the sum is
		// already 0, the distributive identity.
		resp.Sum, _, qt, err = s.eng.RangeResult(req.Trace, viewcube.RangeQuery{Ranges: ranges, Within: true})
	default:
		err = fmt.Errorf("cluster: unsupported request kind %d", req.Kind)
	}
	if err != nil {
		resp.Err = err.Error()
		s.met.ServedErrors.Inc()
		return resp
	}
	resp.Spans = qt.Tree() // nil for an untraced request
	// Piggyback the shard's data version; the coordinator folds it into its
	// result cache's upstream version.
	resp.Epoch = s.eng.DataVersion()
	return resp
}

// ErrServerClosed is returned by Server.Serve after Shutdown.
var ErrServerClosed = errors.New("cluster: server closed")

// Server serves a ShardEngine over the wire protocol on a TCP listener.
// Connections are long-lived; each carries a sequence of request/response
// frames, handled one at a time per connection (concurrency comes from
// many connections — the engine underneath is already concurrent).
type Server struct {
	sh  *ShardEngine
	log *slog.Logger

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	draining bool
	done     chan struct{} // closed when the last connection handler exits
}

// ServerOption configures a Server.
type ServerOption func(*Server)

// WithServerLogger sets the connection logger; the default is slog.Default.
func WithServerLogger(l *slog.Logger) ServerOption {
	return func(s *Server) { s.log = l }
}

// NewServer wraps a ShardEngine for TCP serving.
func NewServer(sh *ShardEngine, opts ...ServerOption) *Server {
	s := &Server{
		sh:    sh,
		log:   slog.Default(),
		conns: make(map[net.Conn]struct{}),
		done:  make(chan struct{}),
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Serve accepts connections on ln until Shutdown, then returns
// ErrServerClosed. Each connection gets its own goroutine.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return ErrServerClosed
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining {
				return ErrServerClosed
			}
			return err
		}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			conn.Close()
			return ErrServerClosed
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.sh.met.Conns.Add(1)
		go s.handle(conn)
	}
}

func (s *Server) handle(conn net.Conn) {
	defer func() {
		conn.Close()
		s.sh.met.Conns.Add(-1)
		s.mu.Lock()
		delete(s.conns, conn)
		if s.draining && len(s.conns) == 0 {
			close(s.done)
		}
		s.mu.Unlock()
	}()
	br := bufio.NewReader(conn)
	for {
		// Reading the frame off the socket is not timed (the connection
		// idles here between requests); the decode/execute/write stages
		// each feed their histogram.
		frame, err := readFrame(br, frameRequest)
		if err != nil {
			// EOF between frames is a clean hangup; anything else is a
			// protocol error or the drain deadline firing. Either way the
			// connection is done.
			return
		}
		decodeStart := time.Now()
		req, err := DecodeRequest(frame)
		if err != nil {
			return
		}
		s.sh.met.StageDecode.Observe(time.Since(decodeStart).Seconds())
		execStart := time.Now()
		resp := s.sh.Execute(req)
		s.sh.met.StageExecute.Observe(time.Since(execStart).Seconds())
		buf, err := AppendResponse(nil, resp)
		resp.Result.Release() // the frame is a copy: the assembled view goes back to the pool
		if err != nil {
			// The response itself would not fit a frame (e.g. a group map
			// past MaxFrame); tell the client instead of going silent.
			buf, err = AppendResponse(nil, &Response{ID: req.ID, Kind: req.Kind, Err: err.Error()})
			if err != nil {
				return
			}
		}
		writeStart := time.Now()
		if _, err := conn.Write(buf); err != nil {
			return
		}
		s.sh.met.StageWrite.Observe(time.Since(writeStart).Seconds())
		s.mu.Lock()
		draining := s.draining
		s.mu.Unlock()
		if draining {
			return
		}
	}
}

// Shutdown drains the server: the listener closes immediately, connections
// idle between frames are unblocked, and connections mid-request finish
// executing and write their response before closing. It returns when every
// connection has drained or ctx expires (remaining connections are then
// closed forcibly).
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		<-s.done
		return nil
	}
	s.draining = true
	if s.ln != nil {
		s.ln.Close()
	}
	if len(s.conns) == 0 {
		close(s.done)
	}
	for conn := range s.conns {
		// Unblock handlers waiting in ReadRequest; a handler that is
		// executing a request is not reading, so it finishes and responds
		// before noticing the drain.
		conn.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
	select {
	case <-s.done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for conn := range s.conns {
			conn.Close()
		}
		s.mu.Unlock()
		return ctx.Err()
	}
}
