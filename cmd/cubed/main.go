// Command cubed serves a data cube over HTTP: load a CSV relation (or
// generate synthetic sales data), attach a view-element engine, and expose
// the JSON API of internal/server.
//
//	cubed -csv sales.csv -measure sales -addr :8080
//	cubed -gen 50000 -budget 1.5 -reselect 500
//
// Catalog mode serves several cubes (each with its own declarative views)
// from one process; legacy single-cube routes keep working against the
// catalog's default cube (see DESIGN.md §14):
//
//	cubed -catalog catalog.json -addr :8080
//
//	curl -s localhost:8080/cubes
//	curl -s localhost:8080/cubes/sales/views
//	curl -s localhost:8080/cubes/sales/views/public/groupby?keep=region
//	curl -s -X POST localhost:8080/cubes/sales/rebuild
//
//	curl -s localhost:8080/info
//	curl -s localhost:8080/groupby?keep=product
//	curl -s 'localhost:8080/range?day=day-000:day-013'
//	curl -s -X POST localhost:8080/query -d '{"sql":"SELECT SUM(sales) GROUP BY region"}'
//	curl -s localhost:8080/metrics
//	curl -s localhost:8080/healthz
//
// Cluster modes (see DESIGN.md §11):
//
//	cubed -gen 50000 -shard -shardaddr :9001          # shard server: binary protocol on
//	                                                  # -shardaddr, obs HTTP on -addr
//	cubed -coordinator localhost:9001,localhost:9002  # scatter-gather front end on -addr
//
// Serving-tier performance flags (see DESIGN.md §15): -rescache bounds an
// epoch-invalidated answer cache on any serving mode, -maxinflight sheds
// coordinator load past a concurrency bound, replicas ride pipe-separated
// inside -coordinator, and -catalogreload hot-reloads the catalog file:
//
//	cubed -catalog catalog.json -rescache 64 -catalogreload 5s
//	cubed -coordinator 'h1:9001|h2:9001,h3:9002' -rescache 64 -maxinflight 256
//
// Streaming ingest (single-cube mode, see DESIGN.md §16): -ingest switches
// writes onto a WAL-buffered batch path merged in the background, so reads
// never block on writes; -wal makes acknowledged writes crash-durable:
//
//	cubed -gen 50000 -ingest -wal /var/lib/cubed/ingest.wal
//	curl -s -X POST localhost:8080/ingest -d '{"rows":[{"delta":5,"values":{"region":"east",...}}],"flush":true}'
//
// Logging: start-up, shutdown, reload and error lines always; a request that
// does not end in a 2xx at WARN; the one-line-per-request access log only
// with -accesslog (it is measurable on the hit path — DESIGN.md §17).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"viewcube"
	"viewcube/internal/catalog"
	"viewcube/internal/cluster"
	"viewcube/internal/obs"
	"viewcube/internal/rescache"
	"viewcube/internal/server"
	"viewcube/internal/workload"
)

// config carries every flag, plus test hooks: ready reports the actual
// listen addresses (useful with ":0"), and logW redirects logs.
type config struct {
	csvPath     string
	catalogPath string
	measure     string
	gen         int
	seed        int64
	addr        string
	budget      float64
	reselect    int
	diskDir     string
	enablePprof bool
	logJSON     bool
	accessLog   bool // log every HTTP request, not only the failed ones

	shard       bool          // serve this cube as one cluster shard
	shardAddr   string        // binary-protocol listen address in -shard mode
	coordinator string        // comma-separated shard addrs; coordinator mode
	grace       time.Duration // shutdown grace period

	resCacheMB    int           // result-cache byte bound in MiB (0 = off)
	maxInFlight   int           // coordinator admission: concurrent queries (0 = unlimited)
	queueTimeout  time.Duration // coordinator admission: max queue wait before 429
	catalogReload time.Duration // poll the -catalog file and hot-reload (0 = off)

	queryLog    string  // JSONL query-log path ("" = in-memory ring only)
	queryLogMax int64   // rotate the query-log file past this many bytes
	traceSample float64 // fraction of queries traced by sampling (0 = off)

	ingest         bool          // enable the streaming ingest path (single-cube mode)
	walPath        string        // WAL segment path ("" = acknowledged-only durability)
	walFsync       bool          // fsync the WAL after every append
	ingestInterval time.Duration // background merge interval
	ingestPending  int           // max buffered cells before appends block (<0 = unbounded)

	ready func(httpAddr, shardAddr string) // called once listeners are bound
	logW  *os.File                         // log destination (default stderr)
}

func main() {
	var cfg config
	flag.StringVar(&cfg.csvPath, "csv", "", "CSV file holding the relation")
	flag.StringVar(&cfg.catalogPath, "catalog", "", "JSON catalog file; serve every declared cube and view from one process")
	flag.StringVar(&cfg.measure, "measure", "sales", "measure column name")
	flag.IntVar(&cfg.gen, "gen", 0, "generate this many synthetic sales rows instead of reading -csv")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for -gen")
	flag.StringVar(&cfg.addr, "addr", ":8080", "HTTP listen address")
	flag.Float64Var(&cfg.budget, "budget", 1.0, "storage budget as a multiple of the cube volume")
	flag.IntVar(&cfg.reselect, "reselect", 0, "adapt the materialised set every N queries (0 = off)")
	flag.StringVar(&cfg.diskDir, "store", "", "directory for the durable element store (default: in memory)")
	flag.BoolVar(&cfg.enablePprof, "pprof", false, "expose net/http/pprof under /debug/pprof/")
	flag.BoolVar(&cfg.logJSON, "logjson", false, "emit logs as JSON instead of text")
	flag.BoolVar(&cfg.accessLog, "accesslog", false, "log one line per HTTP request (default: only non-2xx responses, at WARN)")
	flag.BoolVar(&cfg.shard, "shard", false, "serve this cube as a cluster shard (binary protocol on -shardaddr)")
	flag.StringVar(&cfg.shardAddr, "shardaddr", ":9090", "shard-protocol listen address in -shard mode")
	flag.StringVar(&cfg.coordinator, "coordinator", "", "comma-separated shard addresses; run as a scatter-gather coordinator instead of loading a cube (replicas of one shard pipe-separated: addr|replica)")
	flag.DurationVar(&cfg.grace, "grace", 10*time.Second, "shutdown grace period for in-flight requests")
	flag.IntVar(&cfg.resCacheMB, "rescache", 0, "cache query answers, bounded to this many MiB; epoch-invalidated on any cube change (0 = off)")
	flag.IntVar(&cfg.maxInFlight, "maxinflight", 0, "coordinator mode: admit at most this many concurrent queries, shed the rest with 429 (0 = unlimited)")
	flag.DurationVar(&cfg.queueTimeout, "queuetimeout", 100*time.Millisecond, "coordinator mode: how long an over-admission query may queue before it is shed")
	flag.DurationVar(&cfg.catalogReload, "catalogreload", 0, "catalog mode: poll the catalog file at this interval and hot-reload cube/view changes (0 = off)")
	flag.StringVar(&cfg.queryLog, "querylog", "", "append query analytics as JSON lines to this file (served at /querylog either way)")
	flag.Int64Var(&cfg.queryLogMax, "querylogmax", 8<<20, "rotate the -querylog file once it exceeds this many bytes")
	flag.Float64Var(&cfg.traceSample, "tracesample", 0, "fraction of queries to trace by sampling into the query log (0 = off, 1 = all)")
	flag.BoolVar(&cfg.ingest, "ingest", false, "enable the streaming ingest path: updates buffer and merge in the background, reads never block on writes")
	flag.StringVar(&cfg.walPath, "wal", "", "write-ahead-log path for -ingest; replayed on startup (\"\" = no WAL, acknowledged writes may be lost on crash)")
	flag.BoolVar(&cfg.walFsync, "walfsync", false, "fsync the -wal after every append (durable per-write, slower)")
	flag.DurationVar(&cfg.ingestInterval, "ingestinterval", 0, "background merge interval for -ingest (0 = 5ms default)")
	flag.IntVar(&cfg.ingestPending, "ingestpending", 0, "max buffered distinct cells before ingest appends block (0 = 65536 default, negative = unbounded)")
	flag.Parse()

	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "cubed:", err)
		os.Exit(1)
	}
}

func (cfg *config) logger() *slog.Logger { return cfg.loggerAt(slog.LevelInfo) }

// requestLogger is what the HTTP handlers log through. Their per-request
// access line is an Info record, so without -accesslog they get a logger that
// starts at Warn: a request that fails is still logged, one that succeeds
// costs neither the line nor its attributes.
func (cfg *config) requestLogger() *slog.Logger {
	if cfg.accessLog {
		return cfg.logger()
	}
	return cfg.loggerAt(slog.LevelWarn)
}

func (cfg *config) loggerAt(level slog.Level) *slog.Logger {
	w := cfg.logW
	if w == nil {
		w = os.Stderr
	}
	opts := &slog.HandlerOptions{Level: level}
	if cfg.logJSON {
		return slog.New(slog.NewJSONHandler(w, opts))
	}
	return slog.New(slog.NewTextHandler(w, opts))
}

func run(cfg config) error {
	switch {
	case cfg.catalogPath != "":
		return runCatalog(cfg)
	case cfg.coordinator != "":
		return runCoordinator(cfg)
	default:
		return runNode(cfg)
	}
}

// runCatalog serves every cube of a catalog file behind one registry: the
// multi-cube routes, declarative views and the lifecycle API
// (load/unload/rebuild) all hang off a single HTTP listener, and legacy
// single-cube routes resolve to the catalog's default cube.
func runCatalog(cfg config) error {
	switch {
	case cfg.shard:
		return fmt.Errorf("-shard is incompatible with -catalog: shard mode serves exactly one cube")
	case cfg.coordinator != "":
		return fmt.Errorf("-coordinator is incompatible with -catalog")
	case cfg.csvPath != "" || cfg.gen > 0:
		return fmt.Errorf("-csv/-gen are incompatible with -catalog: declare cube sources in the catalog file")
	}
	logger := cfg.logger()

	raw, err := os.ReadFile(cfg.catalogPath)
	if err != nil {
		return err
	}
	f, err := catalog.Parse(raw)
	if err != nil {
		return fmt.Errorf("%s: %w", cfg.catalogPath, err)
	}
	reg := catalog.NewRegistry()
	if cfg.resCacheMB > 0 {
		reg.EnableResultCache(rescache.Options{MaxBytes: int64(cfg.resCacheMB) << 20})
		logger.Info("result cache enabled", "max_mb", cfg.resCacheMB)
	}
	if err := f.Build(reg, filepath.Dir(cfg.catalogPath)); err != nil {
		return err
	}
	qlog, err := cfg.openQueryLog()
	if err != nil {
		return err
	}
	defer qlog.Close()
	opts := []server.Option{server.WithLogger(cfg.requestLogger()), server.WithQueryLog(qlog)}
	if cfg.traceSample > 0 {
		opts = append(opts, server.WithTraceSampling(cfg.traceSample))
		logger.Info("sampled tracing enabled", "rate", cfg.traceSample)
	}
	if cfg.enablePprof {
		opts = append(opts, server.WithPprof())
		logger.Info("pprof enabled", "path", "/debug/pprof/")
	}

	var quit func()
	if cfg.catalogReload > 0 {
		stopReload := make(chan struct{})
		rl := catalog.NewReloader(reg, cfg.catalogPath, f, raw)
		go rl.Run(cfg.catalogReload, stopReload, func(format string, args ...any) {
			logger.Info(fmt.Sprintf(format, args...))
		})
		logger.Info("catalog hot-reload enabled", "interval", cfg.catalogReload.String())
		quit = func() { close(stopReload) }
	}
	srv := &http.Server{Handler: server.NewCatalog(reg, opts...)}
	return cfg.serve(logger, srv, nil, func(addr string) {
		cubes := reg.Cubes()
		for _, cs := range cubes {
			attrs := []any{"cube", cs.Name, "default", cs.Default}
			if cs.Info != nil {
				attrs = append(attrs, "dimensions", fmt.Sprint(cs.Info.Dimensions))
			}
			if len(cs.Views) > 0 {
				attrs = append(attrs, "views", strings.Join(cs.Views, ","))
			}
			logger.Info("cube registered", attrs...)
		}
		logger.Info("serving catalog", "addr", addr, "cubes", len(cubes))
	}, quit)
}

// runNode serves a cube: always the HTTP API on -addr, plus the binary
// shard protocol on -shardaddr in -shard mode. Both share one Engine and
// its lock, so HTTP updates and shard reads serialise correctly.
func runNode(cfg config) error {
	logger := cfg.logger()

	cube, err := loadCube(cfg.csvPath, cfg.measure, cfg.gen, cfg.seed)
	if err != nil {
		return err
	}
	eng, err := cube.NewEngine(viewcube.EngineOptions{
		StorageBudget: int(cfg.budget * float64(cube.Volume())),
		ReselectEvery: cfg.reselect,
		DiskDir:       cfg.diskDir,
		Metrics:       viewcube.NewMetrics(),
	})
	if err != nil {
		return err
	}
	cube.ReleaseCells() // a server reads cells through the engine only
	if cfg.ingest {
		if err := eng.EnableIngest(viewcube.IngestOptions{
			WALPath:    cfg.walPath,
			Fsync:      cfg.walFsync,
			Interval:   cfg.ingestInterval,
			MaxPending: cfg.ingestPending,
		}); err != nil {
			return fmt.Errorf("enabling ingest: %w", err)
		}
		defer eng.DisableIngest()
		logger.Info("streaming ingest enabled",
			"wal", cfg.walPath, "fsync", cfg.walFsync,
			"replayed", eng.IngestStats().WALReplayed)
	}
	qlog, err := cfg.openQueryLog()
	if err != nil {
		return err
	}
	defer qlog.Close()
	opts := []server.Option{server.WithLogger(cfg.requestLogger()), server.WithQueryLog(qlog)}
	if cfg.resCacheMB > 0 {
		opts = append(opts, server.WithResultCache(rescache.Options{MaxBytes: int64(cfg.resCacheMB) << 20}))
		logger.Info("result cache enabled", "max_mb", cfg.resCacheMB)
	}
	if cfg.traceSample > 0 {
		opts = append(opts, server.WithTraceSampling(cfg.traceSample))
		logger.Info("sampled tracing enabled", "rate", cfg.traceSample)
	}
	if cfg.enablePprof {
		opts = append(opts, server.WithPprof())
		logger.Info("pprof enabled", "path", "/debug/pprof/")
	}

	var shard *cluster.Server
	if cfg.shard {
		shard = cluster.NewServer(cluster.NewShardEngine(cube, eng), cluster.WithServerLogger(logger))
	}
	srv := &http.Server{Handler: server.New(cube, eng, opts...)}
	return cfg.serve(logger, srv, shard, func(addr string) {
		logger.Info("serving",
			"addr", addr,
			"shape", fmt.Sprint(cube.Shape()),
			"dimensions", fmt.Sprint(cube.Dimensions()),
		)
	}, nil)
}

// runCoordinator serves the scatter-gather HTTP front end over a set of
// shard servers; no cube is loaded locally. Shards are comma-separated;
// within one shard, extra replicas holding the same data follow the primary
// pipe-separated ("host1:9001|host2:9001"), and fan-out balances across
// copies by outstanding load.
func runCoordinator(cfg config) error {
	logger := cfg.logger()

	shards, err := parseShardFlag(cfg.coordinator)
	if err != nil {
		return err
	}
	qlog, err := cfg.openQueryLog()
	if err != nil {
		return err
	}
	defer qlog.Close()
	copts := cluster.Options{
		TraceSampleRate: cfg.traceSample,
		QueryLog:        qlog,
		MaxInFlight:     cfg.maxInFlight,
		QueueTimeout:    cfg.queueTimeout,
	}
	if cfg.resCacheMB > 0 {
		copts.Cache = &rescache.Options{MaxBytes: int64(cfg.resCacheMB) << 20}
	}
	coord, err := cluster.NewCoordinator(shards, copts)
	if err != nil {
		return err
	}
	defer coord.Close()
	if cfg.traceSample > 0 {
		logger.Info("sampled tracing enabled", "rate", cfg.traceSample)
	}
	if cfg.resCacheMB > 0 {
		logger.Info("result cache enabled", "max_mb", cfg.resCacheMB)
	}
	if cfg.maxInFlight > 0 {
		logger.Info("admission control enabled", "max_in_flight", cfg.maxInFlight, "queue_timeout", cfg.queueTimeout.String())
	}

	opts := []server.CoordinatorOption{server.WithCoordinatorLogger(cfg.requestLogger()), server.WithCoordinatorQueryLog(qlog)}
	if cfg.enablePprof {
		opts = append(opts, server.WithCoordinatorPprof())
		logger.Info("pprof enabled", "path", "/debug/pprof/")
	}
	srv := &http.Server{Handler: server.NewCoordinator(coord, opts...)}
	return cfg.serve(logger, srv, nil, func(addr string) {
		logger.Info("serving coordinator", "addr", addr, "shards", len(shards))
	}, nil)
}

// serve is every mode's listen, serve and drain. It serves srv on cfg.addr
// and, when shard is set, the shard protocol on cfg.shardAddr, logging
// banner with the bound HTTP address, until a server fails or SIGINT or
// SIGTERM arrives. quit, when set, runs first on every way out (the
// catalog's reloader stops there). On a signal both servers drain within
// the grace period: the shard server first, then HTTP, and a stuck client
// cannot hold the process beyond it.
func (cfg *config) serve(logger *slog.Logger, srv *http.Server, shard *cluster.Server, banner func(addr string), quit func()) error {
	if quit == nil {
		quit = func() {}
	}
	httpLn, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		quit()
		return err
	}
	errCh := make(chan error, 2)
	go func() {
		banner(httpLn.Addr().String())
		errCh <- srv.Serve(httpLn)
	}()
	shardAddr := ""
	if shard != nil {
		shardLn, err := net.Listen("tcp", cfg.shardAddr)
		if err != nil {
			quit()
			srv.Close()
			return err
		}
		shardAddr = shardLn.Addr().String()
		go func() {
			logger.Info("serving shard protocol", "addr", shardAddr)
			errCh <- shard.Serve(shardLn)
		}()
	}
	// Registered before ready is announced: a SIGTERM that arrives in between
	// must drain the servers, not kill the process.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if cfg.ready != nil {
		cfg.ready(httpLn.Addr().String(), shardAddr)
	}
	select {
	case err := <-errCh:
		quit()
		srv.Close()
		if shard != nil {
			shard.Shutdown(context.Background())
		}
		return err
	case <-ctx.Done():
	}
	quit()

	logger.Info("shutting down", "grace", cfg.grace.String())
	sctx, cancel := context.WithTimeout(context.Background(), cfg.grace)
	defer cancel()
	if shard != nil {
		if err := shard.Shutdown(sctx); err != nil {
			return fmt.Errorf("shard shutdown: %w", err)
		}
		if err := <-errCh; !errors.Is(err, cluster.ErrServerClosed) {
			return err
		}
	}
	if err := srv.Shutdown(sctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errCh; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	logger.Info("stopped")
	return nil
}

// parseShardFlag turns the -coordinator value into the shard topology:
// shards are comma-separated, and each shard may list replica addresses
// after its primary, pipe-separated. Every address is dialled lazily, so a
// down shard surfaces per-query, not at startup.
func parseShardFlag(spec string) ([]cluster.Shard, error) {
	var shards []cluster.Shard
	for _, one := range strings.Split(spec, ",") {
		if one = strings.TrimSpace(one); one == "" {
			continue
		}
		copies := strings.Split(one, "|")
		addr := strings.TrimSpace(copies[0])
		if addr == "" {
			return nil, fmt.Errorf("shard spec %q: empty primary address", one)
		}
		sh := cluster.Shard{Name: addr, Client: cluster.DialShard(addr, 2*time.Second)}
		for _, rep := range copies[1:] {
			if rep = strings.TrimSpace(rep); rep == "" {
				return nil, fmt.Errorf("shard spec %q: empty replica address", one)
			}
			sh.Replicas = append(sh.Replicas, cluster.DialShard(rep, 2*time.Second))
		}
		shards = append(shards, sh)
	}
	return shards, nil
}

// openQueryLog builds the query log shared by both serving modes: an
// in-memory ring always (backing /querylog), plus a rotating JSONL file
// when -querylog names a path.
func (cfg *config) openQueryLog() (*obs.QueryLog, error) {
	return obs.NewQueryLog(obs.QueryLogOptions{Path: cfg.queryLog, MaxBytes: cfg.queryLogMax})
}

func loadCube(csvPath, measure string, gen int, seed int64) (*viewcube.Cube, error) {
	if gen > 0 {
		tbl, err := workload.SalesTable(rand.New(rand.NewSource(seed)), 50, 8, 60, gen)
		if err != nil {
			return nil, err
		}
		return viewcube.FromTable(tbl)
	}
	if csvPath == "" {
		return nil, fmt.Errorf("need -csv <file> or -gen <rows>")
	}
	f, err := os.Open(csvPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return viewcube.Load(f, measure)
}
