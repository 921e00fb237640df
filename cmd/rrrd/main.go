// Command rrrd serves rank-regret representatives over HTTP.
//
// It wraps the batch library behind a dataset registry and a keyed
// precomputation cache with singleflight semantics: the first request for a
// (dataset, k, algorithm) triple computes the representative, concurrent
// duplicates share that computation, and every later request is a cache
// hit.
//
// The HTTP API lives under /v1. -request-timeout bounds each request's
// deadline end to end: the context reaches the solver's hot loops, so an
// over-budget solve is actually interrupted, not merely abandoned.
//
// -shards routes every solve through the map-reduce engine: the dataset is
// split into P shards, a parallel map phase prunes it to an exact candidate
// pool, and the algorithm runs on the pool (see DESIGN.md §7). Shard
// counters appear in /v1/stats and, in Prometheus text format, /v1/metrics.
//
// -delta enables the mutation subsystem (DESIGN.md §8): datasets gain
// append/delete endpoints with stable tuple IDs and monotonically
// increasing generations, and each mutation batch classifies every cached
// answer as still-exact (re-keyed, stays served from cache), repairable
// (re-solved on the patched candidate pool only) or stale (recomputed
// lazily). Delta counters appear in /v1/stats and /v1/metrics.
//
// -watch (with -delta) turns the daemon into a live data product
// (DESIGN.md §10): GET /v1/watch?dataset=D&k=K&algo=A is a Server-Sent
// Events stream that opens with a snapshot of the current representative
// and then pushes one event per mutation batch — a cheap generation
// heartbeat when the answer was proven still exact, the new
// representative IDs when it was repaired or recomputed. Slow consumers
// are dropped after -watch-buffer undelivered events instead of
// backpressuring mutations; reconnects resume via Last-Event-ID. The
// companion client is `rrr watch`.
//
// -data-dir makes the daemon durable (DESIGN.md §9): every mutation batch
// is appended to a write-ahead log before it commits (-fsync picks the
// sync policy), the registry is snapshotted on clean shutdown, and the
// next boot restores the snapshot, replays the WAL's intact prefix —
// cleanly truncating a torn tail left by a crash — and readmits cached
// answers from the warm-cache file, so still-valid representatives are
// served without recomputation. -no-persist ignores -data-dir for a
// one-off memory-only run against the same configuration. Persistence
// counters appear in /v1/stats (persist) and /v1/metrics.
//
// Observability (DESIGN.md §12): requests carrying a W3C traceparent
// header are traced through every solver phase and retrievable at
// GET /v1/traces/{id}; cold /v1/representative solves mint a local
// trace and return its id in X-Trace-Id either way. -slow-threshold
// logs any slower request with its full span tree. -log-format picks
// text or json structured logs (the access log carries trace_id).
// -debug-addr opens a second listener with net/http/pprof and
// POST /debug/rtrace/start|stop execution tracing — keep it on
// localhost.
//
// Span export and sampling (DESIGN.md §13): -otlp-endpoint streams every
// retained trace to an OpenTelemetry collector as OTLP/HTTP JSON from a
// bounded background queue that drops (counted in
// rrrd_trace_export_dropped_total) rather than ever delaying a request
// or a mutation commit. -trace-sample picks the head-sampling policy —
// always (default), never, ratio (deterministic in the trace ID, so a
// distributed trace is kept or dropped consistently across services and
// restarts), or ratelimit (a token bucket of -trace-rate traces/sec);
// -trace-rate parameterizes ratio (0..1) and ratelimit (traces/sec).
// Whatever the policy says, slow (-slow-threshold) and errored requests
// are retained and exported anyway — sampling bounds the cost of the
// healthy majority, not visibility into the outliers.
// GET /v1/metrics?format=openmetrics serves the same metric families in
// OpenMetrics syntax with trace-ID exemplars on histogram buckets,
// linking a slow bucket straight to GET /v1/traces/{id}.
//
// Examples:
//
//	rrrd -addr :8080 -preload flights=dot:5000:3,diamonds=bn:5000 -request-timeout 30s
//	rrrd -shards 8 -shard-workers 4 -preload flights=dot:100000:2
//	rrrd -delta -preload flights=dot:5000:2
//	rrrd -delta -watch -preload flights=dot:5000:2
//	rrrd -delta -data-dir /var/lib/rrrd -fsync always -preload flights=dot:5000:2
//	rrrd -otlp-endpoint http://localhost:4318 -trace-sample ratio -trace-rate 0.1 -slow-threshold 250ms -preload flights=dot:5000:2
//	curl localhost:8080/v1/healthz
//	curl 'localhost:8080/v1/representative?dataset=flights&k=100'
//	curl -X POST localhost:8080/v1/datasets/flights/append -d '{"rows":[[12,850],[3,2400]]}'
//	curl -X POST localhost:8080/v1/datasets/flights/delete -d '{"ids":[17,42]}'
//	curl -X POST localhost:8080/v1/batch -d '{"dataset":"flights","items":[{"k":10},{"k":50},{"k":100},{"size":5}]}'
//	curl 'localhost:8080/v1/rank?dataset=flights&id=42&weights=0.5,0.3,0.2'
//	curl -X POST localhost:8080/v1/datasets -d '{"name":"uni","kind":"independent","n":2000,"dims":4}'
//	curl localhost:8080/v1/stats
//	curl localhost:8080/v1/metrics
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rrr"
	"rrr/internal/service"
	"rrr/internal/trace"
	"rrr/internal/trace/export"
	"rrr/internal/wal"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "rrrd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		preload    = flag.String("preload", "", "datasets to register at startup: name=kind[:n[:d[:seed]]], comma separated (e.g. flights=dot:5000:3)")
		seed       = flag.Int64("seed", 1, "solver seed (MDRRR sampling, regret estimation)")
		reqTimeout = flag.Duration("request-timeout", 0, "per-request deadline; a representative request exceeding it gets 504 with kind \"canceled\" (0 = unlimited)")
		nodeBudget = flag.Int("node-budget", 0, "hard MDRC recursion-node budget per solve; exhaustion returns kind \"budget_exhausted\" (0 = paper's soft cap)")
		drawBudget = flag.Int("draw-budget", 0, "hard K-SETr draw budget per sampling phase (with -shards each shard's map sampler and the reduce get their own); exhaustion returns kind \"budget_exhausted\" (0 = paper's soft cap)")
		batchWork  = flag.Int("batch-workers", runtime.GOMAXPROCS(0), "worker pool for /v1/batch per-query tail work (defaults to GOMAXPROCS)")
		shards     = flag.Int("shards", 1, "map-reduce shard count for every solve (1 = unsharded)")
		shardWork  = flag.Int("shard-workers", runtime.GOMAXPROCS(0), "worker pool for the shard map phase (defaults to GOMAXPROCS)")
		deltaOn    = flag.Bool("delta", false, "enable the delta engine: POST /v1/datasets/{name}/append and .../delete mutate datasets in place, with cached answers revalidated, repaired or invalidated by containment tests instead of a cold cache")
		watchOn    = flag.Bool("watch", false, "enable the live-update push subsystem: GET /v1/watch streams snapshot/heartbeat/representative events per (dataset,k,algo) over SSE as mutations commit (requires -delta)")
		watchBuf   = flag.Int("watch-buffer", 64, "per-subscriber watch event ring capacity; a subscriber falling further behind is dropped with a terminal overflow event")
		watchSubs  = flag.Int("watch-max-subscribers", 1024, "concurrent watch stream limit across all topics (0 = unlimited)")
		dataDir    = flag.String("data-dir", "", "directory for durable state: write-ahead log of mutations, registry snapshot, warm answer cache (empty = memory only)")
		fsyncPol   = flag.String("fsync", "always", "WAL durability policy: always (fsync every append), interval (background fsync every 100ms), never (leave flushing to the OS)")
		noPersist  = flag.Bool("no-persist", false, "ignore -data-dir and run memory-only")
		logFormat  = flag.String("log-format", "text", "log output format: text (human-readable) or json (one structured object per line)")
		slowThresh = flag.Duration("slow-threshold", 0, "log any request slower than this with its full span tree (0 = disabled); pair with a traceparent header or /v1/representative to get solver-phase spans")
		debugAddr  = flag.String("debug-addr", "", "separate listener for net/http/pprof and POST /debug/rtrace/start|stop execution tracing; keep it on localhost (empty = disabled)")
		otlpEnd    = flag.String("otlp-endpoint", "", "OTLP/HTTP collector URL to export retained traces to, e.g. http://localhost:4318 (empty = no export); export never blocks serving — a slow collector drops traces, counted in rrrd_trace_export_dropped_total")
		traceSamp  = flag.String("trace-sample", "always", "head-sampling policy for traces: always, never, ratio (keep a -trace-rate fraction, deterministic per trace ID), ratelimit (at most -trace-rate traces/sec); slow and errored traces are always kept")
		traceRate  = flag.Float64("trace-rate", 1, "parameter for -trace-sample: the kept fraction in [0,1] for ratio, traces per second for ratelimit")
	)
	flag.Parse()

	logger, err := newLogger(*logFormat)
	if err != nil {
		return err
	}
	slog.SetDefault(logger)

	if err := validateWorkerFlags(*shards, *shardWork, *batchWork); err != nil {
		return err
	}
	if *watchOn && !*deltaOn {
		return errors.New("-watch requires -delta: without mutations there is nothing to push")
	}
	solverOpts := []rrr.Option{rrr.WithBatchWorkers(*batchWork)}
	if *nodeBudget > 0 {
		solverOpts = append(solverOpts, rrr.WithNodeBudget(*nodeBudget))
	}
	if *drawBudget > 0 {
		solverOpts = append(solverOpts, rrr.WithDrawBudget(*drawBudget))
	}
	cfg := service.Config{
		Seed:                *seed,
		SolverOptions:       solverOpts,
		Shards:              *shards,
		ShardWorkers:        *shardWork,
		DeltaMaintenance:    *deltaOn,
		Watch:               *watchOn,
		WatchBuffer:         *watchBuf,
		WatchMaxSubscribers: *watchSubs,
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	svc := service.New(cfg)
	store, err := openStore(*dataDir, *fsyncPol, *noPersist)
	if err != nil {
		return err
	}
	if store != nil {
		defer store.Close()
		svc.AttachStore(store)
		rec, err := svc.Recover(context.Background())
		if err != nil {
			return fmt.Errorf("recovering %s: %w", *dataDir, err)
		}
		logger.Info("recovered durable state", "data_dir", *dataDir,
			"datasets", rec.SnapshotDatasets, "replayed_batches", rec.ReplayedBatches,
			"warmed_answers", rec.WarmedAnswers, "torn_tail", rec.TornTail,
			"dropped_bytes", rec.DroppedBytes)
	}
	if err := preloadDatasets(svc, *preload); err != nil {
		return err
	}
	if store != nil {
		// Baseline snapshot: recovered + preloaded state becomes durable
		// now, and the replayed WAL records are folded in and truncated.
		if err := svc.Persist(); err != nil {
			return fmt.Errorf("writing baseline snapshot: %w", err)
		}
	}

	serverOpts := []service.ServerOption{service.WithRequestTimeout(*reqTimeout)}
	if *slowThresh > 0 {
		serverOpts = append(serverOpts, service.WithSlowRequestLog(*slowThresh, logger))
	}
	if *traceSamp != "always" || *traceRate != 1 {
		sampler, err := trace.NewSampler(*traceSamp, *traceRate)
		if err != nil {
			return fmt.Errorf("-trace-sample: %w", err)
		}
		serverOpts = append(serverOpts, service.WithSampler(sampler))
		logger.Info("trace sampling enabled", "policy", sampler.String())
	}
	var exporter *export.Exporter
	if *otlpEnd != "" {
		exporter, err = export.New(export.Config{
			Endpoint: *otlpEnd,
			Service:  "rrrd",
			Counters: svc.Metrics(),
			Logger:   logger,
		})
		if err != nil {
			return fmt.Errorf("-otlp-endpoint: %w", err)
		}
		serverOpts = append(serverOpts, service.WithSpanExporter(exporter))
		logger.Info("trace export enabled", "endpoint", exporter.Endpoint())
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           logRequests(service.NewServer(svc, serverOpts...), logger),
		ReadHeaderTimeout: 10 * time.Second,
	}

	if *debugAddr != "" {
		dbg := debugServer(*debugAddr, logger)
		go func() {
			logger.Info("debug listener up", "addr", *debugAddr)
			if err := dbg.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug listener failed", "err", err)
			}
		}()
		defer dbg.Close()
	}

	errc := make(chan error, 1)
	go func() {
		logger.Info("rrrd listening", "addr", *addr, "datasets", svc.Registry().Len())
		errc <- srv.ListenAndServe()
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case sig := <-stop:
		logger.Info("rrrd shutting down", "signal", sig.String())
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		// End the long-lived watch streams first: each gets a terminal
		// closing event and its handler returns, so Shutdown below only
		// waits on ordinary request/response handlers instead of hanging
		// until every SSE client disconnects on its own.
		svc.CloseWatchers("server shutting down")
		if err := srv.Shutdown(ctx); err != nil {
			return err
		}
		if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		if exporter != nil {
			// Requests are drained; give the exporter one shot at flushing
			// what is already queued. A down collector forfeits the tail
			// rather than holding up shutdown.
			if err := exporter.Close(ctx); err != nil {
				logger.Warn("trace exporter did not drain before shutdown deadline", "err", err)
			}
		}
		if store != nil {
			// The HTTP server is drained: mutations are quiesced, so the
			// snapshot captures everything and the WAL restarts empty.
			if err := svc.Persist(); err != nil {
				return fmt.Errorf("writing shutdown snapshot: %w", err)
			}
			logger.Info("persisted state", "datasets", svc.Registry().Len(), "data_dir", *dataDir)
		}
		return nil
	}
}

// openStore opens the durability layer per the -data-dir, -fsync and
// -no-persist flags; nil when the daemon should run memory-only.
func openStore(dataDir, fsyncPolicy string, noPersist bool) (*wal.Store, error) {
	if dataDir == "" || noPersist {
		return nil, nil
	}
	policy, err := wal.ParseSyncPolicy(fsyncPolicy)
	if err != nil {
		return nil, fmt.Errorf("-fsync: %w", err)
	}
	store, err := wal.Open(dataDir, wal.Options{Sync: policy})
	if err != nil {
		return nil, fmt.Errorf("opening -data-dir %s: %w", dataDir, err)
	}
	return store, nil
}

// newLogger builds the process logger for -log-format. Text is the
// human default; json emits one object per line for log shippers. Both
// write to stderr so stdout stays clean for command output.
func newLogger(format string) (*slog.Logger, error) {
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	default:
		return nil, fmt.Errorf("-log-format: unknown format %q (want text or json)", format)
	}
}

// validateWorkerFlags rejects nonsensical parallelism settings up front by
// delegating to the library's single rule (rrr.ValidateWorkers), so the
// daemon's flags, the rrr CLI and service.Config all accept and reject
// exactly the same values: negatives fail, 0 means "auto" (unsharded for
// -shards, GOMAXPROCS for the worker pools).
func validateWorkerFlags(shards, shardWorkers, batchWorkers int) error {
	return rrr.ValidateWorkers(shards, shardWorkers, batchWorkers)
}

// preloadDatasets parses and registers the -preload specs.
func preloadDatasets(svc *service.Service, spec string) error {
	if spec == "" {
		return nil
	}
	for _, item := range strings.Split(spec, ",") {
		name, gen, ok := strings.Cut(strings.TrimSpace(item), "=")
		if !ok || name == "" {
			return fmt.Errorf("preload item %q: want name=kind[:n[:d[:seed]]]", item)
		}
		parts := strings.Split(gen, ":")
		kind := parts[0]
		n, d, genSeed := 10000, 0, int64(1)
		var err error
		if len(parts) > 1 {
			if n, err = strconv.Atoi(parts[1]); err != nil {
				return fmt.Errorf("preload item %q: bad row count %q", item, parts[1])
			}
		}
		if len(parts) > 2 {
			if d, err = strconv.Atoi(parts[2]); err != nil {
				return fmt.Errorf("preload item %q: bad dimension %q", item, parts[2])
			}
		}
		if len(parts) > 3 {
			if genSeed, err = strconv.ParseInt(parts[3], 10, 64); err != nil {
				return fmt.Errorf("preload item %q: bad seed %q", item, parts[3])
			}
		}
		if len(parts) > 4 {
			return fmt.Errorf("preload item %q: too many fields", item)
		}
		if _, err := svc.Registry().Get(name); err == nil {
			// Restored from -data-dir, possibly with mutations the generator
			// would silently discard; the recovered state wins.
			slog.Info("preload skipped: already restored from the data directory", "dataset", name)
			continue
		}
		entry, err := svc.Registry().Generate(name, kind, n, d, genSeed)
		if err != nil {
			return err
		}
		slog.Info("preloaded dataset", "dataset", name, "n", entry.Data.N(), "dims", entry.Data.Dims())
	}
	return nil
}

// logRequests is the structured access-log middleware. The trace_id
// attribute comes from the X-Trace-Id response header the tracing layer
// sets (for ingested traceparents and locally minted solve traces), so
// an access-log line joins against GET /v1/traces/{id} directly; the
// attribute is omitted for untraced requests.
func logRequests(next http.Handler, logger *slog.Logger) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(rec, r)
		attrs := []any{
			"method", r.Method,
			"path", r.URL.RequestURI(),
			"status", rec.status,
			"duration", time.Since(start).Round(time.Microsecond),
		}
		if ids := w.Header()["X-Trace-Id"]; len(ids) > 0 {
			attrs = append(attrs, "trace_id", ids[0])
		}
		logger.Info("request", attrs...)
	})
}

type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(status int) {
	r.status = status
	r.ResponseWriter.WriteHeader(status)
}

// Flush forwards http.Flusher so the SSE watch endpoint still streams
// through the logging middleware (a plain embed would hide the interface
// from type assertions).
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
