// Command acdserverd serves the experiment registry over HTTP: each
// deterministic experiment is computed once per distinct parameter
// set, cached by content address, and replayed byte-identically on
// every later request. Concurrent identical requests coalesce onto a
// single computation; a bounded worker pool with an admission queue
// applies backpressure instead of unbounded latency.
//
// Multiple daemons form a serving fleet: a consistent-hash ring over
// the content-address key assigns every request an owner replica,
// requests landing elsewhere are proxied to the owner, and local cache
// misses peer-fill from ring siblings before recomputing. Fleet mode
// is enabled by -advertise; a fleet of one behaves exactly like the
// plain daemon.
//
// Usage:
//
//	acdserverd                                # listen on :8080
//	acdserverd -addr :9000 -workers 4         # bounded pool
//	acdserverd -cachedir /var/cache/sfcacd    # persistent result store
//	acdserverd -addr :8081 -node-id a -advertise http://10.0.0.1:8081 \
//	           -peers b=http://10.0.0.2:8081  # two-node fleet member
//
// API:
//
//	POST /v1/experiments/{name}   JSON Params in (optional; merged over
//	                              ?preset=scaled|paper), result +
//	                              manifest out, X-Cache: hit|miss|coalesced|peer
//	POST /v1/batch                parameter sweep fan-out; streams each
//	                              cell completion as SSE (NDJSON via
//	                              Accept: application/x-ndjson)
//	GET  /v1/experiments          registry listing
//	GET  /internal/v1/peek/{key}  fleet peer protocol: presence probe
//	GET  /internal/v1/result/{key} fleet peer protocol: entry transfer
//	GET  /healthz                 liveness (+ node id and membership in fleet mode)
//	GET  /readyz                  readiness (503 once shutdown begins)
//	GET  /metrics                 Prometheus text exposition (JSON via
//	                              Accept: application/json or /metrics.json)
//	GET  /debug/traces            tail-sampled trace index
//	GET  /debug/traces/{id}       one request's span tree
//	GET  /debug/pprof/            pprof handlers
//
// Every request is traced: responses carry X-Trace-Id (honored from
// the request header when present), request logs carry trace_id, and
// errored/slow/sampled traces are retained for /debug/traces.
package main

import (
	"context"
	"flag"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"sfcacd/internal/faultinject"
	"sfcacd/internal/fleet"
	"sfcacd/internal/obs/tracestore"
	"sfcacd/internal/resultcache"
	"sfcacd/internal/serve"
)

// peerList collects repeated -peers flags (each itself may be a
// comma-separated list of "id=url" or bare "url" members).
type peerList []string

func (p *peerList) String() string { return strings.Join(*p, ",") }

func (p *peerList) Set(v string) error {
	for _, part := range strings.Split(v, ",") {
		if part = strings.TrimSpace(part); part != "" {
			*p = append(*p, part)
		}
	}
	return nil
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr       = flag.String("addr", ":8080", "HTTP listen address")
		workers    = flag.Int("workers", 0, "concurrent experiment computations (0 = GOMAXPROCS)")
		queueDepth = flag.Int("queue", 0, "admission queue bound beyond the worker pool (0 = 64)")
		cacheBytes = flag.Int64("cache-bytes", 0, "in-memory result cache budget in bytes (0 = 256 MiB)")
		cacheDir   = flag.String("cachedir", "", "also persist results in this content-addressed directory")
		computeTO  = flag.Duration("compute-timeout", serve.DefaultComputeTimeout,
			"per-request compute deadline before a 504 (negative disables)")
		faults = flag.String("faults", "",
			"fault-injection spec, comma-separated site=prob[:delay] (e.g. resultcache.disk.get=0.1,serve.compute=1:250ms)")
		faultSeed = flag.Uint64("fault-seed", 1, "seed for the deterministic fault injector")
		traceCap  = flag.Int("trace-capacity", tracestore.DefaultCapacity,
			"retained error/sampled traces for /debug/traces")
		traceSlow = flag.Int("trace-slowest", tracestore.DefaultSlowestK,
			"always-retained slowest traces (negative disables)")
		traceProb = flag.Float64("trace-sample", tracestore.DefaultSampleProb,
			"keep probability for healthy traces (negative disables)")
		traceSeed = flag.Uint64("trace-seed", 0,
			"seed for the trace sampling/ID streams (0 = from the clock)")
		verbose = flag.Bool("v", false, "enable debug-level logging")

		nodeID    = flag.String("node-id", "", "this node's name on the fleet ring (default: the advertise URL)")
		advertise = flag.String("advertise", "", "base URL peers reach this node at; enables fleet mode")
		peerTO    = flag.Duration("peer-timeout", fleet.DefaultTimeout, "deadline for one peer cache-protocol exchange")
		rateLimit = flag.Float64("rate-limit", 0, "per-client requests/second on /v1/ (0 = unlimited; batches cost one per cell)")
		rateBurst = flag.Int("rate-burst", 0, "per-client token-bucket capacity (0 = twice -rate-limit)")
	)
	var peers peerList
	flag.Var(&peers, "peers", "fleet members as id=url or url, comma-separated or repeated")
	flag.Parse()

	level := slog.LevelInfo
	if *verbose {
		level = slog.LevelDebug
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	injector, err := faultinject.Parse(*faults, *faultSeed)
	if err != nil {
		logger.Error("faults", "err", err)
		return 1
	}
	if injector != nil {
		logger.Warn("fault injection armed", "spec", *faults, "seed", *faultSeed)
	}

	opts := serve.Options{
		Workers:        *workers,
		QueueDepth:     *queueDepth,
		CacheBytes:     *cacheBytes,
		ComputeTimeout: *computeTO,
		Faults:         injector,
		RateLimit:      *rateLimit,
		RateBurst:      *rateBurst,
		Traces: tracestore.New(tracestore.Options{
			Capacity:   *traceCap,
			SlowestK:   *traceSlow,
			SampleProb: *traceProb,
			Seed:       *traceSeed,
		}),
	}
	if *cacheDir != "" {
		disk, err := resultcache.OpenDisk(*cacheDir)
		if err != nil {
			logger.Error("cachedir", "err", err)
			return 1
		}
		disk.SetFaults(injector)
		opts.Disk = disk
		logger.Info("persistent result store open", "dir", disk.Dir())
	}
	server := serve.New(opts)

	handler := serve.NewHandler(server)
	if *advertise != "" {
		node, err := fleet.New(fleet.Config{
			NodeID:    *nodeID,
			Advertise: *advertise,
			Peers:     peers,
			Timeout:   *peerTO,
			Faults:    injector,
			Store:     server,
		})
		if err != nil {
			logger.Error("fleet", "err", err)
			return 1
		}
		server.SetPeers(node)
		mux := http.NewServeMux()
		mux.Handle("/internal/v1/", node.Handler())
		mux.Handle("/", handler)
		handler = mux
		ids := make([]string, 0, len(node.Members()))
		for _, m := range node.Members() {
			ids = append(ids, m.ID)
		}
		logger.Info("fleet member", "node", node.Self().ID,
			"advertise", node.Self().URL, "members", strings.Join(ids, ","))
	} else if len(peers) > 0 {
		logger.Error("fleet", "err", "-peers requires -advertise (the URL peers reach this node at)")
		return 1
	}

	httpServer := &http.Server{
		Addr:              *addr,
		Handler:           logRequests(logger, handler),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpServer.ListenAndServe() }()
	logger.Info("acdserverd listening", "addr", *addr,
		"workers", server.Workers(), "queue", server.QueueDepth(),
		"compute_timeout", *computeTO)

	select {
	case err := <-errc:
		logger.Error("serve", "err", err)
		return 1
	case <-ctx.Done():
	}

	// Shutdown stops accepting and waits for in-flight requests;
	// Drain then waits for detached computations (whose waiters may
	// already be gone) to finish their cache writes. A timeout in
	// either is an unclean stop and must exit nonzero so orchestrators
	// notice, instead of reporting a drained shutdown that wasn't.
	logger.Info("shutting down")
	server.SetDraining() // flips /readyz to 503 so balancers stop routing here
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpServer.Shutdown(shutdownCtx); err != nil {
		logger.Error("shutdown timed out with requests in flight", "err", err)
		return 1
	}
	if err := server.Drain(shutdownCtx); err != nil {
		logger.Error("shutdown timed out with computations running", "err", err)
		return 1
	}
	logger.Info("drained cleanly")
	return 0
}

// logRequests logs one line per completed request: debug level for
// 2xx and for a peer's 404 on the fleet's presence probe (its normal
// "not here", which every replica a miss consults answers), info for
// everything else, so failures surface without -v. The trace_id field
// joins the log line to /debug/traces/{id}.
func logRequests(logger *slog.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(rec, r)
		level := slog.LevelDebug
		notHere := rec.status == http.StatusNotFound && strings.HasPrefix(r.URL.Path, peekPath)
		if (rec.status < 200 || rec.status >= 300) && !notHere {
			level = slog.LevelInfo
		}
		logger.Log(r.Context(), level, "request",
			"method", r.Method, "path", r.URL.Path, "status", rec.status,
			"cache", rec.Header().Get("X-Cache"),
			"trace_id", rec.Header().Get("X-Trace-Id"),
			"dur", time.Since(start).Round(time.Microsecond))
	})
}

// peekPath prefixes the fleet's presence probe, GET
// /internal/v1/peek/{key}.
const peekPath = "/internal/v1/peek/"

// statusRecorder captures the response status for logging. Embedding
// only the interface would hide the underlying writer's optional
// interfaces, so Flush is forwarded explicitly (streaming and pprof
// responses assert http.Flusher) and Unwrap exposes the wrapped writer
// to http.ResponseController for everything else.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(status int) {
	r.status = status
	r.ResponseWriter.WriteHeader(status)
}

func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }
