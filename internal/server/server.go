// Package server implements mcservd, the paging-simulation service: an
// HTTP daemon that turns the library's simulation engines into an
// online service in the sense the multicore-paging literature models —
// request streams arriving at a shared resource with bounded capacity.
//
// Architecture, front to back:
//
//   - Handlers decode a job (inline request set, workload generator
//     spec, or binary trace; a strategyspec strategy; K/τ/capacity/seed),
//     resolve it once (JobRequest.Resolve, SweepRequest.Resolve), then
//     canonicalize the resolved run to a content-addressed key (hash.go).
//   - The result cache (rescache.go) answers repeat jobs without
//     touching the pool; eviction order is managed by an internal/cache
//     LRU policy with a configurable entry budget.
//   - Misses go onto a bounded queue. A full queue is backpressure:
//     the job is bounced with 429 and a Retry-After hint rather than
//     queued without bound.
//   - A fixed pool of workers drains the queue; each worker owns one
//     reusable sim.Runner that it rebinds per job, and runs under the
//     per-job timeout via sim's cooperative context cancellation.
//   - /metrics serves the server-level counters plus the telemetry
//     snapshot of the most recently completed job, both in Prometheus
//     text format. /healthz and /readyz are liveness and readiness.
//   - Drain stops intake (submissions fail with ErrDraining, readiness
//     goes false) and waits for queued and in-flight jobs to finish —
//     the graceful-shutdown half that cmd/mcservd pairs with
//     http.Server.Shutdown.
package server

import (
	"net/http"
	"runtime"
	"sync"
	"time"

	"mcpaging/internal/telemetry"
)

// Config parameterises a Server. Zero values select the defaults noted
// on each field.
type Config struct {
	// Workers is the simulation worker-pool size (0 = GOMAXPROCS).
	Workers int
	// QueueDepth bounds the job queue (0 = 2×Workers). When the queue
	// is full, POST /v1/jobs returns 429 with a Retry-After hint.
	QueueDepth int
	// CacheEntries is the result-cache budget in entries (0 = 4096,
	// negative = caching disabled).
	CacheEntries int
	// JobTimeout is the per-job execution budget (0 = 60s). Requests
	// may lower it per job via timeout_ms, never raise it.
	JobTimeout time.Duration
	// MaxRequests bounds one job's total request count (0 = 8M).
	MaxRequests int
	// MaxBody bounds request bodies in bytes (0 = 64 MiB).
	MaxBody int64
	// RetryAfter is the Retry-After hint on 429 responses (0 = 1s).
	RetryAfter time.Duration
	// WorkerID, when non-empty, is echoed on every response as the
	// Fleet-Worker-ID header. mcfleet uses it to confirm which fleet
	// member answered a routed job (cache-affinity accounting).
	WorkerID string

	// testJobStarted/testJobRelease, when non-nil, make workers
	// announce each dequeued job and wait for release — deterministic
	// scheduling hooks for the package's own tests.
	testJobStarted chan<- struct{}
	testJobRelease <-chan struct{}
}

// withDefaults resolves the zero values.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2 * c.Workers
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 4096
	}
	if c.CacheEntries < 0 {
		c.CacheEntries = 0 // resultCache treats 0 as disabled
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 60 * time.Second
	}
	if c.MaxRequests <= 0 {
		c.MaxRequests = 8 << 20
	}
	if c.MaxBody <= 0 {
		c.MaxBody = 64 << 20
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	return c
}

// Server is the mcservd service: handlers, queue, pool, cache, metrics.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	jobs  chan *job
	wg    sync.WaitGroup
	cache *resultCache

	metrics serverMetrics

	drainMu  sync.RWMutex
	draining bool

	telemMu   sync.Mutex
	lastTelem *telemetry.Collector
}

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		mux:   http.NewServeMux(),
		jobs:  make(chan *job, cfg.QueueDepth),
		cache: newResultCache(cfg.CacheEntries),
	}
	s.routes()
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// Handler returns the server's HTTP handler. With a configured
// WorkerID the handler stamps every response with the Fleet-Worker-ID
// header so a coordinator can attribute answers to fleet members.
func (s *Server) Handler() http.Handler {
	if s.cfg.WorkerID == "" {
		return s.mux
	}
	id := s.cfg.WorkerID
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Fleet-Worker-ID", id)
		s.mux.ServeHTTP(w, r)
	})
}

// Drain stops intake and waits for queued and in-flight jobs to finish.
// Submissions after Drain fail with ErrDraining (503 at the HTTP
// layer); /readyz reports not-ready. Drain is idempotent. Callers doing
// a full graceful shutdown should first let the HTTP server stop
// accepting connections (http.Server.Shutdown waits for in-flight
// handlers, which in turn wait on their jobs), then call Drain.
func (s *Server) Drain() {
	s.drainMu.Lock()
	if !s.draining {
		s.draining = true
		close(s.jobs)
	}
	s.drainMu.Unlock()
	s.wg.Wait()
}

// ready reports whether the server is accepting jobs.
func (s *Server) ready() bool {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	return !s.draining
}

// snapshotGauges collects the point-in-time values for /metrics.
func (s *Server) snapshotGauges() gauges {
	hits, misses, entries := s.cache.stats()
	return gauges{
		queueDepth:   len(s.jobs),
		queueCap:     s.cfg.QueueDepth,
		workers:      s.cfg.Workers,
		cacheEntries: entries,
		cacheCap:     s.cfg.CacheEntries,
		cacheHits:    hits,
		cacheMisses:  misses,
		ready:        s.ready(),
	}
}
