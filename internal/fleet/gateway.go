package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"mcpaging/internal/server"
)

// tenantHeader names the request header carrying the tenant identity
// for quota accounting. Requests without it share the "default" tenant.
const tenantHeader = "X-Tenant"

// GatewayConfig parameterises admission control.
type GatewayConfig struct {
	// QuotaRate is each tenant's sustained budget in cells per second
	// (0 = 64; negative = quotas disabled). A single job costs one
	// cell; a sweep costs its grid size.
	QuotaRate float64
	// QuotaBurst is each tenant's token-bucket depth in cells (0 = 4×
	// QuotaRate). Bursts up to this size are admitted at full speed.
	QuotaBurst float64
	// ShedInflight sheds new work with 429 once this many cells are in
	// flight fleet-wide (0 = 4× the dispatcher's MaxInflight). This is
	// the overload valve: quotas bound each tenant, shedding bounds
	// their sum.
	ShedInflight int
	// RetryAfter is the Retry-After hint on 429 and 503 responses
	// (0 = 1s).
	RetryAfter time.Duration
	// MaxBody bounds request bodies in bytes (0 = 64 MiB).
	MaxBody int64
}

func (c GatewayConfig) withDefaults(dispatchInflight int) GatewayConfig {
	if c.QuotaRate == 0 {
		c.QuotaRate = 64
	}
	if c.QuotaBurst <= 0 {
		c.QuotaBurst = 4 * c.QuotaRate
	}
	if c.ShedInflight <= 0 {
		c.ShedInflight = 4 * dispatchInflight
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxBody <= 0 {
		c.MaxBody = 64 << 20
	}
	return c
}

// tokenBucket is one tenant's quota state: a continuously refilling
// budget sampled lazily on each admission check.
type tokenBucket struct {
	tokens float64
	last   time.Time
}

// Gateway is the coordinator's HTTP surface: per-tenant token-bucket
// quotas, fleet-saturation load shedding, the job/sweep endpoints
// backed by the dispatcher, and observability (/metrics, /v1/workers).
// Its graceful drain mirrors mcservd: readiness flips false, new work
// is refused with 503 + Retry-After, and Drain waits for in-flight
// requests to finish.
type Gateway struct {
	cfg   GatewayConfig
	disp  *Dispatcher
	reg   *Registry
	clock Clock
	met   *fleetMetrics
	mux   *http.ServeMux

	quotaMu sync.Mutex
	buckets map[string]*tokenBucket

	drainMu  sync.RWMutex
	draining bool
	inflight sync.WaitGroup
}

// NewGateway builds the coordinator surface over a dispatcher. The
// metrics instance must be the one the dispatcher reports into.
func NewGateway(disp *Dispatcher, cfg GatewayConfig, clk Clock, met *fleetMetrics) *Gateway {
	if clk == nil {
		clk = SystemClock
	}
	if met == nil {
		met = disp.met
	}
	g := &Gateway{
		cfg:     cfg.withDefaults(disp.cfg.MaxInflight),
		disp:    disp,
		reg:     disp.reg,
		clock:   clk,
		met:     met,
		mux:     http.NewServeMux(),
		buckets: make(map[string]*tokenBucket),
	}
	g.routes()
	return g
}

func (g *Gateway) routes() {
	g.mux.HandleFunc("GET /healthz", g.handleHealthz)
	g.mux.HandleFunc("GET /readyz", g.handleReadyz)
	g.mux.HandleFunc("GET /metrics", g.handleMetrics)
	g.mux.HandleFunc("GET /v1/workers", g.handleWorkers)
	g.mux.HandleFunc("GET /strategies", g.handleStrategies)
	g.mux.HandleFunc("POST /v1/jobs", g.handleJob)
	g.mux.HandleFunc("POST /v1/sweep", g.handleSweep)
}

// Handler returns the gateway's HTTP handler.
func (g *Gateway) Handler() http.Handler { return g.mux }

// Drain stops admission and waits for in-flight requests to finish.
// Idempotent; mirrors mcservd's drain so a fleet rolls the same way a
// single worker does.
func (g *Gateway) Drain() {
	g.drainMu.Lock()
	g.draining = true
	g.drainMu.Unlock()
	g.inflight.Wait()
}

func (g *Gateway) ready() bool {
	g.drainMu.RLock()
	defer g.drainMu.RUnlock()
	return !g.draining
}

// admit charges cost cells against tenant's token bucket, reporting
// whether the request is within quota. Buckets refill continuously at
// QuotaRate up to QuotaBurst; a new tenant starts with a full bucket.
func (g *Gateway) admit(tenant string, cost float64) bool {
	if g.cfg.QuotaRate < 0 {
		return true
	}
	now := g.clock.Now()
	g.quotaMu.Lock()
	defer g.quotaMu.Unlock()
	b := g.buckets[tenant]
	if b == nil {
		b = &tokenBucket{tokens: g.cfg.QuotaBurst, last: now}
		g.buckets[tenant] = b
	}
	b.tokens += now.Sub(b.last).Seconds() * g.cfg.QuotaRate
	if b.tokens > g.cfg.QuotaBurst {
		b.tokens = g.cfg.QuotaBurst
	}
	b.last = now
	if b.tokens < cost {
		return false
	}
	b.tokens -= cost
	return true
}

func (g *Gateway) tenantCount() int {
	g.quotaMu.Lock()
	defer g.quotaMu.Unlock()
	return len(g.buckets)
}

func tenantOf(r *http.Request) string {
	if t := r.Header.Get(tenantHeader); t != "" {
		return t
	}
	return "default"
}

func (g *Gateway) retryAfterHint() string {
	return strconv.Itoa(int((g.cfg.RetryAfter + time.Second - 1) / time.Second))
}

// gate runs the admission pipeline shared by the job and sweep
// endpoints: drain check, saturation shedding, then the tenant quota.
// It reports whether the request may proceed, writing the refusal
// itself when not.
func (g *Gateway) gate(w http.ResponseWriter, r *http.Request, cost float64) bool {
	if !g.ready() {
		w.Header().Set("Retry-After", g.retryAfterHint())
		httpError(w, http.StatusServiceUnavailable, "coordinator draining")
		return false
	}
	if g.met.cellsInflight.Load() >= int64(g.cfg.ShedInflight) {
		g.met.shed.Add(1)
		w.Header().Set("Retry-After", g.retryAfterHint())
		httpError(w, http.StatusTooManyRequests, "fleet saturated: %d cells in flight", g.met.cellsInflight.Load())
		return false
	}
	if !g.admit(tenantOf(r), cost) {
		g.met.quotaDenied.Add(1)
		w.Header().Set("Retry-After", g.retryAfterHint())
		httpError(w, http.StatusTooManyRequests, "tenant %q over quota (%g cells): retry later", tenantOf(r), cost)
		return false
	}
	return true
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	io.WriteString(w, "ok\n")
}

func (g *Gateway) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if !g.ready() {
		w.Header().Set("Retry-After", g.retryAfterHint())
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "draining\n")
		return
	}
	io.WriteString(w, "ready\n")
}

func (g *Gateway) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = g.met.writePrometheus(w, g.reg.Snapshot(), g.tenantCount(), g.ready())
}

func (g *Gateway) handleWorkers(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Ring    []string     `json:"ring"`
		Workers []WorkerInfo `json:"workers"`
	}{g.reg.Ring().Members(), g.reg.Snapshot()})
}

// handleStrategies proxies the strategy catalogue from the first
// healthy worker (all workers run the same binary, so any answer is
// authoritative).
func (g *Gateway) handleStrategies(w http.ResponseWriter, r *http.Request) {
	var lastErr error
	for _, id := range g.reg.ids {
		ws := g.reg.workers[id]
		if ws.currentStatus() == StatusDown {
			continue
		}
		body, err := ws.client.Get(r.Context(), "/strategies")
		if err != nil {
			lastErr = err
			continue
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(body)
		return
	}
	httpError(w, http.StatusBadGateway, "no worker answered /strategies: %v", lastErr)
}

// handleJob admits one job (cost: one cell) and routes it through the
// dispatcher, passing the worker's response through unchanged and
// naming the serving worker in Fleet-Worker-ID.
func (g *Gateway) handleJob(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, g.cfg.MaxBody)
	var req server.JobRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "decoding job: %v", err)
		return
	}
	if req.Strategy == "" {
		httpError(w, http.StatusBadRequest, "strategy is required")
		return
	}
	if !g.gate(w, r, 1) {
		return
	}
	g.inflight.Add(1)
	defer g.inflight.Done()
	g.met.cellsInflight.Add(1)
	defer g.met.cellsInflight.Add(-1)
	resp, workerID, err := g.disp.RunJob(r.Context(), req)
	if err != nil {
		writeRouteError(w, err, g.retryAfterHint())
		return
	}
	w.Header().Set("Fleet-Worker-ID", workerID)
	writeJSON(w, http.StatusOK, resp)
}

// handleSweep admits a sweep (cost: its cell count) and streams the
// dispatcher's canonically ordered JSONL merge.
func (g *Gateway) handleSweep(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, g.cfg.MaxBody)
	var req server.SweepRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "decoding sweep: %v", err)
		return
	}
	runs, err := req.Resolve(g.disp.cfg.MaxRequests)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if !g.gate(w, r, float64(len(runs))) {
		return
	}
	g.inflight.Add(1)
	defer g.inflight.Done()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	// Per-cell failures are reported in-line on each cell's JSONL row;
	// an error here means the stream itself died (client gone).
	_ = g.disp.runSweep(r.Context(), runs, req, w)
}

// writeRouteError maps a dispatcher error onto the gateway's response:
// tenant errors pass the worker's status through, fleet saturation and
// drain surface as 503 with a Retry-After hint, anything else is 502.
func writeRouteError(w http.ResponseWriter, err error, retryAfter string) {
	var perm errPermanent
	switch {
	case errors.As(err, &perm):
		httpError(w, perm.StatusCode(), "%v", perm)
	case errors.Is(err, errWorkerBusy):
		w.Header().Set("Retry-After", retryAfter)
		httpError(w, http.StatusServiceUnavailable, "%v", err)
	default:
		httpError(w, http.StatusBadGateway, "%v", err)
	}
}

// writeJSON writes v as a JSON response with the given status.
func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// httpError writes a JSON error body {"error": "..."}, the same shape
// mcservd uses so fleet and single-node clients share error handling.
func httpError(w http.ResponseWriter, status int, format string, args ...interface{}) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}
