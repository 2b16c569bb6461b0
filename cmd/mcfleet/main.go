// Command mcfleet coordinates a fleet of mcservd workers: it routes
// jobs and sweep cells by their content-addressed hash over a
// consistent-hash ring (so the workers' result caches compose into one
// distributed cache), probes worker health, fails cells over when a
// worker dies mid-sweep, and applies per-tenant admission control.
//
// Usage:
//
//	mcfleet -addr :9090 -worker http://127.0.0.1:8081 -worker http://127.0.0.1:8082
//
// Endpoints (the job/sweep API is wire-compatible with mcservd, so
// clients switch between one worker and a fleet by changing the URL):
//
//	POST /v1/jobs     route one job to its ring owner (JSON in, JSON out)
//	POST /v1/sweep    fan a K×τ×capacity×strategy grid across the fleet (JSONL out,
//	                  canonical grid order, identical to a single node)
//	GET  /v1/workers  fleet membership, health, latency weights
//	GET  /strategies  strategy catalogue (proxied from a healthy worker)
//	GET  /metrics     Prometheus text: mcfleet_* counters + per-worker gauges
//	GET  /healthz     liveness
//	GET  /readyz      readiness (503 while draining)
//
// See docs/fleet.md for the routing, failover, and quota semantics. On
// SIGINT or SIGTERM the coordinator stops admitting work, lets in-flight
// requests finish (up to -drain-timeout), and exits cleanly.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"mcpaging/internal/fleet"
	"mcpaging/internal/server"
)

// workerList collects repeated -worker flags.
type workerList []string

func (w *workerList) String() string { return strings.Join(*w, ",") }

func (w *workerList) Set(v string) error {
	for _, part := range strings.Split(v, ",") {
		part = strings.TrimSuffix(strings.TrimSpace(part), "/")
		if part == "" {
			continue
		}
		if !strings.HasPrefix(part, "http://") && !strings.HasPrefix(part, "https://") {
			part = "http://" + part
		}
		*w = append(*w, part)
	}
	return nil
}

func main() {
	var workers workerList
	flag.Var(&workers, "worker", "worker base URL (repeatable, or comma-separated)")
	var (
		addr           = flag.String("addr", ":9090", "listen address (host:port; port 0 picks a free port)")
		addrFile       = flag.String("addr-file", "", "write the bound address to this file (for scripts using port 0)")
		replicas       = flag.Int("replicas", 64, "virtual ring points per worker")
		workerInflight = flag.Int("worker-inflight", 0, "max cells in flight per worker (0 = 4)")
		maxInflight    = flag.Int("max-inflight", 0, "max cells in flight fleet-wide (0 = worker-inflight x workers)")
		retryRounds    = flag.Int("retry-rounds", 0, "failover rotations per cell before giving up (0 = 3)")
		probeInterval  = flag.Duration("probe-interval", 0, "/readyz probe period (0 = 2s)")
		quotaRate      = flag.Float64("quota-rate", 0, "per-tenant sustained budget in cells/sec (0 = 64, negative = unlimited)")
		quotaBurst     = flag.Float64("quota-burst", 0, "per-tenant burst budget in cells (0 = 4x rate)")
		shedInflight   = flag.Int("shed-inflight", 0, "shed new work above this many in-flight cells (0 = 4x max-inflight)")
		maxRequests    = flag.Int("max-requests", 0, "per-job total request budget (0 = 8M)")
		maxBody        = flag.Int64("max-body", 0, "request body limit in bytes (0 = 64MiB)")
		drainTimeout   = flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown budget for in-flight requests")
	)
	flag.Parse()

	if len(workers) == 0 {
		fatal(fmt.Errorf("at least one -worker is required"))
	}

	clients := make([]*fleet.Client, len(workers))
	for i, u := range workers {
		// Per-worker jitter seeds keep backoff decorrelated across the
		// fleet without reaching for a global RNG.
		clients[i] = fleet.NewClient(u, nil, nil, fleet.Backoff{}, int64(i+1))
	}
	reg, err := fleet.NewRegistry(clients, *replicas, fleet.RegistryConfig{ProbeInterval: *probeInterval}, nil)
	if err != nil {
		fatal(err)
	}
	disp := fleet.NewDispatcher(reg, fleet.DispatcherConfig{
		MaxInflight:    *maxInflight,
		WorkerInflight: *workerInflight,
		RetryRounds:    *retryRounds,
		MaxRequests:    *maxRequests,
	}, nil, nil)
	gw := fleet.NewGateway(disp, fleet.GatewayConfig{
		QuotaRate:    *quotaRate,
		QuotaBurst:   *quotaBurst,
		ShedInflight: *shedInflight,
		MaxBody:      *maxBody,
	}, nil, nil)

	// One synchronous probe round before serving, so the first request
	// already sees real health instead of optimistic defaults. The probe
	// loop runs under the process root context: reg.Close (below)
	// cancels any round still in flight at drain time.
	reg.ProbeAll(context.Background())
	reg.Start(context.Background())

	ln, err := server.Listen(*addr, *addrFile)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "mcfleet: routing over %d workers\n", len(workers))
	// Like mcservd: Serve waits up to the drain budget for in-flight
	// handlers; then stop admission and the probe loop.
	if err := server.Serve(context.Background(), "mcfleet", ln, gw.Handler(), *drainTimeout); err != nil {
		fatal(err)
	}
	gw.Drain()
	reg.Close()
	fmt.Fprintln(os.Stderr, "mcfleet: drained, bye")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mcfleet:", err)
	os.Exit(1)
}
