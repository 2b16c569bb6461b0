// Command mcservd serves the multicore paging simulator over HTTP: a
// job queue with bounded backpressure, a content-addressed result
// cache, a sweep endpoint that streams JSONL, and live Prometheus
// metrics.
//
// Usage:
//
//	mcservd -addr :8080
//	mcservd -addr 127.0.0.1:0 -addr-file /tmp/mcservd.addr
//
// Endpoints:
//
//	POST /v1/jobs     run one simulation job (JSON in, JSON out)
//	POST /v1/sweep    fan a K×τ×capacity×strategy grid across the pool (JSONL out)
//	GET  /strategies  list every buildable strategy spec
//	GET  /metrics     Prometheus text: server counters + last-run telemetry
//	GET  /healthz     liveness
//	GET  /readyz      readiness (503 while draining)
//
// See docs/server.md for the API schema and job lifecycle. On SIGINT or
// SIGTERM the daemon stops accepting connections, lets in-flight jobs
// finish (up to -drain-timeout), and exits cleanly.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mcpaging/internal/server"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
		addrFile     = flag.String("addr-file", "", "write the bound address to this file (for scripts using port 0)")
		workers      = flag.Int("workers", 0, "simulation worker pool size (0 = GOMAXPROCS)")
		queue        = flag.Int("queue", 0, "job queue depth (0 = 2x workers); full queue => 429")
		cacheEntries = flag.Int("cache-entries", 0, "result cache budget in entries (0 = default 4096, negative = disabled)")
		jobTimeout   = flag.Duration("job-timeout", 0, "per-job execution budget (0 = 60s)")
		maxRequests  = flag.Int("max-requests", 0, "per-job total request budget (0 = 8M)")
		maxBody      = flag.Int64("max-body", 0, "request body limit in bytes (0 = 64MiB)")
		workerID     = flag.String("worker-id", "", "Fleet-Worker-ID echoed on every response (default: the bound address)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown budget for in-flight jobs")
	)
	flag.Parse()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	bound := ln.Addr().String()
	if *workerID == "" {
		*workerID = bound
	}

	s := server.New(server.Config{
		Workers:      *workers,
		QueueDepth:   *queue,
		CacheEntries: *cacheEntries,
		JobTimeout:   *jobTimeout,
		MaxRequests:  *maxRequests,
		MaxBody:      *maxBody,
		WorkerID:     *workerID,
	})
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			fatal(err)
		}
	}
	fmt.Fprintf(os.Stderr, "mcservd: listening on %s\n", bound)

	httpSrv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "mcservd: %v, draining\n", sig)
	case err := <-errCh:
		fatal(err)
	}

	// Stop accepting connections and wait for in-flight handlers (each
	// blocked on its job) up to the drain budget, then stop the pool.
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "mcservd: shutdown: %v\n", err)
	}
	s.Drain()
	fmt.Fprintln(os.Stderr, "mcservd: drained, bye")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mcservd:", err)
	os.Exit(1)
}
