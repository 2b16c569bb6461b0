package server

import (
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mcpaging/internal/metrics"
)

// latWindow is how many recent job latencies the quantile estimator
// retains. Quantiles are computed over this sliding window at scrape
// time — a small, allocation-bounded stand-in for a real histogram.
const latWindow = 512

// serverMetrics holds the server-level counters exposed on /metrics.
// Counters are atomics (bumped from handlers and workers); the latency
// ring has its own lock.
type serverMetrics struct {
	accepted  atomic.Int64 // jobs admitted to the queue
	rejected  atomic.Int64 // jobs bounced with 429 (queue full)
	completed atomic.Int64 // jobs that produced a result
	failed    atomic.Int64 // jobs that errored (build, validation, run)
	timeouts  atomic.Int64 // jobs aborted by the per-job timeout
	coalesced atomic.Int64 // duplicate concurrent jobs folded into one flight

	traceResolves atomic.Int64 // trace inputs generated, decoded or taken inline
	traceReuses   atomic.Int64 // workload traces served from the last spec's entry

	mu       sync.Mutex
	lat      [latWindow]float64 // seconds
	latPos   int
	latLen   int
	latSum   float64
	latCount int64
}

func (m *serverMetrics) observeLatency(d time.Duration) {
	s := d.Seconds()
	m.mu.Lock()
	m.lat[m.latPos] = s
	m.latPos = (m.latPos + 1) % latWindow
	if m.latLen < latWindow {
		m.latLen++
	}
	m.latSum += s
	m.latCount++
	m.mu.Unlock()
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of the retained window
// using the nearest-rank method; ok is false when no job has finished.
func (m *serverMetrics) quantiles(qs []float64) ([]float64, bool) {
	m.mu.Lock()
	n := m.latLen
	window := make([]float64, n)
	copy(window, m.lat[:n])
	m.mu.Unlock()
	if n == 0 {
		return nil, false
	}
	sort.Float64s(window)
	out := make([]float64, len(qs))
	for i, q := range qs {
		r := int(q*float64(n) + 0.5)
		if r < 1 {
			r = 1
		}
		if r > n {
			r = n
		}
		out[i] = window[r-1]
	}
	return out, true
}

// gauges carries the point-in-time values writePrometheus interleaves
// with the counters.
type gauges struct {
	queueDepth, queueCap   int
	workers                int
	cacheEntries, cacheCap int
	cacheHits, cacheMisses int64
	ready                  bool
}

// writePrometheus emits the server-level metrics in Prometheus text
// format (version 0.0.4). Metric order is fixed so scrapes are stable.
func (m *serverMetrics) writePrometheus(w io.Writer, g gauges) error {
	var e metrics.Exposition
	e.Counter("mcservd_jobs_accepted_total", "Jobs admitted to the queue.", m.accepted.Load())
	e.Counter("mcservd_jobs_rejected_total", "Jobs bounced with 429 because the queue was full.", m.rejected.Load())
	e.Counter("mcservd_jobs_completed_total", "Jobs that produced a result.", m.completed.Load())
	e.Counter("mcservd_jobs_failed_total", "Jobs that ended in an error (including timeouts).", m.failed.Load())
	e.Counter("mcservd_jobs_timeout_total", "Jobs aborted by the per-job timeout.", m.timeouts.Load())
	e.Counter("mcservd_jobs_coalesced_total", "Duplicate concurrent jobs folded into another job's flight (singleflight).", m.coalesced.Load())
	e.Counter("mcservd_trace_resolves_total", "Trace inputs resolved afresh: generated, decoded or taken inline.", m.traceResolves.Load())
	e.Counter("mcservd_trace_reuses_total", "Workload traces served from the last workload spec resolved, without generating.", m.traceReuses.Load())
	e.Counter("mcservd_cache_hits_total", "Result-cache hits.", g.cacheHits)
	e.Counter("mcservd_cache_misses_total", "Result-cache misses.", g.cacheMisses)
	e.Gauge("mcservd_cache_entries", "Results currently cached.", float64(g.cacheEntries))
	e.Gauge("mcservd_cache_entry_budget", "Result-cache capacity in entries.", float64(g.cacheCap))
	ratio := 0.0
	if tot := g.cacheHits + g.cacheMisses; tot > 0 {
		ratio = float64(g.cacheHits) / float64(tot)
	}
	e.Gauge("mcservd_cache_hit_ratio", "Result-cache hit ratio over the server lifetime.", ratio)
	e.Gauge("mcservd_queue_depth", "Jobs waiting in the queue.", float64(g.queueDepth))
	e.Gauge("mcservd_queue_capacity", "Queue capacity.", float64(g.queueCap))
	e.Gauge("mcservd_workers", "Simulation worker goroutines.", float64(g.workers))
	ready := 0.0
	if g.ready {
		ready = 1
	}
	e.Gauge("mcservd_ready", "1 while the server accepts jobs, 0 once draining.", ready)

	m.mu.Lock()
	sum, count := m.latSum, m.latCount
	m.mu.Unlock()
	const lat = "mcservd_job_latency_seconds"
	e.Family(lat, "Job service time (queue wait plus simulation), recent-window quantiles.", "summary")
	if q, ok := m.quantiles([]float64{0.5, 0.99}); ok {
		e.Float(lat, "quantile", "0.5", q[0])
		e.Float(lat, "quantile", "0.99", q[1])
	}
	e.Float(lat+"_sum", "", "", sum)
	e.Int(lat+"_count", "", "", count)
	_, err := e.WriteTo(w)
	return err
}
