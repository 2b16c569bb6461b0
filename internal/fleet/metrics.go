package fleet

import (
	"io"
	"sync/atomic"

	"mcpaging/internal/metrics"
)

// fleetMetrics holds the coordinator counters exposed on /metrics.
// All fields are atomics, bumped from the gateway and dispatcher.
type fleetMetrics struct {
	jobs       atomic.Int64 // single jobs routed via POST /v1/jobs
	sweeps     atomic.Int64 // sweeps accepted
	cells      atomic.Int64 // sweep cells completed successfully
	cellErrors atomic.Int64 // cells that exhausted retry/failover

	routedOwner atomic.Int64 // cells served by their ring owner
	routedSpill atomic.Int64 // cells spilled to a ring successor
	failovers   atomic.Int64 // hard worker failures observed while routing
	retryRounds atomic.Int64 // full failover rotations that ended in backoff

	quotaDenied atomic.Int64 // requests bounced by a tenant quota
	shed        atomic.Int64 // requests shed because the fleet was saturated

	cellsInflight atomic.Int64 // gauge: cells currently in flight
}

// workerFamilies are the per-worker families of /metrics, in the order
// of promValues: name, help and type.
var workerFamilies = [...][3]string{
	{"mcfleet_worker_up", "1 while the worker is healthy, 0 while draining or down.", "gauge"},
	{"mcfleet_worker_latency_seconds", "EWMA of the worker's observed latency.", "gauge"},
	{"mcfleet_worker_weight", "Latency weight scaling the spill work this worker absorbs.", "gauge"},
	{"mcfleet_worker_inflight", "Cells currently in flight on this worker.", "gauge"},
	{"mcfleet_worker_served_total", "Jobs this worker has served for the coordinator.", "counter"},
	{"mcfleet_worker_probe_fails_total", "Failed /readyz probes against this worker.", "counter"},
}

// promValues is the worker's sample in each of workerFamilies.
func (wi WorkerInfo) promValues() [len(workerFamilies)]float64 {
	up := 0.0
	if wi.Status == StatusHealthy.String() {
		up = 1
	}
	return [...]float64{up, wi.LatencyMS / 1000, wi.Weight, float64(wi.Inflight), float64(wi.Served), float64(wi.ProbeFails)}
}

// writePrometheus emits the coordinator metrics in Prometheus text
// format (version 0.0.4): the mcfleet_* counter family, then the
// per-worker gauge families labelled by worker ID in sorted order, so
// scrapes are stable.
func (m *fleetMetrics) writePrometheus(w io.Writer, workers []WorkerInfo, tenants int, ready bool) error {
	var e metrics.Exposition
	e.Counter("mcfleet_jobs_total", "Single jobs routed onto the fleet.", m.jobs.Load())
	e.Counter("mcfleet_sweeps_total", "Sweeps accepted by the coordinator.", m.sweeps.Load())
	e.Counter("mcfleet_cells_total", "Sweep cells completed successfully.", m.cells.Load())
	e.Counter("mcfleet_cell_errors_total", "Sweep cells that failed after retry and failover.", m.cellErrors.Load())
	e.Counter("mcfleet_routed_owner_total", "Cells served by their consistent-hash ring owner.", m.routedOwner.Load())
	e.Counter("mcfleet_routed_spill_total", "Cells spilled to a ring successor (owner saturated or down).", m.routedSpill.Load())
	e.Counter("mcfleet_failovers_total", "Hard worker failures observed while routing.", m.failovers.Load())
	e.Counter("mcfleet_retry_rounds_total", "Failover rotations that exhausted all candidates and backed off.", m.retryRounds.Load())
	e.Counter("mcfleet_quota_denied_total", "Requests bounced by a per-tenant quota.", m.quotaDenied.Load())
	e.Counter("mcfleet_shed_total", "Requests shed because the fleet was saturated.", m.shed.Load())
	e.Gauge("mcfleet_cells_inflight", "Sweep cells currently in flight.", float64(m.cellsInflight.Load()))
	e.Gauge("mcfleet_tenants", "Tenants with an active quota bucket.", float64(tenants))
	readyVal := 0.0
	if ready {
		readyVal = 1
	}
	e.Gauge("mcfleet_ready", "1 while the coordinator admits work, 0 once draining.", readyVal)
	for i, f := range workerFamilies {
		e.Family(f[0], f[1], f[2])
		for _, wi := range workers {
			e.Float(f[0], "worker", wi.ID, wi.promValues()[i])
		}
	}
	_, err := e.WriteTo(w)
	return err
}
