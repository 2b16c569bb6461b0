package telemetry

import (
	"io"
	"strconv"

	"mcpaging/internal/metrics"
)

// WritePrometheus writes the end-of-run counters and gauges as a
// Prometheus text-format (version 0.0.4) snapshot: the same numbers a
// long-running deployment would scrape, frozen at run end. Metric and
// label order is fixed, so the snapshot is byte-reproducible.
func WritePrometheus(w io.Writer, c *Collector) error {
	tot := c.Totals()
	perCore := []struct {
		name, help, typ string
		vals            []int64
	}{
		{"mcpaging_requests_total", "Requests served, per core.", "counter", tot.Requests},
		{"mcpaging_faults_total", "Page faults (including in-flight joins), per core.", "counter", tot.Faults},
		{"mcpaging_hits_total", "Cache hits, per core.", "counter", tot.Hits},
		{"mcpaging_joins_total", "Faults that joined an in-flight fetch, per core.", "counter", tot.Joins},
		{"mcpaging_donated_evictions_total", "Cells this core held that another core's fault evicted.", "counter", tot.DonatedEvictions},
		{"mcpaging_taken_cells_total", "Cells this core took from other cores on a fault.", "counter", tot.TakenCells},
		{"mcpaging_occupancy_cells", "Cache cells attributed to the core at run end.", "gauge", tot.Occupancy},
		{"mcpaging_tau_debt_steps_total", "Cumulative fault delay (faults x tau) in time steps, per core.", "counter", tot.TauDebt},
		{"mcpaging_finish_time", "Completion time of the core's last request.", "gauge", c.res.Finish},
	}
	if len(c.res.Finish) != len(tot.Requests) {
		perCore = perCore[:len(perCore)-1] // no finish times before Finish
	}
	var e metrics.Exposition
	for _, f := range perCore {
		e.Family(f.name, f.help, f.typ)
		for j, v := range f.vals {
			e.Int(f.name, "core", strconv.Itoa(j), v)
		}
	}
	e.Counter("mcpaging_partition_changes_total", "Cross-core evictions: cells moved between cores' occupancy shares.", tot.PartitionChanges)
	e.Counter("mcpaging_voluntary_evictions_total", "Pages evicted voluntarily by Ticker strategies.", tot.VoluntaryEvictions)
	if c.elastic {
		// Elastic-only metrics: fixed-capacity snapshots stay byte-identical.
		e.Counter("mcpaging_capacity_changes_total", "Elastic-capacity K(t) announcements over the run.", tot.CapacityChanges)
		e.Counter("mcpaging_capacity_evictions_total", "Pages shed under capacity pressure while K(t) shrank.", tot.CapacityEvictions)
		e.Family("mcpaging_capacity_k", "Cache capacity K(t) at run end.", "gauge")
		e.Int("mcpaging_capacity_k", "", "", tot.FinalCapacity)
		e.Family("mcpaging_capacity_k_min", "Minimum cache capacity K(t) reached over the run.", "gauge")
		e.Int("mcpaging_capacity_k_min", "", "", tot.MinCapacity)
	}
	e.Gauge("mcpaging_fault_jain", "Jain fairness index of whole-run per-core fault counts.", tot.FaultJain)
	e.Family("mcpaging_makespan", "Maximum finish time across cores.", "gauge")
	e.Int("mcpaging_makespan", "", "", c.res.Makespan)
	e.Counter("mcpaging_windows_total", "Telemetry windows closed over the run.", tot.Windows)
	e.Counter("mcpaging_windows_dropped_total", "Closed windows that aged out of the retention ring.", tot.DroppedWindows)
	_, err := e.WriteTo(w)
	return err
}
