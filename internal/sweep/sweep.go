// Package sweep runs strategy × parameter grids over a workload in
// parallel — the batch-experiment harness behind cmd/mcsweep. A sweep
// takes one request set, a list of cache sizes, fetch delays and
// strategy specs, simulates every combination (fanning out over worker
// goroutines), and returns the results in deterministic grid order.
package sweep

import (
	"fmt"

	"mcpaging/internal/capacity"
	"mcpaging/internal/core"
	"mcpaging/internal/metrics"
	"mcpaging/internal/par"
	"mcpaging/internal/sim"
	"mcpaging/internal/strategyspec"
)

// Grid describes a sweep.
type Grid struct {
	// R is the workload all points share.
	R core.RequestSet
	// Ks are the cache sizes to sweep.
	Ks []int
	// Taus are the fetch delays to sweep.
	Taus []int
	// Capacities are capacity-schedule specs (capacity mini-language,
	// resolved against each point's K) to sweep; the empty slice — or an
	// empty string entry — is the fixed-capacity model. Sweeping shrink
	// severities ("step(to=75%,at=...)", "step(to=50%,at=...)", ...) is
	// the intended use.
	Capacities []string
	// Specs are strategy specs in the strategyspec mini-language.
	Specs []string
	// Seed drives RAND policies.
	Seed int64
	// Workers bounds concurrency (0 = GOMAXPROCS).
	Workers int
	// PortableOnly restricts Capacities to the portable schedule
	// families (capacity.ParsePortableSchedule): no family that reads
	// files local to the validating process. server.SweepRequest.Resolve,
	// which mcservd and the mcfleet coordinator parse every sweep with,
	// sets it so a remote grid can never name a path on the host.
	PortableOnly bool
	// Observe, when non-nil, is called once per grid point — concurrently
	// from worker goroutines, after the point's strategy is built — and
	// may return an observer to attach to the point's run plus a done
	// callback invoked with the run's result (either may be nil). A done
	// error is recorded on the point. This is the hook cmd/mcsweep uses
	// to export per-point telemetry.
	Observe func(pt Point) (obs sim.Observer, done func(sim.Result) error)
}

// Validate checks the grid is non-empty and structurally sound: it
// reports the error Jobs would.
func (g Grid) Validate() error {
	_, err := g.Jobs()
	return err
}

// Jobs validates the grid and resolves it to one Job per cell, in Cells
// order. Each (capacity, K) pair is parsed once, with the parser
// PortableOnly selects; a parsed schedule is immutable, so every τ,
// strategy and worker of the pair shares it.
func (g Grid) Jobs() ([]Job, error) {
	if err := g.R.Validate(); err != nil {
		return nil, err
	}
	if len(g.Ks) == 0 || len(g.Taus) == 0 || len(g.Specs) == 0 {
		return nil, fmt.Errorf("sweep: empty grid dimension (K×τ×spec = %d×%d×%d)",
			len(g.Ks), len(g.Taus), len(g.Specs))
	}
	for _, k := range g.Ks {
		if k < g.R.NumCores() {
			return nil, fmt.Errorf("sweep: K=%d below core count %d", k, g.R.NumCores())
		}
	}
	for _, tau := range g.Taus {
		if tau < 0 {
			return nil, fmt.Errorf("sweep: negative tau %d", tau)
		}
	}
	parse := capacity.ParseSchedule
	if g.PortableOnly {
		parse = capacity.ParsePortableSchedule
	}
	type pair struct {
		capacity string
		k        int
	}
	scheds := make(map[pair]core.CapacitySchedule)
	for _, cap := range g.Capacities {
		if cap == "" {
			continue
		}
		for _, k := range g.Ks {
			sched, err := parse(cap, k)
			if err != nil {
				return nil, fmt.Errorf("sweep: K=%d: %v", k, err)
			}
			scheds[pair{cap, k}] = sched
		}
	}
	cells := g.Cells()
	jobs := make([]Job, len(cells))
	for i, c := range cells {
		params := core.Params{K: c.K, Tau: c.Tau, Capacity: scheds[pair{c.Capacity, c.K}]}
		jobs[i] = Job{Cell: c, R: g.R, Params: params, Seed: g.Seed}
	}
	return jobs, nil
}

// capacities returns the capacity dimension, defaulting to the single
// fixed-capacity entry when none is configured.
func (g Grid) capacities() []string {
	if len(g.Capacities) == 0 {
		return []string{""}
	}
	return g.Capacities
}

// Cell is one grid coordinate, as the client named it.
type Cell struct {
	K, Tau int
	// Capacity is the point's K(t) schedule spec; "" = fixed capacity.
	Capacity string
	Spec     string
}

// Job is one resolved run: the Cell as the client named it, the
// workload, the run parameters (K, τ and the parsed K(t), nil for fixed
// capacity) and the seed. Every layer past validation keys, routes and
// simulates a Job, so none parses a capacity spec a second time.
type Job struct {
	Cell
	R      core.RequestSet
	Params core.Params
	Seed   int64
}

// Cells enumerates the grid in canonical order — K-major, then τ, then
// capacity, then spec. This single definition of "grid order" is shared
// by Run (point order), mcservd's /v1/sweep stream, and mcfleet's
// re-merge of results arriving out of order from many workers.
func (g Grid) Cells() []Cell {
	caps := g.capacities()
	cells := make([]Cell, 0, len(g.Ks)*len(g.Taus)*len(caps)*len(g.Specs))
	for _, k := range g.Ks {
		for _, tau := range g.Taus {
			for _, cap := range caps {
				for _, spec := range g.Specs {
					cells = append(cells, Cell{K: k, Tau: tau, Capacity: cap, Spec: spec})
				}
			}
		}
	}
	return cells
}

// Point is one grid cell's result.
type Point struct {
	K, Tau   int
	Capacity string
	Spec     string
	// Params are the run parameters the point simulates under: the
	// cell's Job.Params, K(t) included.
	Params   core.Params
	Strategy string
	Faults   int64
	Rate     float64
	Jain     float64
	Makespan int64
	// CapacityEvictions counts pages shed under capacity pressure;
	// always 0 for fixed-capacity points.
	CapacityEvictions int64
	Err               error
}

// Run executes the grid. Points come back in the deterministic order of
// Cells (K-major, then τ, then capacity, then spec) regardless of
// scheduling. Per-point simulation errors are recorded on the point,
// not returned.
//
// Every worker owns one sim.Runner bound to the shared workload, so the
// per-point cost is one engine reset plus the simulation itself: the
// request set is validated and its occurrence index built once per
// worker, not once per grid cell.
func Run(g Grid) ([]Point, error) {
	jobs, err := g.Jobs()
	if err != nil {
		return nil, err
	}
	points := make([]Point, len(jobs))
	total := float64(g.R.TotalLen())
	par.For(len(jobs), g.Workers, func() func(int) {
		rn, rnErr := sim.NewRunner(g.R)
		return func(i int) {
			j := &jobs[i]
			pt := &points[i]
			*pt = Point{K: j.K, Tau: j.Tau, Capacity: j.Capacity, Spec: j.Spec, Params: j.Params}
			if rnErr != nil {
				pt.Err = rnErr
				return
			}
			st, err := strategyspec.Build(pt.Spec, g.R, pt.K, g.Seed)
			if err != nil {
				pt.Err = err
				return
			}
			pt.Strategy = st.Name()
			var obs sim.Observer
			var done func(sim.Result) error
			if g.Observe != nil {
				obs, done = g.Observe(*pt)
			}
			res, err := rn.Run(pt.Params, st, obs)
			if err != nil {
				pt.Err = err
				return
			}
			pt.Faults = res.TotalFaults()
			pt.Rate = float64(res.TotalFaults()) / total
			pt.Jain = metrics.JainIndex(res.Faults)
			pt.Makespan = res.Makespan
			pt.CapacityEvictions = res.CapacityEvictions
			if done != nil {
				pt.Err = done(res)
			}
		}
	})
	return points, nil
}

// Table renders sweep points as a metrics table. The capacity column
// appears only when the sweep actually carries a capacity dimension, so
// fixed-capacity tables keep their historical shape.
func Table(title string, pts []Point) *metrics.Table {
	elastic := false
	for _, p := range pts {
		if p.Capacity != "" {
			elastic = true
			break
		}
	}
	headers := []string{"K", "tau", "strategy", "faults", "fault_rate", "jain", "makespan", "err"}
	if elastic {
		headers = []string{"K", "tau", "capacity", "strategy", "faults", "fault_rate", "jain", "makespan", "cap_evictions", "err"}
	}
	t := metrics.NewTable(title, headers...)
	for _, p := range pts {
		errStr := ""
		if p.Err != nil {
			errStr = p.Err.Error()
		}
		name := p.Strategy
		if name == "" {
			name = p.Spec
		}
		if elastic {
			cap := p.Capacity
			if cap == "" {
				cap = "fixed"
			}
			t.AddRow(p.K, p.Tau, cap, name, p.Faults, p.Rate, p.Jain, p.Makespan, p.CapacityEvictions, errStr)
		} else {
			t.AddRow(p.K, p.Tau, name, p.Faults, p.Rate, p.Jain, p.Makespan, errStr)
		}
	}
	return t
}

// Heatmap renders one strategy's metric over the K × τ grid as a table
// with one row per K and one column per τ — the quick-look view behind
// `mcsweep -heatmap`.
func Heatmap(title, spec, metric string, pts []Point) (*metrics.Table, error) {
	var ks, taus []int
	seenK := map[int]bool{}
	seenT := map[int]bool{}
	val := make(map[[2]int]float64)
	for _, p := range pts {
		if p.Spec != spec || p.Err != nil {
			continue
		}
		var v float64
		switch metric {
		case "faults":
			v = float64(p.Faults)
		case "rate":
			v = p.Rate
		case "jain":
			v = p.Jain
		case "makespan":
			v = float64(p.Makespan)
		default:
			return nil, fmt.Errorf("sweep: unknown metric %q (want faults|rate|jain|makespan)", metric)
		}
		if !seenK[p.K] {
			seenK[p.K] = true
			ks = append(ks, p.K)
		}
		if !seenT[p.Tau] {
			seenT[p.Tau] = true
			taus = append(taus, p.Tau)
		}
		val[[2]int{p.K, p.Tau}] = v
	}
	if len(ks) == 0 {
		return nil, fmt.Errorf("sweep: no points for spec %q", spec)
	}
	headers := []string{"K \\ tau"}
	for _, t := range taus {
		headers = append(headers, fmt.Sprintf("%d", t))
	}
	tbl := metrics.NewTable(fmt.Sprintf("%s — %s(%s)", title, metric, spec), headers...)
	for _, k := range ks {
		row := []interface{}{k}
		for _, t := range taus {
			row = append(row, val[[2]int{k, t}])
		}
		tbl.AddRow(row...)
	}
	return tbl, nil
}
