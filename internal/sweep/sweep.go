// Package sweep runs strategy × parameter grids over a workload in
// parallel — the batch-experiment harness behind cmd/mcsweep. A sweep
// takes one request set, a list of cache sizes, fetch delays and
// strategy specs, simulates every combination (fanning out over worker
// goroutines), and returns the results in deterministic grid order.
package sweep

import (
	"fmt"
	"runtime"
	"sync"

	"mcpaging/internal/capacity"
	"mcpaging/internal/core"
	"mcpaging/internal/metrics"
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
	// files local to the validating process. The network-facing callers
	// — mcservd's sweep handler, the mcfleet coordinator — set it so a
	// remote grid can never name a path on the host.
	PortableOnly bool
	// Observe, when non-nil, is called once per grid point — concurrently
	// from worker goroutines, after the point's strategy is built — and
	// may return an observer to attach to the point's run plus a done
	// callback invoked with the run's result (either may be nil). A done
	// error is recorded on the point. This is the hook cmd/mcsweep uses
	// to export per-point telemetry.
	Observe func(pt Point) (obs sim.Observer, done func(sim.Result) error)
}

// Validate checks the grid is non-empty and structurally sound.
func (g Grid) Validate() error {
	if err := g.R.Validate(); err != nil {
		return err
	}
	if len(g.Ks) == 0 || len(g.Taus) == 0 || len(g.Specs) == 0 {
		return fmt.Errorf("sweep: empty grid dimension (K×τ×spec = %d×%d×%d)",
			len(g.Ks), len(g.Taus), len(g.Specs))
	}
	for _, k := range g.Ks {
		if k < g.R.NumCores() {
			return fmt.Errorf("sweep: K=%d below core count %d", k, g.R.NumCores())
		}
	}
	for _, tau := range g.Taus {
		if tau < 0 {
			return fmt.Errorf("sweep: negative tau %d", tau)
		}
	}
	parse := capacity.ParseSchedule
	if g.PortableOnly {
		parse = capacity.ParsePortableSchedule
	}
	for _, cap := range g.Capacities {
		if cap == "" {
			continue
		}
		for _, k := range g.Ks {
			if _, err := parse(cap, k); err != nil {
				return fmt.Errorf("sweep: K=%d: %v", k, err)
			}
		}
	}
	return nil
}

// capacities returns the capacity dimension, defaulting to the single
// fixed-capacity entry when none is configured.
func (g Grid) capacities() []string {
	if len(g.Capacities) == 0 {
		return []string{""}
	}
	return g.Capacities
}

// Cell is one grid coordinate. Cells — not Points — are the unit the
// fleet coordinator routes: a Cell plus the shared workload fully
// determines one job.
type Cell struct {
	K, Tau int
	// Capacity is the point's K(t) schedule spec; "" = fixed capacity.
	Capacity string
	Spec     string
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
	if err := g.Validate(); err != nil {
		return nil, err
	}
	workers := g.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	cells := g.Cells()
	points := make([]Point, len(cells))
	for i, c := range cells {
		points[i] = Point{K: c.K, Tau: c.Tau, Capacity: c.Capacity, Spec: c.Spec}
	}
	if workers > len(points) {
		workers = len(points)
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	total := float64(g.R.TotalLen())
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rn, err := sim.NewRunner(g.R)
			for i := range jobs {
				pt := &points[i]
				if err != nil {
					pt.Err = err
					continue
				}
				st, berr := strategyspec.Build(pt.Spec, g.R, pt.K, g.Seed)
				if berr != nil {
					pt.Err = berr
					continue
				}
				pt.Strategy = st.Name()
				params := core.Params{K: pt.K, Tau: pt.Tau}
				if pt.Capacity != "" {
					sched, serr := capacity.ParseSchedule(pt.Capacity, pt.K)
					if serr != nil {
						pt.Err = serr
						continue
					}
					params.Capacity = sched
				}
				var obs sim.Observer
				var done func(sim.Result) error
				if g.Observe != nil {
					obs, done = g.Observe(*pt)
				}
				res, rerr := rn.Run(params, st, obs)
				if rerr != nil {
					pt.Err = rerr
					continue
				}
				pt.Faults = res.TotalFaults()
				pt.Rate = float64(res.TotalFaults()) / total
				pt.Jain = metrics.JainIndex(res.Faults)
				pt.Makespan = res.Makespan
				pt.CapacityEvictions = res.CapacityEvictions
				if done != nil {
					if derr := done(res); derr != nil {
						pt.Err = derr
					}
				}
			}
		}()
	}
	for i := range points {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
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
