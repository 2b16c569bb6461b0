package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"mcpaging/internal/capacity"
	"mcpaging/internal/core"
	"mcpaging/internal/server"
	"mcpaging/internal/sweep"
)

// DispatcherConfig parameterises cell routing.
type DispatcherConfig struct {
	// MaxInflight bounds the cells in flight fleet-wide (0 = 4 per
	// worker). The sweep submitter blocks on this bound — the
	// coordinator-side half of end-to-end backpressure.
	MaxInflight int
	// WorkerInflight bounds the cells in flight on one worker (0 = 4).
	// The ring owner may always fill this bound; non-owners accept
	// spilled cells only up to the bound scaled by their latency
	// weight, so slow members shed borrowed work first.
	WorkerInflight int
	// RetryRounds is how many full failover rotations a cell attempts
	// after the first before giving up (0 = 3). Between rounds the
	// dispatcher backs off, which doubles as the window for probes to
	// resurrect a recovered worker.
	RetryRounds int
	// RoundBackoff shapes the between-rounds delay (Attempts unused).
	RoundBackoff Backoff
	// AcquirePoll is the poll period while blocking on the ring
	// owner's inflight bound (0 = 2ms).
	AcquirePoll time.Duration
	// MaxRequests bounds a resolved trace (0 = 8M), mirroring
	// mcservd's budget so the coordinator rejects oversized sweeps
	// before touching any worker.
	MaxRequests int
	// JitterSeed decorrelates the dispatcher's backoff jitter.
	JitterSeed int64
}

func (c DispatcherConfig) withDefaults(workers int) DispatcherConfig {
	if c.WorkerInflight <= 0 {
		c.WorkerInflight = 4
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = c.WorkerInflight * workers
	}
	if c.RetryRounds <= 0 {
		c.RetryRounds = 3
	}
	c.RoundBackoff = c.RoundBackoff.withDefaults()
	if c.AcquirePoll <= 0 {
		c.AcquirePoll = 2 * time.Millisecond
	}
	if c.MaxRequests <= 0 {
		c.MaxRequests = 8 << 20
	}
	return c
}

// Dispatcher routes jobs and sweep cells onto the fleet: ring-affine
// placement, bounded inflight, retry/failover, and canonical-order
// re-merge of sweep streams.
type Dispatcher struct {
	cfg   DispatcherConfig
	reg   *Registry
	clock Clock
	met   *fleetMetrics

	rngMu sync.Mutex
	rng   *rand.Rand
}

// NewDispatcher builds a dispatcher over the registry's fleet.
func NewDispatcher(reg *Registry, cfg DispatcherConfig, clk Clock, met *fleetMetrics) *Dispatcher {
	if clk == nil {
		clk = SystemClock
	}
	if met == nil {
		met = &fleetMetrics{}
	}
	return &Dispatcher{
		cfg:   cfg.withDefaults(len(reg.ids)),
		reg:   reg,
		clock: clk,
		met:   met,
		rng:   rand.New(rand.NewSource(cfg.JitterSeed)),
	}
}

// RunJob resolves one job request, routes it to the ring owner of its
// content-addressed key (failing over along the ring), and returns the
// worker's response plus the serving worker's ID.
func (d *Dispatcher) RunJob(ctx context.Context, req server.JobRequest) (server.JobResponse, string, error) {
	rs, err := req.Trace.Resolve(d.cfg.MaxRequests)
	if err != nil {
		return server.JobResponse{}, "", errPermanent{status: http.StatusBadRequest, msg: err.Error()}
	}
	params := core.Params{K: req.K, Tau: req.Tau}
	if req.Capacity != "" {
		// Portable families only: a tenant-supplied spec must never name
		// a file on the coordinator or a worker.
		sched, serr := capacity.ParsePortableSchedule(req.Capacity, req.K)
		if serr != nil {
			return server.JobResponse{}, "", errPermanent{status: http.StatusBadRequest, msg: serr.Error()}
		}
		params.Capacity = sched
	}
	if err := params.Validate(); err != nil {
		return server.JobResponse{}, "", errPermanent{status: http.StatusBadRequest, msg: err.Error()}
	}
	key := server.JobKey(rs, req.Strategy, params, req.Seed)
	d.met.jobs.Add(1)
	return d.routeCell(ctx, key, req)
}

// routeCell places one keyed job on the fleet. The ring owner is tried
// first with a blocking slot acquire (backpressure); ring successors
// absorb spill and failover, gated by their latency-weighted inflight
// bound. Hard failures mark the worker down and advance along the
// ring; exhausted rotations back off and retry, giving probes a chance
// to resurrect members.
func (d *Dispatcher) routeCell(ctx context.Context, key string, req server.JobRequest) (server.JobResponse, string, error) {
	var lastErr error
	for round := 0; ; round++ {
		cands := d.reg.candidates(key)
		for i, w := range cands {
			if i == 0 {
				// The owner: wait for a slot rather than scatter —
				// its cache is where this key lives.
				if err := d.acquireWait(ctx, w, int64(d.cfg.WorkerInflight)); err != nil {
					return server.JobResponse{}, "", err
				}
			} else {
				limit := int64(float64(d.cfg.WorkerInflight) * d.reg.weight(w.client.ID()))
				if limit < 1 {
					limit = 1
				}
				if !w.tryAcquire(limit) {
					continue
				}
			}
			start := d.clock.Now()
			resp, remoteID, err := w.client.RunJob(ctx, req)
			rtt := d.clock.Now().Sub(start)
			w.release()
			switch {
			case err == nil:
				d.reg.markRouteSuccess(w.client.ID(), remoteID, rtt)
				if i == 0 {
					d.met.routedOwner.Add(1)
				} else {
					d.met.routedSpill.Add(1)
				}
				return resp, w.client.ID(), nil
			case errors.As(err, &errPermanent{}):
				return server.JobResponse{}, w.client.ID(), err
			case errors.Is(err, errWorkerBusy):
				d.reg.markRouteDraining(w.client.ID())
				lastErr = err
			case ctx.Err() != nil:
				return server.JobResponse{}, "", ctx.Err()
			default:
				d.reg.markRouteDown(w.client.ID())
				d.met.failovers.Add(1)
				lastErr = err
			}
		}
		if round >= d.cfg.RetryRounds {
			if lastErr == nil {
				lastErr = errWorkerBusy
			}
			return server.JobResponse{}, "", fmt.Errorf("fleet: cell %.16s failed after %d rounds: %w", key, round+1, lastErr)
		}
		d.met.retryRounds.Add(1)
		if err := sleep(ctx, d.clock, d.roundDelay(round)); err != nil {
			return server.JobResponse{}, "", err
		}
	}
}

// acquireWait blocks until w has a free inflight slot or ctx ends.
func (d *Dispatcher) acquireWait(ctx context.Context, w *workerState, limit int64) error {
	for !w.tryAcquire(limit) {
		if err := sleep(ctx, d.clock, d.cfg.AcquirePoll); err != nil {
			return err
		}
	}
	return nil
}

// roundDelay is the jittered between-rounds backoff.
func (d *Dispatcher) roundDelay(round int) time.Duration {
	b := d.cfg.RoundBackoff
	delay := b.Base << round
	if delay > b.Cap || delay <= 0 {
		delay = b.Cap
	}
	d.rngMu.Lock()
	defer d.rngMu.Unlock()
	return delay/2 + time.Duration(d.rng.Int63n(int64(delay/2)+1))
}

// Sweep fans req's grid across the fleet and streams one SweepLine per
// cell to w as JSONL in canonical grid order (K-major, then τ, then
// capacity, then spec — sweep.Cells order, byte-compatible with
// mcservd's own /v1/sweep stream). Cells are submitted in grid order
// under the fleet-wide inflight bound (blocking enqueue); results
// arriving out of order are re-merged by the emit loop, which waits on
// each cell in turn. Returns the cell count on success for admission
// accounting.
func (d *Dispatcher) Sweep(ctx context.Context, req server.SweepRequest, w io.Writer) error {
	rs, grid, err := d.ResolveGrid(req)
	if err != nil {
		return err
	}
	return d.sweepResolved(ctx, rs, grid, req, w)
}

// ResolveGrid materialises and validates a sweep request's workload
// and grid. Validation errors are permanent (tenant errors), never
// worker failures.
func (d *Dispatcher) ResolveGrid(req server.SweepRequest) (core.RequestSet, sweep.Grid, error) {
	rs, err := req.Trace.Resolve(d.cfg.MaxRequests)
	if err != nil {
		return nil, sweep.Grid{}, errPermanent{status: http.StatusBadRequest, msg: err.Error()}
	}
	grid := sweep.Grid{R: rs, Ks: req.Ks, Taus: req.Taus, Capacities: req.Capacities,
		Specs: req.Strategies, Seed: req.Seed, PortableOnly: true}
	if err := grid.Validate(); err != nil {
		return nil, sweep.Grid{}, errPermanent{status: http.StatusBadRequest, msg: err.Error()}
	}
	return rs, grid, nil
}

// sweepResolved is Sweep after resolution — the gateway calls this so
// it can admit on the cell count before any worker is touched.
func (d *Dispatcher) sweepResolved(ctx context.Context, rs core.RequestSet, grid sweep.Grid, req server.SweepRequest, w io.Writer) error {
	cells := grid.Cells()
	d.met.sweeps.Add(1)

	type slot struct {
		line server.SweepLine
	}
	results := make([]chan slot, len(cells))
	for i := range results {
		results[i] = make(chan slot, 1)
	}
	// Cells forward the compact input form; workers resolve it
	// themselves and arrive at the same content-addressed key.
	jobOf := func(c sweep.Cell) server.JobRequest {
		return server.JobRequest{Trace: req.Trace, Strategy: c.Spec, K: c.K, Tau: c.Tau,
			Capacity: c.Capacity, Seed: req.Seed}
	}

	sem := make(chan struct{}, d.cfg.MaxInflight)
	go func() {
		for i := range cells {
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
				// Emit loop sees ctx.Done too; unstarted cells need no
				// line. Started cells drain via their own ctx checks.
				return
			}
			i, c := i, cells[i]
			go func() {
				defer func() { <-sem }()
				d.met.cellsInflight.Add(1)
				defer d.met.cellsInflight.Add(-1)
				params := core.Params{K: c.K, Tau: c.Tau}
				line := server.SweepLine{K: c.K, Tau: c.Tau, Capacity: c.Capacity, Spec: c.Spec}
				if c.Capacity != "" {
					// Grid.Validate (PortableOnly) parsed this pair already,
					// but fail the cell rather than discard the error: a
					// silently nil schedule would key and route the cell as
					// fixed-capacity while the forwarded request still
					// carries the elastic spec.
					sched, serr := capacity.ParsePortableSchedule(c.Capacity, c.K)
					if serr != nil {
						d.met.cellErrors.Add(1)
						line.Error = serr.Error()
						results[i] <- slot{line: line}
						return
					}
					params.Capacity = sched
				}
				key := server.JobKey(rs, c.Spec, params, req.Seed)
				line.Key = key
				resp, _, err := d.routeCell(ctx, key, jobOf(c))
				if err != nil {
					d.met.cellErrors.Add(1)
					line.Error = err.Error()
				} else {
					d.met.cells.Add(1)
					line.Cached = resp.Cached
					line.Result = &resp.Result
				}
				results[i] <- slot{line: line}
			}()
		}
	}()

	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	for i := range cells {
		select {
		case s := <-results[i]:
			if err := enc.Encode(s.line); err != nil {
				return err
			}
			if flusher != nil {
				flusher.Flush()
			}
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}
