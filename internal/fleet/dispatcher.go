package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"mcpaging/internal/server"
	"mcpaging/internal/sim"
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
	// dispatcher backs off on the default Backoff schedule, which
	// doubles as the window for probes to resurrect a recovered worker.
	RetryRounds int
	// MaxRequests bounds a resolved trace (0 = 8M), mirroring
	// mcservd's budget so the coordinator rejects oversized sweeps
	// before touching any worker.
	MaxRequests int
}

// acquirePoll is the poll period while a cell blocks on its ring
// owner's inflight bound.
const acquirePoll = 2 * time.Millisecond

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
	if c.MaxRequests <= 0 {
		c.MaxRequests = 8 << 20
	}
	return c
}

// Dispatcher routes jobs and sweep cells onto the fleet: ring-affine
// placement, bounded inflight, retry/failover, and canonical-order
// re-merge of sweep streams.
type Dispatcher struct {
	cfg    DispatcherConfig
	reg    *Registry
	clock  server.Clock
	met    *fleetMetrics
	rounds *schedule // the between-rounds backoff
}

// NewDispatcher builds a dispatcher over the registry's fleet.
func NewDispatcher(reg *Registry, cfg DispatcherConfig, clk server.Clock, met *fleetMetrics) *Dispatcher {
	if clk == nil {
		clk = server.SystemClock
	}
	if met == nil {
		met = &fleetMetrics{}
	}
	return &Dispatcher{
		cfg:   cfg.withDefaults(len(reg.ids)),
		reg:   reg,
		clock: clk,
		met:   met,
		// A coordinator runs one dispatcher, so one fixed jitter stream
		// decorrelates its cells' retry rounds.
		rounds: newSchedule(Backoff{}, sim.DeriveSeed(0, 0, 0)),
	}
}

// RunJob resolves one job request, routes it to the ring owner of its
// content-addressed key (failing over along the ring), and returns the
// worker's response plus the serving worker's ID.
func (d *Dispatcher) RunJob(ctx context.Context, req server.JobRequest) (server.JobResponse, string, error) {
	run, err := req.Resolve(d.cfg.MaxRequests)
	if err != nil {
		return server.JobResponse{}, "", errPermanent{status: http.StatusBadRequest, msg: err.Error()}
	}
	key := server.JobKey(run.R, run.Spec, run.Params, run.Seed)
	d.met.jobs.Add(1)
	return d.routeCell(ctx, key, req)
}

// routeCell places one keyed job on the fleet. The ring owner is tried
// first with a blocking slot acquire (backpressure); ring successors
// absorb spill and failover, gated by their latency-weighted inflight
// bound. Hard failures — including a response keyed for another cell —
// mark the worker down and advance along the ring; exhausted rotations
// back off and retry, giving probes a chance to resurrect members.
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
			if err == nil && resp.Key != key {
				// An answer for another key is not this cell's result,
				// whatever else it holds: a worker fault like any other.
				err = fmt.Errorf("%w: %s: answered key %.16s for cell %.16s", errWorkerDown, w.client.ID(), resp.Key, key)
			}
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
		if err := sleep(ctx, d.clock, d.rounds.delay(round)); err != nil {
			return server.JobResponse{}, "", err
		}
	}
}

// acquireWait blocks until w has a free inflight slot or ctx ends.
func (d *Dispatcher) acquireWait(ctx context.Context, w *workerState, limit int64) error {
	for !w.tryAcquire(limit) {
		if err := sleep(ctx, d.clock, acquirePoll); err != nil {
			return err
		}
	}
	return nil
}

// runSweep fans a resolved sweep (req's runs from SweepRequest.Resolve)
// across the fleet and streams one SweepLine per cell to w as JSONL in
// canonical grid order (K-major, then τ, then capacity, then spec —
// sweep.Cells order, byte-compatible with mcservd's own /v1/sweep
// stream). Cells are submitted in grid order under the fleet-wide
// inflight bound (blocking enqueue); results arriving out of order are
// re-merged by the emit loop, which waits on each cell in turn.
func (d *Dispatcher) runSweep(ctx context.Context, runs []sweep.Job, req server.SweepRequest, w io.Writer) error {
	d.met.sweeps.Add(1)

	type slot struct {
		line server.SweepLine
	}
	results := make([]chan slot, len(runs))
	for i := range results {
		results[i] = make(chan slot, 1)
	}
	// Cells forward the compact input form; workers resolve it
	// themselves and arrive at the same content-addressed key.
	jobOf := func(c sweep.Cell) server.JobRequest {
		return server.JobRequest{Trace: req.Trace, Strategy: c.Spec, K: c.K, Tau: c.Tau,
			Capacity: c.Capacity, Seed: req.Seed}
	}

	keyer := server.NewKeyer(runs[0].R) // every run of a sweep shares its request set
	sem := make(chan struct{}, d.cfg.MaxInflight)
	go func() {
		for i := range runs {
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
				// Emit loop sees ctx.Done too; unstarted cells need no
				// line. Started cells drain via their own ctx checks.
				return
			}
			i, run := i, runs[i]
			go func() {
				defer func() { <-sem }()
				d.met.cellsInflight.Add(1)
				defer d.met.cellsInflight.Add(-1)
				key := keyer.Key(run.Spec, run.Params, run.Seed)
				line := server.SweepLine{K: run.K, Tau: run.Tau, Capacity: run.Capacity, Spec: run.Spec, Key: key}
				resp, _, err := d.routeCell(ctx, key, jobOf(run.Cell))
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
	for i := range runs {
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
