package server

import (
	"context"
	"errors"
	"fmt"
	"time"

	"mcpaging/internal/metrics"
	"mcpaging/internal/sim"
	"mcpaging/internal/strategyspec"
	"mcpaging/internal/telemetry"
)

// ErrDraining is reported to submissions that arrive after Drain began.
var ErrDraining = errors.New("server: draining, not accepting jobs")

// ErrQueueFull is reported by non-blocking submission when the bounded
// queue has no room — the signal handlers turn into 429 + Retry-After.
var ErrQueueFull = errors.New("server: job queue full")

// errBuild wraps strategy-construction and validation failures so
// handlers can map them to 422 instead of 500.
type errBuild struct{ err error }

func (e errBuild) Error() string { return e.err.Error() }
func (e errBuild) Unwrap() error { return e.err }

// submit enqueues a job without blocking: a full queue is the caller's
// backpressure signal.
func (s *Server) submit(j *job) error {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	if s.draining {
		return ErrDraining
	}
	select {
	case s.jobs <- j:
		s.metrics.accepted.Add(1)
		return nil
	default:
		s.metrics.rejected.Add(1)
		return ErrQueueFull
	}
}

// submitWait enqueues a job, waiting for queue space; it is the batch
// path, where the sweep handler itself is the backpressure (the stream
// simply stalls until the pool catches up).
func (s *Server) submitWait(ctx context.Context, j *job) error {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	if s.draining {
		return ErrDraining
	}
	//mcvet:ignore lockheld the send must stay under drainMu.RLock so Drain cannot close(s.jobs) mid-send; the ctx.Done case bounds the wait
	select {
	case s.jobs <- j:
		s.metrics.accepted.Add(1)
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// worker is one pool goroutine. It owns a single reusable sim.Runner
// for its whole lifetime, rebinding it to each job's request set, so
// per-job allocations amortize away for repeat workload shapes.
func (s *Server) worker() {
	defer s.wg.Done()
	var rn *sim.Runner
	for j := range s.jobs {
		if s.cfg.testJobStarted != nil {
			s.cfg.testJobStarted <- struct{}{}
		}
		if s.cfg.testJobRelease != nil {
			<-s.cfg.testJobRelease
		}
		out := s.execute(&rn, j)
		j.res <- out
	}
}

// execute runs one job on the worker's runner under the job's deadline.
func (s *Server) execute(rn **sim.Runner, j *job) outcome {
	ctx := j.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	if j.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, j.timeout)
		defer cancel()
	}
	st, err := strategyspec.Build(j.Spec, j.R, j.Params.K, j.Seed)
	if err != nil {
		return outcome{err: errBuild{err}}
	}
	if *rn == nil {
		*rn, err = sim.NewRunner(j.R)
	} else {
		err = (*rn).Bind(j.R)
	}
	if err != nil {
		return outcome{err: errBuild{err}}
	}
	defer (*rn).Release()
	col := telemetry.New(telemetry.Config{Cores: j.R.NumCores(), Params: j.Params})
	res, err := (*rn).RunContext(ctx, j.Params, st, col.Observe)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			s.metrics.timeouts.Add(1)
			err = fmt.Errorf("job exceeded its %v timeout: %w", j.timeout, err)
		}
		return outcome{err: err}
	}
	col.Finish(res)
	s.telemMu.Lock()
	s.lastTelem = col
	s.telemMu.Unlock()
	return outcome{result: resultFrom(st.Name(), j.R.TotalLen(), res)}
}

// resultFrom converts a sim.Result into the wire Result.
func resultFrom(name string, totalRequests int, res sim.Result) Result {
	rate := 0.0
	if totalRequests > 0 {
		rate = float64(res.TotalFaults()) / float64(totalRequests)
	}
	return Result{
		Strategy:           name,
		Faults:             res.Faults,
		Hits:               res.Hits,
		Finish:             res.Finish,
		Makespan:           res.Makespan,
		TotalFaults:        res.TotalFaults(),
		TotalHits:          res.TotalHits(),
		FaultRate:          rate,
		Jain:               metrics.JainIndex(res.Faults),
		VoluntaryEvictions: res.VoluntaryEvictions,
		CapacityEvictions:  res.CapacityEvictions,
	}
}

// jobTimeout resolves the effective timeout for a request: the server
// default, lowered (never raised) by the request's timeout_ms.
func (s *Server) jobTimeout(overrideMS int64) time.Duration {
	t := s.cfg.JobTimeout
	if overrideMS > 0 {
		if o := time.Duration(overrideMS) * time.Millisecond; o < t {
			t = o
		}
	}
	return t
}
