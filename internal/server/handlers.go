package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"mcpaging/internal/strategyspec"
	"mcpaging/internal/telemetry"
)

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /strategies", s.handleStrategies)
	s.mux.HandleFunc("POST /v1/jobs", s.handleJob)
	s.mux.HandleFunc("POST /v1/sweep", s.handleSweep)
}

// writeJSON writes v as a JSON response with the given status.
func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// httpError writes a JSON error body {"error": "..."}.
func httpError(w http.ResponseWriter, status int, format string, args ...interface{}) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	io.WriteString(w, "ok\n")
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if !s.ready() {
		w.Header().Set("Retry-After", s.retryAfterHint())
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "draining\n")
		return
	}
	io.WriteString(w, "ready\n")
}

// retryAfterHint renders the configured Retry-After hint in whole
// seconds (rounded up), the format both the 429 queue-full and the 503
// draining responses share so clients can back off uniformly.
func (s *Server) retryAfterHint() string {
	return strconv.Itoa(int((s.cfg.RetryAfter + time.Second - 1) / time.Second))
}

// handleMetrics serves the server-level counters followed by the
// telemetry Prometheus snapshot of the most recently completed job.
// Server metrics are mcservd_*; per-run telemetry is mcpaging_*, so the
// two families never collide in one scrape.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.metrics.writePrometheus(w, s.snapshotGauges()); err != nil {
		return
	}
	s.telemMu.Lock()
	defer s.telemMu.Unlock()
	if s.lastTelem != nil {
		_ = telemetry.WritePrometheus(w, s.lastTelem)
	}
}

func (s *Server) handleStrategies(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Strategies []strategyspec.Combo `json:"strategies"`
	}{strategyspec.List()})
}

// handleJob serves POST /v1/jobs: resolve → canonical key → cache →
// queue → worker → respond. See docs/server.md for the lifecycle.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBody)
	var req JobRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "decoding job: %v", err)
		return
	}
	run, err := req.Resolve(s.cfg.MaxRequests)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	key := JobKey(run.R, run.Spec, run.Params, run.Seed)
	// Cache lookup with per-key singleflight: concurrent misses on one
	// key elect a leader that computes; followers wait for the flight
	// to finish and re-check the cache instead of duplicating the run.
	for {
		if v, ok := s.cache.get(key); ok {
			writeJSON(w, http.StatusOK, JobResponse{Key: key, Cached: true, Result: v})
			return
		}
		// While draining, refuse instead of joining (or leading) a
		// flight: drain must not park new requests behind in-flight
		// work. Cache hits above are still served.
		if !s.ready() {
			w.Header().Set("Retry-After", s.retryAfterHint())
			httpError(w, http.StatusServiceUnavailable, "%v", ErrDraining)
			return
		}
		leader, wait := s.cache.join(key)
		if leader {
			break
		}
		s.metrics.coalesced.Add(1)
		select {
		case <-wait:
			// Leader finished: loop to re-check the cache. On a leader
			// error the entry is still absent and this caller becomes
			// the next leader.
		case <-r.Context().Done():
			return
		}
	}
	defer s.cache.leave(key)
	start := time.Now()
	j := &job{
		Job:     run,
		key:     key,
		ctx:     r.Context(),
		timeout: s.jobTimeout(req.TimeoutMS),
		res:     make(chan outcome, 1),
	}
	if err := s.submit(j); err != nil {
		switch {
		case errors.Is(err, ErrQueueFull):
			w.Header().Set("Retry-After", s.retryAfterHint())
			httpError(w, http.StatusTooManyRequests, "%v", err)
		case errors.Is(err, ErrDraining):
			w.Header().Set("Retry-After", s.retryAfterHint())
			httpError(w, http.StatusServiceUnavailable, "%v", err)
		default:
			httpError(w, http.StatusInternalServerError, "%v", err)
		}
		return
	}
	select {
	case out := <-j.res:
		s.finishJob(w, key, start, out)
	case <-r.Context().Done():
		// Client gone: the job's context aborts the run; the worker's
		// send lands in the buffered channel and the job is dropped.
		return
	}
}

// finishJob maps a worker outcome onto the HTTP response and the
// metrics counters, and feeds the result cache.
func (s *Server) finishJob(w http.ResponseWriter, key string, start time.Time, out outcome) {
	if out.err != nil {
		s.metrics.failed.Add(1)
		var be errBuild
		switch {
		case errors.As(out.err, &be):
			httpError(w, http.StatusUnprocessableEntity, "%v", out.err)
		case errors.Is(out.err, context.DeadlineExceeded):
			httpError(w, http.StatusGatewayTimeout, "%v", out.err)
		default:
			httpError(w, http.StatusInternalServerError, "%v", out.err)
		}
		return
	}
	elapsed := time.Since(start)
	s.metrics.completed.Add(1)
	s.metrics.observeLatency(elapsed)
	s.cache.put(key, out.result)
	writeJSON(w, http.StatusOK, JobResponse{
		Key:       key,
		Cached:    false,
		ElapsedMS: float64(elapsed.Microseconds()) / 1000,
		Result:    out.result,
	})
}

// handleSweep serves POST /v1/sweep: the K × τ × capacity × strategy
// grid fans out across the worker pool and results stream back as JSONL
// in deterministic K-major order (the same order internal/sweep uses).
// Cached points stream immediately; misses stream as the pool finishes
// them. Backpressure is the stream itself: submission into the bounded
// queue blocks, so a sweep never overruns the pool.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBody)
	var req SweepRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "decoding sweep: %v", err)
		return
	}
	runs, err := req.Resolve(s.cfg.MaxRequests)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	type point struct {
		line SweepLine
		hit  *Result
		j    *job
	}
	var pts []*point
	for _, run := range runs {
		pt := &point{line: SweepLine{K: run.K, Tau: run.Tau, Capacity: run.Capacity, Spec: run.Spec}}
		pt.line.Key = JobKey(run.R, run.Spec, run.Params, run.Seed)
		if v, ok := s.cache.get(pt.line.Key); ok {
			pt.hit = &v
		} else {
			pt.j = &job{
				Job:     run,
				key:     pt.line.Key,
				ctx:     r.Context(),
				timeout: s.cfg.JobTimeout,
				res:     make(chan outcome, 1),
			}
		}
		pts = append(pts, pt)
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	// Feed the pool in grid order; a submission failure becomes the
	// point's outcome so the streaming loop below reports it in place.
	go func() {
		for _, pt := range pts {
			if pt.j == nil {
				continue
			}
			if err := s.submitWait(r.Context(), pt.j); err != nil {
				pt.j.res <- outcome{err: err}
			}
		}
	}()

	for _, pt := range pts {
		line := pt.line
		switch {
		case pt.hit != nil:
			line.Cached = true
			line.Result = pt.hit
		default:
			out := <-pt.j.res
			if out.err != nil {
				if !errors.Is(out.err, ErrDraining) && !errors.Is(out.err, context.Canceled) {
					s.metrics.failed.Add(1)
				}
				line.Error = out.err.Error()
			} else {
				s.metrics.completed.Add(1)
				s.cache.put(line.Key, out.result)
				res := out.result
				line.Result = &res
			}
		}
		if err := enc.Encode(line); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}
