package server

import (
	"bytes"
	"context"
	"encoding/base64"
	"errors"
	"fmt"
	"io"
	"time"

	"mcpaging/internal/capacity"
	"mcpaging/internal/core"
	"mcpaging/internal/sim"
	"mcpaging/internal/sweep"
	"mcpaging/internal/trace"
	"mcpaging/internal/workload"
)

// TraceInput names a request set in one of three ways; exactly one
// field must be set. Inline and binary inputs are taken as-is; workload
// inputs are generated deterministically from the spec, so the same
// spec always canonicalizes to the same cache key.
type TraceInput struct {
	// Inline is the request set itself: one array of page IDs per core.
	Inline []core.Sequence `json:"inline,omitempty"`
	// Workload generates the request set from a generator spec (see
	// package workload for the families and their parameters).
	Workload *workload.Spec `json:"workload,omitempty"`
	// BinaryB64 is a base64 (standard encoding) binary trace in the
	// internal/trace wire format, as written by `mcgen -binary`.
	BinaryB64 string `json:"binary_b64,omitempty"`
}

// Resolve materialises the request set, enforcing a per-job size
// budget. It is exported for the fleet coordinator, which resolves the
// trace once to compute routing keys and forwards the compact input
// form to workers unchanged.
func (t TraceInput) Resolve(maxRequests int) (core.RequestSet, error) {
	if err := t.check(maxRequests); err != nil {
		return nil, err
	}
	return t.materialise(maxRequests)
}

// check validates what Resolve can validate before it materialises the
// set: exactly one input mode, and a workload spec that is valid and
// whose generation is within the budget. Generation is charged a step
// per request and a step per entry of every permutation it draws.
func (t TraceInput) check(maxRequests int) error {
	modes := 0
	if t.Inline != nil {
		modes++
	}
	if t.Workload != nil {
		modes++
	}
	if t.BinaryB64 != "" {
		modes++
	}
	if modes != 1 {
		return fmt.Errorf("trace: exactly one of inline, workload, binary_b64 must be set (got %d)", modes)
	}
	if t.Workload == nil {
		return nil
	}
	spec := *t.Workload
	if err := spec.Validate(); err != nil {
		return err
	}
	// Check the budget before generating (Cores ≥ 1 and Length ≥ 0 are
	// validated above; the per-factor checks rule out overflow).
	requests := int64(spec.Cores) * int64(spec.Length)
	if spec.Cores > maxRequests || spec.Length > maxRequests || requests > int64(maxRequests) {
		return fmt.Errorf("trace: workload of %d x %d requests exceeds the per-job budget of %d", spec.Cores, spec.Length, maxRequests)
	}
	// Pages ≥ 1 is validated above; dividing keeps the product in range.
	if perms := spec.Permutations(); perms > (int64(maxRequests)-requests)/int64(spec.Pages) {
		return fmt.Errorf("trace: workload of %d x %d requests and %d permutations of %d pages exceeds the per-job budget of %d",
			spec.Cores, spec.Length, perms, spec.Pages, maxRequests)
	}
	return nil
}

// materialise takes, generates or decodes the request set of an input
// that passed check, and validates the set under the budget.
func (t TraceInput) materialise(maxRequests int) (core.RequestSet, error) {
	var rs core.RequestSet
	switch {
	case t.Inline != nil:
		rs = core.RequestSet(t.Inline)
	case t.Workload != nil:
		var err error
		if rs, err = workload.Generate(*t.Workload); err != nil {
			return nil, err
		}
	default:
		var err error
		if rs, err = decodeBinary(t.BinaryB64, maxRequests); err != nil {
			return nil, err
		}
	}
	if err := rs.Validate(); err != nil {
		return nil, err
	}
	if n := rs.TotalLen(); n > maxRequests {
		return nil, fmt.Errorf("trace: %d requests exceeds the per-job budget of %d", n, maxRequests)
	}
	return rs, nil
}

// decodeBinary decodes a base64 binary trace core by core, checking
// each core's declared length before allocating it: a few header bytes
// must not make the server allocate the 2^28 requests a core may claim.
// The length is charged against the budget, and it may not exceed the
// trace's byte count, since each request takes at least one byte.
func decodeBinary(b64 string, maxRequests int) (core.RequestSet, error) {
	raw, err := base64.StdEncoding.DecodeString(b64)
	if err != nil {
		return nil, fmt.Errorf("trace: binary_b64: %w", err)
	}
	d, err := trace.NewDecoder(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("trace: binary_b64: %w", err)
	}
	var rs core.RequestSet
	total := 0
	for {
		n, err := d.NextCore()
		if err == io.EOF {
			return rs, nil
		}
		if err != nil {
			return nil, fmt.Errorf("trace: binary_b64: %w", err)
		}
		if total += n; total > maxRequests {
			return nil, fmt.Errorf("trace: %d requests exceeds the per-job budget of %d", total, maxRequests)
		}
		if n > len(raw) {
			return nil, fmt.Errorf("trace: binary_b64: core %d declares %d requests in a %d-byte trace", len(rs), n, len(raw))
		}
		seq := make(core.Sequence, n)
		for off := 0; off < n; {
			m, err := d.Read(seq[off:])
			if err != nil {
				return nil, fmt.Errorf("trace: binary_b64: %w", err)
			}
			off += m
		}
		rs = append(rs, seq)
	}
}

// JobRequest is the body of POST /v1/jobs.
type JobRequest struct {
	Trace    TraceInput `json:"trace"`
	Strategy string     `json:"strategy"`
	K        int        `json:"k"`
	Tau      int        `json:"tau"`
	// Capacity is an optional K(t) schedule spec (capacity
	// mini-language, resolved against K); empty is the fixed-capacity
	// model. Only the portable families are accepted — trace(path=...)
	// names a server-side file and is rejected with 400. The resolved
	// schedule is part of the cache key.
	Capacity string `json:"capacity,omitempty"`
	// Seed drives RAND/RMARK policies; it is part of the cache key.
	Seed int64 `json:"seed"`
	// TimeoutMS optionally lowers the server's per-job timeout for this
	// job. Values at or above the server timeout are ignored.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// Resolve validates the request and resolves it to the one run it
// names: strategy present, capacity spec, parameters, then the trace
// under the maxRequests budget, and last the cells the run needs (see
// sweep.CheckCells). It is the only place mcservd and the mcfleet
// coordinator parse a job. Only the portable capacity families are
// accepted: a client-supplied spec must never name a file on the host.
func (req JobRequest) Resolve(maxRequests int) (sweep.Job, error) {
	run, _, err := req.resolve(plainTrace(maxRequests), maxRequests)
	return run, err
}

// resolve is Resolve with its trace step supplied: mcservd's handlers
// pass the server's, which reuses the last workload spec resolved.
func (req JobRequest) resolve(step traceStep, maxRequests int) (sweep.Job, traceSet, error) {
	if req.Strategy == "" {
		return sweep.Job{}, traceSet{}, errors.New("strategy is required")
	}
	if err := checkK(req.K, maxRequests); err != nil {
		return sweep.Job{}, traceSet{}, err
	}
	params := core.Params{K: req.K, Tau: req.Tau}
	if req.Capacity != "" {
		sched, err := capacity.ParsePortableSchedule(req.Capacity, req.K)
		if err != nil {
			return sweep.Job{}, traceSet{}, err
		}
		params.Capacity = sched
	}
	if err := params.Validate(); err != nil {
		return sweep.Job{}, traceSet{}, err
	}
	set, err := step(req.Trace)
	if err != nil {
		return sweep.Job{}, traceSet{}, err
	}
	if err := sweep.CheckCells(set.rs, params); err != nil {
		return sweep.Job{}, traceSet{}, err
	}
	if err := sim.CheckClock(set.rs.TotalLen(), req.Tau); err != nil {
		return sweep.Job{}, traceSet{}, err
	}
	cell := sweep.Cell{K: req.K, Tau: req.Tau, Capacity: req.Capacity, Spec: req.Strategy}
	return sweep.Job{Cell: cell, R: set.rs, Params: params, Seed: req.Seed}, set, nil
}

// Result is the JSON shape of one simulation outcome — the unit the
// result cache stores and both the job and sweep endpoints return. It
// is derived deterministically from a sim.Result, so re-marshalling a
// cached entry is byte-identical to the first response.
type Result struct {
	Strategy           string  `json:"strategy"`
	Faults             []int64 `json:"faults"`
	Hits               []int64 `json:"hits"`
	Finish             []int64 `json:"finish"`
	Makespan           int64   `json:"makespan"`
	TotalFaults        int64   `json:"total_faults"`
	TotalHits          int64   `json:"total_hits"`
	FaultRate          float64 `json:"fault_rate"`
	Jain               float64 `json:"jain"`
	VoluntaryEvictions int64   `json:"voluntary_evictions"`
	// CapacityEvictions counts pages shed under capacity pressure;
	// omitted for fixed-capacity jobs, keeping their cached response
	// bytes identical across server versions.
	CapacityEvictions int64 `json:"capacity_evictions,omitempty"`
}

// JobResponse is the envelope of POST /v1/jobs.
type JobResponse struct {
	// Key is the canonical cache key of (instance, strategy, params).
	Key string `json:"key"`
	// Cached reports whether Result came from the result cache.
	Cached bool `json:"cached"`
	// ElapsedMS is the job's wall-clock service time (queue wait plus
	// simulation) — 0 for cache hits.
	ElapsedMS float64 `json:"elapsed_ms"`
	Result    Result  `json:"result"`
}

// SweepRequest is the body of POST /v1/sweep: one workload, a K × τ ×
// capacity × strategy grid. The response streams one SweepLine per grid
// point as JSONL, in deterministic K-major order.
type SweepRequest struct {
	Trace TraceInput `json:"trace"`
	Ks    []int      `json:"ks"`
	Taus  []int      `json:"taus"`
	// Capacities are optional K(t) schedule specs forming a grid
	// dimension (empty = fixed capacity only). Portable families only,
	// like JobRequest.Capacity.
	Capacities []string `json:"capacities,omitempty"`
	Strategies []string `json:"strategies"`
	Seed       int64    `json:"seed"`
}

// Resolve validates the request and resolves it to its grid's runs in
// sweep.Grid.Cells order: the trace under the maxRequests budget, then
// the grid, portable capacity families only. It is the only place
// mcservd and the mcfleet coordinator parse a sweep.
func (req SweepRequest) Resolve(maxRequests int) ([]sweep.Job, error) {
	runs, _, err := req.resolve(plainTrace(maxRequests), maxRequests)
	return runs, err
}

// resolve is Resolve with its trace step supplied, like
// JobRequest.resolve.
func (req SweepRequest) resolve(step traceStep, maxRequests int) ([]sweep.Job, traceSet, error) {
	for _, k := range req.Ks {
		if err := checkK(k, maxRequests); err != nil {
			return nil, traceSet{}, err
		}
	}
	set, err := step(req.Trace)
	if err != nil {
		return nil, traceSet{}, err
	}
	runs, err := sweep.Grid{R: set.rs, Ks: req.Ks, Taus: req.Taus, Capacities: req.Capacities,
		Specs: req.Strategies, Seed: req.Seed, PortableOnly: true}.Jobs()
	return runs, set, err
}

// checkK bounds K by the per-job budget. A run of at most maxRequests
// requests never fills more cells, so a larger K is refused before
// anything is built for it. sP[opt]'s miss curves take one pass per
// core, with at most min(K, the core's distinct pages) stack steps a
// request, and the job's timeout stops them as it stops the run.
func checkK(k, maxRequests int) error {
	if k > maxRequests {
		return fmt.Errorf("K=%d exceeds the per-job budget of %d", k, maxRequests)
	}
	return nil
}

// SweepLine is one JSONL line of the sweep stream.
type SweepLine struct {
	K        int     `json:"k"`
	Tau      int     `json:"tau"`
	Capacity string  `json:"capacity,omitempty"`
	Spec     string  `json:"spec"`
	Key      string  `json:"key"`
	Cached   bool    `json:"cached"`
	Result   *Result `json:"result,omitempty"`
	Error    string  `json:"error,omitempty"`
}

// job is one unit of work on the queue. res is buffered so a worker
// never blocks on a handler that has already given up on the job.
type job struct {
	sweep.Job
	key     string
	ctx     context.Context
	timeout time.Duration
	res     chan outcome
}

// outcome is what a worker hands back for one job.
type outcome struct {
	result Result
	err    error
}
