package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"

	"mcpaging/internal/capacity"
	"mcpaging/internal/core"
	"mcpaging/internal/metrics"
	"mcpaging/internal/server"
	"mcpaging/internal/sim"
	"mcpaging/internal/strategyspec"
	"mcpaging/internal/sweep"
	"mcpaging/internal/workload"
)

// cell is one simulation the benchmark asks for: a job, or one grid
// point of a sweep.
type cell struct {
	spec   string
	params core.Params
	seed   int64
}

// cellsOf expands an op into its cells in the order the server answers
// them: sweep.Grid.Cells order for a sweep.
func cellsOf(o op) ([]cell, error) {
	if o.job != nil {
		p, err := paramsOf(o.job.K, o.job.Tau, o.job.Capacity)
		return []cell{{spec: o.job.Strategy, params: p, seed: o.job.Seed}}, err
	}
	grid := sweep.Grid{Ks: o.sweep.Ks, Taus: o.sweep.Taus, Capacities: o.sweep.Capacities, Specs: o.sweep.Strategies}
	var cs []cell
	for _, c := range grid.Cells() {
		p, err := paramsOf(c.K, c.Tau, c.Capacity)
		if err != nil {
			return nil, err
		}
		cs = append(cs, cell{spec: c.Spec, params: p, seed: o.sweep.Seed})
	}
	return cs, nil
}

// paramsOf builds a cell's model parameters the way the handlers do:
// a capacity spec, if any, is parsed with the portable parser against K.
func paramsOf(k, tau int, capSpec string) (core.Params, error) {
	p := core.Params{K: k, Tau: tau}
	if capSpec != "" {
		sched, err := capacity.ParsePortableSchedule(capSpec, k)
		if err != nil {
			return p, err
		}
		p.Capacity = sched
	}
	return p, nil
}

// resolvedInput returns the op's request set without going through
// the server: the trace the generator encoded, or a fresh
// workload.Generate of the spec.
func resolvedInput(o op) (core.RequestSet, error) {
	if o.rs != nil {
		return o.rs, nil
	}
	if o.sweep != nil {
		return workload.Generate(*o.sweep.Trace.Workload)
	}
	return workload.Generate(*o.job.Trace.Workload)
}

// expected is the directly computed outcome of one cell.
type expected struct {
	name   string
	total  int
	res    sim.Result
	events int64
}

// expectation is the direct outcome of a whole op.
type expectation struct {
	rs    core.RequestSet
	cells []cell
	want  []expected
}

// direct simulates every cell of o with strategyspec.Build and
// sim.Runner.Run, bypassing the service, and counts the events an
// observer receives.
func direct(o op) (expectation, error) {
	rs, err := resolvedInput(o)
	if err != nil {
		return expectation{}, err
	}
	cs, err := cellsOf(o)
	if err != nil {
		return expectation{}, err
	}
	rn, err := sim.NewRunner(rs)
	if err != nil {
		return expectation{}, err
	}
	e := expectation{rs: rs, cells: cs, want: make([]expected, len(cs))}
	for i, c := range cs {
		st, err := strategyspec.Build(c.spec, rs, c.params.K, c.seed)
		if err != nil {
			return expectation{}, err
		}
		var events int64
		res, err := rn.Run(c.params, st, func(sim.Event) { events++ })
		if err != nil {
			return expectation{}, err
		}
		e.want[i] = expected{name: st.Name(), total: rs.TotalLen(), res: res, events: events}
	}
	return e, nil
}

// sameResult compares a served result with the direct run field by
// field.
func sameResult(got server.Result, want expected) error {
	rate := 0.0
	if want.total > 0 {
		rate = float64(want.res.TotalFaults()) / float64(want.total)
	}
	r := want.res
	switch {
	case got.Strategy != want.name:
		return fmt.Errorf("strategy %q, want %q", got.Strategy, want.name)
	case !slices.Equal(got.Faults, r.Faults):
		return fmt.Errorf("faults %v, want %v", got.Faults, r.Faults)
	case !slices.Equal(got.Hits, r.Hits):
		return fmt.Errorf("hits %v, want %v", got.Hits, r.Hits)
	case !slices.Equal(got.Finish, r.Finish):
		return fmt.Errorf("finish %v, want %v", got.Finish, r.Finish)
	case got.Makespan != r.Makespan:
		return fmt.Errorf("makespan %d, want %d", got.Makespan, r.Makespan)
	case got.TotalFaults != r.TotalFaults() || got.TotalHits != r.TotalHits():
		return fmt.Errorf("totals %d/%d, want %d/%d", got.TotalFaults, got.TotalHits, r.TotalFaults(), r.TotalHits())
	case got.FaultRate != rate:
		return fmt.Errorf("fault rate %v, want %v", got.FaultRate, rate)
	case got.Jain != metrics.JainIndex(r.Faults):
		return fmt.Errorf("jain %v, want %v", got.Jain, metrics.JainIndex(r.Faults))
	case got.VoluntaryEvictions != r.VoluntaryEvictions || got.CapacityEvictions != r.CapacityEvictions:
		return fmt.Errorf("evictions %d/%d, want %d/%d", got.VoluntaryEvictions, got.CapacityEvictions,
			r.VoluntaryEvictions, r.CapacityEvictions)
	}
	return nil
}

// servedLine is a served cell: its key and result.
type servedLine struct {
	Key    string         `json:"key"`
	Result *server.Result `json:"result"`
}

// parseServed decodes a job response or a sweep's JSONL stream into
// its cells.
func parseServed(o op, body []byte) ([]servedLine, error) {
	if o.job != nil {
		var resp server.JobResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return nil, fmt.Errorf("op %d: decoding job response: %w", o.index, err)
		}
		return []servedLine{{Key: resp.Key, Result: &resp.Result}}, nil
	}
	var out []servedLine
	for _, line := range bytes.Split(bytes.TrimSpace(body), []byte("\n")) {
		var sl server.SweepLine
		if err := json.Unmarshal(line, &sl); err != nil {
			return nil, fmt.Errorf("op %d: decoding sweep line: %w", o.index, err)
		}
		out = append(out, servedLine{Key: sl.Key, Result: sl.Result})
	}
	return out, nil
}

// verifier checks served responses against direct runs, caching the
// direct outcome per request body: job-hot repeats 64 bodies, and the
// fixed op list repeats ops already sampled.
type verifier struct {
	want map[[sha256.Size]byte]expectation
}

func newVerifier() *verifier { return &verifier{want: map[[sha256.Size]byte]expectation{}} }

func (v *verifier) expect(o op) (expectation, error) {
	body := sha256.Sum256(o.body)
	if e, ok := v.want[body]; ok {
		return e, nil
	}
	e, err := direct(o)
	if err != nil {
		return expectation{}, fmt.Errorf("op %d: direct run: %w", o.index, err)
	}
	v.want[body] = e
	return e, nil
}

// check compares one response with the direct runs of its op, key by
// key and field by field.
func (v *verifier) check(o op, body []byte) ([]servedLine, error) {
	got, err := parseServed(o, body)
	if err != nil {
		return nil, err
	}
	e, err := v.expect(o)
	if err != nil {
		return nil, err
	}
	if len(got) != len(e.want) {
		return nil, fmt.Errorf("op %d: %d cells, want %d", o.index, len(got), len(e.want))
	}
	cs := e.cells
	for i, g := range got {
		if key := server.JobKey(e.rs, cs[i].spec, cs[i].params, cs[i].seed); g.Key != key {
			return nil, fmt.Errorf("op %d cell %d: key %.16s, want %.16s", o.index, i, g.Key, key)
		}
		if g.Result == nil {
			return nil, fmt.Errorf("op %d cell %d: no result", o.index, i)
		}
		if err := sameResult(*g.Result, e.want[i]); err != nil {
			return nil, fmt.Errorf("op %d cell %d (%s): %w", o.index, i, cs[i].spec, err)
		}
	}
	return got, nil
}

// digest hashes the served cells of the fixed op list: key and result
// of every cell, in op order. It ignores the cached flag, so a warm and
// a cold server, or a fleet and a single node, hash alike.
func digest(lines [][]servedLine) string {
	h := sha256.New()
	for _, op := range lines {
		for _, l := range op {
			h.Write([]byte(l.Key))
			h.Write(mustJSON(l.Result))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
