package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"mcpaging/internal/core"
	"mcpaging/internal/server"
	"mcpaging/internal/sim"
	"mcpaging/internal/strategyspec"
	"mcpaging/internal/sweep"
	"mcpaging/internal/telemetry"
)

// maxTracedOps caps the traced phase; the time budget usually ends it
// first on the sweep workloads.
const maxTracedOps = 200

// simThreads is the number of simulation workers serving every
// workload: two mcservd pool workers, or two fleet workers with one
// each.
const simThreads = 2

// span is one timed call. Spans of one op share a trace id; parent 0
// marks a root.
type span struct {
	Trace  int    `json:"trace"`
	ID     int    `json:"span"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) record(trace, parent int, name string, start, end time.Time) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Trace: trace, ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

// timed runs fn as one span and returns its duration in milliseconds.
func (t *tracer) timed(trace, parent int, name string, fn func() error) (float64, error) {
	start := time.Now()
	err := fn()
	end := time.Now()
	t.record(trace, parent, name, start, end)
	return ms(end.Sub(start)), err
}

// selfTimes returns every span's self time in milliseconds, grouped by
// name: its duration minus the parts of it its children cover.
// Children of one parent never overlap, because each op's replay runs
// on one goroutine.
func (t *tracer) selfTimes() map[string][]float64 {
	covered := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent == 0 {
			continue
		}
		p := t.spans[s.Parent-1]
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			covered[s.Parent] += hi - lo
		}
	}
	out := map[string][]float64{}
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start-covered[s.ID])/1e6)
	}
	return out
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// samples collects per-op and per-cell quantities of the traced phase.
type samples struct {
	jobkeyPerOp  []float64
	service      []float64
	queueWait    []float64
	unattributed []float64
	nsPerRequest []float64
	observe      []float64
	hop          []float64
}

// replayer re-runs each traced op through the public layer functions
// in the order mcservd's handlers call them, one span per call.
type replayer struct {
	tr  *tracer
	st  *stack
	def workloadDef
	rn  *sim.Runner
	s   samples
}

// traced is the -trace 1 body of a child: an untraced single-client
// reference phase, then up to maxTracedOps traced ops, each an HTTP
// span followed by its replay. Both phases run one client, so their
// ratio isolates the cost of tracing from queueing.
func traced(ctx context.Context, pr *passResult, st *stack, in *inputs, o childOpts) error {
	ld := newLoader(st.url, 1)
	defer ld.close()
	refEnd := time.Now().Add(time.Duration(o.seconds / 4 * float64(time.Second)))
	ref := ld.drive(ctx, 1, func(int) bool { return time.Now().Before(refEnd) }, in.op, nil)
	pr.account(ref)
	var refLat []float64
	for _, r := range ref {
		if r.err == nil {
			refLat = append(refLat, ms(r.latency))
		}
	}

	before, err := st.counters(ctx, ld.hc)
	if err != nil {
		return err
	}
	rp := &replayer{tr: &tracer{t0: time.Now()}, st: st, def: in.def}
	deadline := time.Now().Add(time.Duration(o.seconds * 3 / 4 * float64(time.Second)))
	var httpLat, ttfl []float64
	for i := len(ref); i < len(ref)+maxTracedOps && time.Now().Before(deadline); i++ {
		op := in.op(i)
		r := ld.do(ctx, op, true)
		pr.Attempted++
		rp.tr.record(i, 0, "http", r.start, r.end())
		if r.err != nil {
			pr.fail(r.err)
			continue
		}
		httpLat = append(httpLat, ms(r.latency))
		ttfl = append(ttfl, ms(r.ttfl))
		if err := rp.replay(ctx, i, op, r); err != nil {
			pr.fail(err)
		}
	}
	after, err := st.counters(ctx, ld.hc)
	if err != nil {
		return err
	}
	if len(httpLat) == 0 || len(refLat) == 0 {
		return fmt.Errorf("%s: no traced op completed", in.def.name)
	}
	self := rp.tr.selfTimes()
	pr.SelfP50MS = map[string]float64{}
	for name, xs := range self {
		pr.SelfP50MS[name] = median(xs)
	}
	pr.Layers = rp.layers(self, before, after)
	pr.Layers["trace_overhead"] = median(httpLat) / median(refLat)
	pr.Layers["ttfl_p50_ms"] = median(ttfl)
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	return rp.tr.write(filepath.Join(o.out, "spans-"+in.def.name+".jsonl"))
}

// replay re-enacts one served op. It checks the served keys and the
// replayed cell's result against the response as it goes.
func (rp *replayer) replay(ctx context.Context, trace int, o op, r result) error {
	start := time.Now()
	id := rp.tr.record(trace, 0, "replay", start, start) // end fixed below
	defer func() { rp.tr.spans[id-1].End = time.Since(rp.tr.t0).Nanoseconds() }()
	if o.job != nil {
		return rp.job(trace, id, o, r)
	}
	return rp.sweep(ctx, trace, id, o, r)
}

func (rp *replayer) job(trace, parent int, o op, r result) error {
	tr := rp.tr
	var req server.JobRequest
	decode, err := tr.timed(trace, parent, "server.decode", func() error {
		return json.NewDecoder(bytes.NewReader(o.body)).Decode(&req)
	})
	if err != nil {
		return err
	}
	params := core.Params{K: req.K, Tau: req.Tau}
	var parse float64
	if req.Capacity != "" {
		parse, err = tr.timed(trace, parent, "capacity.parse", func() (err error) {
			params, err = paramsOf(req.K, req.Tau, req.Capacity)
			return err
		})
		if err != nil {
			return err
		}
	}
	var rs core.RequestSet
	resolve, err := tr.timed(trace, parent, resolveSpan(req.Trace), func() (err error) {
		rs, err = req.Trace.Resolve(maxRequestsJob)
		return err
	})
	if err != nil {
		return err
	}
	var key string
	jobkey, _ := tr.timed(trace, parent, "server.jobkey", func() error {
		key = server.JobKey(rs, req.Strategy, params, req.Seed)
		return nil
	})
	rp.s.jobkeyPerOp = append(rp.s.jobkeyPerOp, jobkey)

	var resp server.JobResponse
	if err := json.Unmarshal(r.body, &resp); err != nil {
		return fmt.Errorf("op %d: decoding response: %w", o.index, err)
	}
	if resp.Key != key {
		return fmt.Errorf("op %d: served key %.16s, replayed %.16s", o.index, resp.Key, key)
	}
	if !resp.Cached {
		// The miss path: the pool worker's build, bind and observed run.
		work, err := rp.cell(trace, parent, rs, cell{spec: req.Strategy, params: params, seed: req.Seed}, &resp.Result)
		if err != nil {
			return fmt.Errorf("op %d: %w", o.index, err)
		}
		rp.s.service = append(rp.s.service, resp.ElapsedMS)
		rp.s.queueWait = append(rp.s.queueWait, resp.ElapsedMS-work)
	}
	encode, err := tr.timed(trace, parent, "server.encode", func() error {
		return json.NewEncoder(io.Discard).Encode(resp)
	})
	if err != nil {
		return err
	}
	onPath := decode + parse + resolve + jobkey + resp.ElapsedMS + encode
	rp.s.unattributed = append(rp.s.unattributed, ms(r.latency)-onPath)
	return nil
}

func (rp *replayer) sweep(ctx context.Context, trace, parent int, o op, r result) error {
	tr := rp.tr
	var req server.SweepRequest
	decode, err := tr.timed(trace, parent, "server.decode", func() error {
		return json.NewDecoder(bytes.NewReader(o.body)).Decode(&req)
	})
	if err != nil {
		return err
	}
	var rs core.RequestSet
	resolve, err := tr.timed(trace, parent, resolveSpan(req.Trace), func() (err error) {
		rs, err = req.Trace.Resolve(maxRequestsJob)
		return err
	})
	if err != nil {
		return err
	}
	var cells []sweep.Cell
	expand, err := tr.timed(trace, parent, "sweep.expand", func() error {
		grid := sweep.Grid{R: rs, Ks: req.Ks, Taus: req.Taus, Capacities: req.Capacities,
			Specs: req.Strategies, Seed: req.Seed, PortableOnly: true}
		if err := grid.Validate(); err != nil {
			return err
		}
		cells = grid.Cells()
		return nil
	})
	if err != nil {
		return err
	}
	served, err := parseServed(o, r.body)
	if err != nil {
		return err
	}
	if len(served) != len(cells) {
		return fmt.Errorf("op %d: %d lines, want %d", o.index, len(served), len(cells))
	}
	var jobkeys float64
	for i, c := range cells {
		params, err := paramsOf(c.K, c.Tau, c.Capacity)
		if err != nil {
			return err
		}
		var key string
		d, _ := tr.timed(trace, parent, "server.jobkey", func() error {
			key = server.JobKey(rs, c.Spec, params, req.Seed)
			return nil
		})
		jobkeys += d
		if served[i].Key != key {
			return fmt.Errorf("op %d cell %d: served key %.16s, replayed %.16s", o.index, i, served[i].Key, key)
		}
	}
	rp.s.jobkeyPerOp = append(rp.s.jobkeyPerOp, jobkeys)

	// One cell per op, rotating through the grid: its pool work is
	// replayed, and it is sent as a job with a fresh policy seed (a
	// guaranteed miss) to the node that serves it, which exposes the
	// per-cell service time — and under the fleet, the hop.
	c := cells[o.index%len(cells)]
	params, err := paramsOf(c.K, c.Tau, c.Capacity)
	if err != nil {
		return err
	}
	work, err := rp.cell(trace, parent, rs, cell{spec: c.Spec, params: params, seed: req.Seed}, served[o.index%len(cells)].Result)
	if err != nil {
		return fmt.Errorf("op %d: %w", o.index, err)
	}
	probe := server.JobRequest{Trace: req.Trace, Strategy: c.Spec, K: c.K, Tau: c.Tau,
		Capacity: c.Capacity, Seed: req.Seed + 1 + int64(o.index)}
	node := rp.st.owner(server.JobKey(rs, probe.Strategy, params, probe.Seed))
	name := "server.probe"
	if rp.def.fleet {
		name = "fleet.hop"
	}
	var resp server.JobResponse
	rtt, err := tr.timed(trace, parent, name, func() (err error) {
		resp, _, err = rp.st.clients[node].RunJob(ctx, probe)
		return err
	})
	if err != nil {
		return fmt.Errorf("op %d: probe: %w", o.index, err)
	}
	rp.s.service = append(rp.s.service, resp.ElapsedMS)
	rp.s.queueWait = append(rp.s.queueWait, resp.ElapsedMS-work)
	cellCost := resp.ElapsedMS
	if rp.def.fleet {
		rp.s.hop = append(rp.s.hop, rtt-resp.ElapsedMS)
		cellCost = rtt
	}

	encode, err := tr.timed(trace, parent, "server.encode", func() error {
		enc := json.NewEncoder(io.Discard)
		for i, c := range cells {
			line := server.SweepLine{K: c.K, Tau: c.Tau, Capacity: c.Capacity, Spec: c.Spec,
				Key: served[i].Key, Result: served[i].Result}
			if err := enc.Encode(line); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	// The cells run simThreads at a time, so the grid's share of the
	// round trip is estimated as cells × per-cell cost ÷ simThreads.
	onPath := decode + resolve + expand + jobkeys + float64(len(cells))*cellCost/simThreads + encode
	rp.s.unattributed = append(rp.s.unattributed, ms(r.latency)-onPath)
	return nil
}

// cell replays one pool job — strategyspec.Build, Runner.Bind, a run
// with a nil observer and a run with a telemetry.Collector — checks the
// observed run against the served result, and returns the pool work in
// milliseconds (build + bind + observed run). The two runs alternate
// order by trace id so neither always runs on warm caches.
func (rp *replayer) cell(trace, parent int, rs core.RequestSet, c cell, served *server.Result) (float64, error) {
	tr := rp.tr
	var st sim.Strategy
	build, err := tr.timed(trace, parent, "strategyspec.build", func() (err error) {
		st, err = strategyspec.Build(c.spec, rs, c.params.K, c.seed)
		return err
	})
	if err != nil {
		return 0, err
	}
	bind, err := tr.timed(trace, parent, "sim.bind", func() (err error) {
		if rp.rn == nil {
			rp.rn, err = sim.NewRunner(rs)
			return err
		}
		return rp.rn.Bind(rs)
	})
	if err != nil {
		return 0, err
	}
	defer rp.rn.Release()
	var res sim.Result
	plain := func() (float64, error) {
		return tr.timed(trace, parent, "sim.run", func() error {
			_, err := rp.rn.Run(c.params, st, nil)
			return err
		})
	}
	observed := func() (float64, error) {
		return tr.timed(trace, parent, "telemetry.run", func() (err error) {
			col := telemetry.New(telemetry.Config{Cores: rs.NumCores(), Params: c.params})
			res, err = rp.rn.Run(c.params, st, col.Observe)
			if err == nil {
				col.Finish(res)
			}
			return err
		})
	}
	var run, obs float64
	if trace%2 == 0 {
		if run, err = plain(); err == nil {
			obs, err = observed()
		}
	} else if obs, err = observed(); err == nil {
		run, err = plain()
	}
	if err != nil {
		return 0, err
	}
	if served == nil {
		return 0, fmt.Errorf("no served result")
	}
	if err := sameResult(*served, expected{name: st.Name(), total: rs.TotalLen(), res: res}); err != nil {
		return 0, fmt.Errorf("replayed %s: %w", c.spec, err)
	}
	rp.s.nsPerRequest = append(rp.s.nsPerRequest, run*1e6/float64(rs.TotalLen()))
	rp.s.observe = append(rp.s.observe, obs-run)
	return build + bind + obs, nil
}

func resolveSpan(t server.TraceInput) string {
	if t.BinaryB64 != "" {
		return "trace.decode"
	}
	return "workload.generate"
}

// layers turns the spans, samples and /metrics deltas into the
// per-layer metrics. A layer the workload's path never calls reads 0.
func (rp *replayer) layers(self map[string][]float64, before, after map[string]float64) map[string]float64 {
	p50 := func(xs []float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		return median(xs)
	}
	d := func(name string) float64 { return after[name] - before[name] }
	m := map[string]float64{
		"server.decode_ms":             p50(self["server.decode"]),
		"server.encode_ms":             p50(self["server.encode"]),
		"server.jobkey_ms":             p50(self["server.jobkey"]),
		"server.jobkey_per_sweep_ms":   p50(rp.s.jobkeyPerOp),
		"server.service_ms":            p50(rp.s.service),
		"server.queue_wait_ms":         p50(rp.s.queueWait),
		"server.unattributed_ms":       p50(rp.s.unattributed),
		"server.cache_hit_ratio":       ratio(d("mcservd_cache_hits_total"), d("mcservd_cache_misses_total")),
		"server.coalesced_total":       d("mcservd_jobs_coalesced_total"),
		"server.rejected_total":        d("mcservd_jobs_rejected_total"),
		"server.timeouts_total":        d("mcservd_jobs_timeout_total"),
		"workload.generate_ms":         p50(self["workload.generate"]),
		"trace.decode_ms":              p50(self["trace.decode"]),
		"capacity.parse_ms":            p50(self["capacity.parse"]),
		"strategyspec.build_ms":        p50(self["strategyspec.build"]),
		"sim.bind_ms":                  p50(self["sim.bind"]),
		"sim.run_ms":                   p50(self["sim.run"]),
		"sim.ns_per_request":           p50(rp.s.nsPerRequest),
		"telemetry.observe_ms":         p50(rp.s.observe),
		"sweep.expand_ms":              p50(self["sweep.expand"]),
		"fleet.hop_ms":                 p50(rp.s.hop),
		"fleet.owner_ratio":            ratio(d("mcfleet_routed_owner_total"), d("mcfleet_routed_spill_total")),
		"fleet.failovers_total":        d("mcfleet_failovers_total"),
		"fleet.retry_rounds_total":     d("mcfleet_retry_rounds_total"),
		"fleet.worker_cache_hit_ratio": 0,
	}
	if rp.def.fleet {
		m["fleet.worker_cache_hit_ratio"] = m["server.cache_hit_ratio"]
	}
	return m
}
