package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"mcpaging/internal/core"
	"mcpaging/internal/sim"
	"mcpaging/internal/strategyspec"
	"mcpaging/internal/trace"
	"mcpaging/internal/workload"
)

// reuseSpec is the workload the trace-reuse tests post.
var reuseSpec = workload.Spec{Kind: workload.Zipf, Cores: 2, Length: 2000, Pages: 64, Seed: 5}

// traceCounts scrapes the trace step's two counters.
func traceCounts(t *testing.T, baseURL string) (resolves, reuses float64) {
	t.Helper()
	return scrapeMetric(t, baseURL, "mcservd_trace_resolves_total"), scrapeMetric(t, baseURL, "mcservd_trace_reuses_total")
}

// directResult is the wire result of req run by sim.Run on a set
// generated for it alone.
func directResult(t *testing.T, req JobRequest) []byte {
	t.Helper()
	rs, err := workload.Generate(*req.Trace.Workload)
	if err != nil {
		t.Fatal(err)
	}
	st, err := strategyspec.Build(req.Strategy, rs, req.K, req.Seed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(core.Instance{R: rs, P: core.Params{K: req.K, Tau: req.Tau}}, st, nil)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(resultFrom(st.Name(), rs.TotalLen(), res))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestTraceReuseConcurrentJobsGenerateOnce posts the cells of a sweep
// over one spec as concurrent jobs, the way a fleet worker receives
// them: the spec is generated once, and every job still gets JobKey's
// key and the result of a run that shared nothing. A sweep over the
// spec afterwards is served the set too, and keys its cells the same.
func TestTraceReuseConcurrentJobsGenerateOnce(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8})
	strategies := []string{"S(LRU)", "sP[even](LRU)", "dP(LRU)", "S(RAND)"}
	reqs := make([]JobRequest, 8)
	for i := range reqs {
		wl := reuseSpec
		reqs[i] = JobRequest{Trace: TraceInput{Workload: &wl}, Strategy: strategies[i%len(strategies)],
			K: 16 + 8*(i/len(strategies)), Tau: 2, Seed: int64(i)}
	}
	bodies := make([][]byte, len(reqs))
	var wg sync.WaitGroup
	for i := range reqs {
		raw := mustJSON(t, reqs[i])
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(raw))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Errorf("job %d: status %d, err %v: %s", i, resp.StatusCode, err, body)
			}
			bodies[i] = body
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if resolves, reuses := traceCounts(t, ts.URL); resolves != 1 || reuses != float64(len(reqs)-1) {
		t.Fatalf("resolves = %v, reuses = %v; want the spec generated once and reused %d times", resolves, reuses, len(reqs)-1)
	}
	rs, err := workload.Generate(reuseSpec)
	if err != nil {
		t.Fatal(err)
	}
	for i, req := range reqs {
		var env struct {
			Key    string          `json:"key"`
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(bodies[i], &env); err != nil {
			t.Fatal(err)
		}
		if want := JobKey(rs, req.Strategy, core.Params{K: req.K, Tau: req.Tau}, req.Seed); env.Key != want {
			t.Errorf("job %d: key %s, want JobKey's %s", i, env.Key, want)
		}
		if want := directResult(t, req); !bytes.Equal(env.Result, want) {
			t.Errorf("job %d: result diverges from an unshared run:\n got %s\nwant %s", i, env.Result, want)
		}
	}

	wl := reuseSpec
	sreq := SweepRequest{Trace: TraceInput{Workload: &wl}, Ks: []int{16, 24}, Taus: []int{2, 3},
		Strategies: []string{"S(LRU)", "S(FIFO)"}, Seed: 3}
	runs, err := sreq.Resolve(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	resp := postJSON(t, ts.URL+"/v1/sweep", sreq)
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	lines := 0
	for ; sc.Scan(); lines++ {
		var ln SweepLine
		if err := json.Unmarshal(sc.Bytes(), &ln); err != nil {
			t.Fatal(err)
		}
		run := runs[min(lines, len(runs)-1)]
		if want := JobKey(run.R, run.Spec, run.Params, run.Seed); ln.Key != want || ln.Spec != run.Spec || ln.Error != "" {
			t.Fatalf("sweep line %d %+v: want cell %+v with key %s and no error", lines, ln, run.Cell, want)
		}
	}
	if lines != len(runs) {
		t.Fatalf("sweep streamed %d lines, want %d", lines, len(runs))
	}
	if _, reuses := traceCounts(t, ts.URL); reuses != float64(len(reqs)) {
		t.Fatalf("reuses = %v after the sweep, want %d", reuses, len(reqs))
	}
}

// TestTraceReuseServesOnlyTheLastGoodSpec walks the entry through a
// request sequence: a different spec replaces it; a spec that fails its
// checks or its generation, an inline trace and a binary trace are
// never served from it; and a failed generation leaves no entry.
func TestTraceReuseServesOnlyTheLastGoodSpec(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxRequests: 10000})
	withSpec := func(spec workload.Spec) TraceInput { return TraceInput{Workload: &spec} }
	other := reuseSpec
	other.Seed++
	overBudget := reuseSpec
	overBudget.Length = 6000
	invalid := reuseSpec
	invalid.Cores = 0
	var bin bytes.Buffer
	if err := trace.WriteBinary(&bin, core.RequestSet(testTrace())); err != nil {
		t.Fatal(err)
	}
	binary := TraceInput{BinaryB64: base64.StdEncoding.EncodeToString(bin.Bytes())}
	const unusable = `{"trace":{"workload":{"cores":2,"length":1000,"pages":64,"kind":"zipf","zipf_v":1e15,"seed":1}},"strategy":"S(LRU)","k":8,"tau":1}`

	for i, step := range []struct {
		name            string
		in              TraceInput
		raw             string // a raw body instead of in
		code            int
		resolves, reuse float64 // the counters after the step
	}{
		{"first", withSpec(reuseSpec), "", http.StatusOK, 1, 0},
		{"repeat", withSpec(reuseSpec), "", http.StatusOK, 1, 1},
		{"other spec", withSpec(other), "", http.StatusOK, 2, 1},
		{"first again, replaced", withSpec(reuseSpec), "", http.StatusOK, 3, 1},
		{"over budget", withSpec(overBudget), "", http.StatusBadRequest, 3, 1},
		{"invalid", withSpec(invalid), "", http.StatusBadRequest, 3, 1},
		{"inline", TraceInput{Inline: testTrace()}, "", http.StatusOK, 4, 1},
		{"binary", binary, "", http.StatusOK, 5, 1},
		{"first after the others", withSpec(reuseSpec), "", http.StatusOK, 5, 2},
		{"unusable zipf", TraceInput{}, unusable, http.StatusBadRequest, 6, 2},
		{"unusable zipf again", TraceInput{}, unusable, http.StatusBadRequest, 7, 2},
		{"first after a failure", withSpec(reuseSpec), "", http.StatusOK, 8, 2},
	} {
		body := step.raw
		if body == "" {
			body = string(mustJSON(t, JobRequest{Trace: step.in, Strategy: "S(LRU)", K: 8, Tau: 1, Seed: int64(i)}))
		}
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != step.code {
			t.Fatalf("%s: status %d (%s), want %d", step.name, resp.StatusCode, msg, step.code)
		}
		if resolves, reuses := traceCounts(t, ts.URL); resolves != step.resolves || reuses != step.reuse {
			t.Fatalf("%s: resolves = %v, reuses = %v; want %v, %v", step.name, resolves, reuses, step.resolves, step.reuse)
		}
	}
}

// TestTraceReuseWaiters holds an entry's resolve open and checks the
// requests that wait on it: a waiter whose request is cancelled
// returns, a waiter is served the set once the resolve fills it, and a
// waiter on a resolve that failed resolves the spec itself.
func TestTraceReuseWaiters(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Drain()
	in := TraceInput{Workload: &reuseSpec}
	hold := func() *traceEntry {
		e := &traceEntry{spec: reuseSpec, done: make(chan struct{})}
		s.traces.mu.Lock()
		s.traces.last = e
		s.traces.mu.Unlock()
		return e
	}
	type result struct {
		set traceSet
		err error
	}
	wait := func(ctx context.Context) <-chan result {
		out := make(chan result, 1)
		go func() {
			set, err := s.resolveTrace(ctx, in)
			out <- result{set, err}
		}()
		return out
	}

	e := hold()
	ctx, cancel := context.WithCancel(context.Background())
	waiting := wait(ctx)
	cancel()
	if r := <-waiting; !errors.Is(r.err, context.Canceled) {
		t.Fatalf("cancelled waiter: err = %v, want context.Canceled", r.err)
	}

	waiting = wait(context.Background())
	rs, err := workload.Generate(reuseSpec)
	if err != nil {
		t.Fatal(err)
	}
	e.rs = rs
	close(e.done)
	r := <-waiting
	if r.err != nil || r.set.reused != e || len(r.set.rs) != len(rs) || &r.set.rs[0][0] != &rs[0][0] {
		t.Fatalf("waiter on a filled entry: %+v, want the entry's set", r)
	}

	e = hold()
	waiting = wait(context.Background())
	s.traces.mu.Lock()
	s.traces.last = nil // as fillTrace leaves a failed resolve
	s.traces.mu.Unlock()
	close(e.done)
	r = <-waiting
	if r.err != nil || r.set.reused != nil || r.set.rs.TotalLen() != rs.TotalLen() {
		t.Fatalf("waiter on a failed entry: %+v, want a set it resolved itself", r)
	}
	if resolves, reuses := s.metrics.traceResolves.Load(), s.metrics.traceReuses.Load(); resolves != 1 || reuses != 1 {
		t.Fatalf("resolves = %d, reuses = %d; want 1 and 1", resolves, reuses)
	}
}
