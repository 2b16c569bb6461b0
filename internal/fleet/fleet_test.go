package fleet

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"mcpaging/internal/core"
	"mcpaging/internal/server"
	"mcpaging/internal/sweep"
	"mcpaging/internal/trace"
	"mcpaging/internal/workload"
)

// newWorker starts a real in-process mcservd worker.
func newWorker(t *testing.T, id string) *httptest.Server {
	t.Helper()
	s := server.New(server.Config{Workers: 2, WorkerID: id})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

type testFleet struct {
	gw  *Gateway
	reg *Registry
	met *fleetMetrics
	ts  *httptest.Server
	clk *fakeClock
}

// newTestFleet wires a coordinator over the given worker URLs. The
// registry's probe loop is not started; health is driven by routing
// outcomes and explicit ProbeAll calls.
func newTestFleet(t *testing.T, urls []string, dcfg DispatcherConfig, gcfg GatewayConfig) *testFleet {
	t.Helper()
	clk := newFakeClock()
	clients := make([]*Client, len(urls))
	for i, u := range urls {
		clients[i] = NewClient(u, nil, clk, Backoff{Base: time.Millisecond, Attempts: 1}, int64(i))
	}
	reg, err := NewRegistry(clients, 64, RegistryConfig{}, clk)
	if err != nil {
		t.Fatal(err)
	}
	met := &fleetMetrics{}
	disp := NewDispatcher(reg, dcfg, clk, met)
	gw := NewGateway(disp, gcfg, clk, met)
	ts := httptest.NewServer(gw.Handler())
	t.Cleanup(ts.Close)
	return &testFleet{gw: gw, reg: reg, met: met, ts: ts, clk: clk}
}

func fleetTrace() server.TraceInput {
	return server.TraceInput{Inline: []core.Sequence{
		{1, 2, 3, 1, 2, 3, 4, 1, 2},
		{10, 11, 10, 12, 11, 10},
	}}
}

// fleetSweepRequest is a 16-cell grid; half its cells are elastic, with
// K halved at t=4 (K(t) >= 2 cores throughout).
func fleetSweepRequest() server.SweepRequest {
	return server.SweepRequest{
		Trace:      fleetTrace(),
		Ks:         []int{4, 8},
		Taus:       []int{0, 2},
		Capacities: []string{"", "step(to=50%,at=4)"},
		Strategies: []string{"S(LRU)", "S(FIFO)"},
		Seed:       7,
	}
}

func postJSON(t *testing.T, url string, v interface{}) *http.Response {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func readBody(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFleetSweepMatchesSingleNode is the tentpole acceptance check: a
// fleet sweep over three workers streams byte-identical JSONL to the
// same sweep on one standalone mcservd. The sweep names its trace
// inline, then as binary_b64, whose bodies the gateway and the workers
// decode on the request decoder's fast path; both name one set, so
// both stream the same bytes.
func TestFleetSweepMatchesSingleNode(t *testing.T) {
	var raw bytes.Buffer
	if err := trace.WriteBinary(&raw, core.RequestSet(fleetTrace().Inline)); err != nil {
		t.Fatal(err)
	}
	var want []byte
	for _, in := range []server.TraceInput{fleetTrace(), {BinaryB64: base64.StdEncoding.EncodeToString(raw.Bytes())}} {
		urls := []string{
			newWorker(t, "w1").URL,
			newWorker(t, "w2").URL,
			newWorker(t, "w3").URL,
		}
		f := newTestFleet(t, urls, DispatcherConfig{}, GatewayConfig{QuotaRate: -1})

		req := fleetSweepRequest()
		req.Trace = in
		fleetResp := postJSON(t, f.ts.URL+"/v1/sweep", req)
		if fleetResp.StatusCode != http.StatusOK {
			t.Fatalf("fleet sweep status %d: %s", fleetResp.StatusCode, readBody(t, fleetResp))
		}
		fleetBody := readBody(t, fleetResp)

		// Fresh standalone node: both sides compute every cell (no cache
		// hits), so the streams must agree byte for byte.
		direct := newWorker(t, "solo")
		directResp := postJSON(t, direct.URL+"/v1/sweep", req)
		if directResp.StatusCode != http.StatusOK {
			t.Fatalf("direct sweep status %d", directResp.StatusCode)
		}
		directBody := readBody(t, directResp)

		if !bytes.Equal(fleetBody, directBody) {
			t.Fatalf("fleet sweep diverges from single node:\nfleet:\n%s\ndirect:\n%s", fleetBody, directBody)
		}
		if f.met.cells.Load() != 16 || f.met.cellErrors.Load() != 0 {
			t.Fatalf("cells=%d errors=%d, want 16/0", f.met.cells.Load(), f.met.cellErrors.Load())
		}
		if want != nil && !bytes.Equal(fleetBody, want) {
			t.Fatalf("binary_b64 sweep diverges from the inline one:\nbinary:\n%s\ninline:\n%s", fleetBody, want)
		}
		want = fleetBody
	}
}

// TestFleetSweepReusesWorkerSpec runs a sweep over a workload spec
// through the fleet: the stream is byte-identical to a single node's,
// and each worker generates the spec for the first cell it gets and
// serves every later cell the set it kept.
func TestFleetSweepReusesWorkerSpec(t *testing.T) {
	workers := []*httptest.Server{newWorker(t, "w1"), newWorker(t, "w2")}
	f := newTestFleet(t, []string{workers[0].URL, workers[1].URL}, DispatcherConfig{}, GatewayConfig{QuotaRate: -1})

	req := fleetSweepRequest()
	req.Trace = server.TraceInput{Workload: &workload.Spec{Kind: workload.Zipf, Cores: 2, Length: 400, Pages: 16, Seed: 3}}
	fleetResp := postJSON(t, f.ts.URL+"/v1/sweep", req)
	if fleetResp.StatusCode != http.StatusOK {
		t.Fatalf("fleet sweep status %d: %s", fleetResp.StatusCode, readBody(t, fleetResp))
	}
	fleetBody := readBody(t, fleetResp)
	directBody := readBody(t, postJSON(t, newWorker(t, "solo").URL+"/v1/sweep", req))
	if !bytes.Equal(fleetBody, directBody) {
		t.Fatalf("fleet sweep diverges from single node:\nfleet:\n%s\ndirect:\n%s", fleetBody, directBody)
	}

	var resolves, reuses float64
	for _, w := range workers {
		resp, err := http.Get(w.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		m := parseMetrics(t, string(readBody(t, resp)))
		resolves += m["mcservd_trace_resolves_total"]
		reuses += m["mcservd_trace_reuses_total"]
	}
	if resolves < 1 || resolves > float64(len(workers)) || resolves+reuses != 16 {
		t.Fatalf("workers resolved %v and reused %v times for 16 cells; want one resolve per worker that got cells and the rest reused", resolves, reuses)
	}
}

// parseMetrics reads the unlabelled samples of a Prometheus text body.
func parseMetrics(t *testing.T, body string) map[string]float64 {
	t.Helper()
	samples := map[string]float64{}
	for _, line := range strings.Split(body, "\n") {
		if f := strings.Fields(line); len(f) == 2 && !strings.HasPrefix(line, "#") {
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			samples[f[0]] = v
		}
	}
	return samples
}

// TestFleetRejectsTraceCapacity pins the coordinator's network
// boundary: a tenant capacity spec naming a file on the coordinator
// or a worker (trace) is refused as a permanent 400 before any
// routing — only the portable schedule families travel the fleet.
func TestFleetRejectsTraceCapacity(t *testing.T) {
	f := newTestFleet(t, []string{newWorker(t, "w1").URL}, DispatcherConfig{}, GatewayConfig{QuotaRate: -1})
	job := server.JobRequest{
		Trace: fleetTrace(), Strategy: "S(LRU)", K: 8, Tau: 1,
		Capacity: "trace(path=/etc/hostname)", Seed: 1,
	}
	resp := postJSON(t, f.ts.URL+"/v1/jobs", job)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("job status %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "portable") {
		t.Fatalf("job rejection %q does not name the portable families", body)
	}

	sreq := fleetSweepRequest()
	sreq.Capacities = []string{"trace(path=/etc/hostname)"}
	resp = postJSON(t, f.ts.URL+"/v1/sweep", sreq)
	body = readBody(t, resp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("sweep status %d: %s", resp.StatusCode, body)
	}
	if f.met.jobs.Load() != 0 || f.met.sweeps.Load() != 0 {
		t.Fatalf("rejected requests were routed: jobs=%d sweeps=%d", f.met.jobs.Load(), f.met.sweeps.Load())
	}
}

// TestFleetRejectsUnusableZipf: the gateway resolves a job before it
// routes it, so zipf parameters that made generation panic took the
// gateway's handler down with the client reading EOF. They are a 400
// now, and nothing is routed.
func TestFleetRejectsUnusableZipf(t *testing.T) {
	f := newTestFleet(t, []string{newWorker(t, "w1").URL}, DispatcherConfig{}, GatewayConfig{QuotaRate: -1})
	body := `{"trace":{"workload":{"cores":2,"length":1000,"pages":64,"kind":"zipf","zipf_v":1e15,"seed":1}},"strategy":"S(LRU)","k":8,"tau":1}`
	resp, err := http.Post(f.ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	msg := readBody(t, resp)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "numerically unusable") {
		t.Fatalf("status %d, body %q; want 400 naming the unusable parameters", resp.StatusCode, msg)
	}
	if f.met.jobs.Load() != 0 {
		t.Fatalf("a rejected job was routed: jobs=%d", f.met.jobs.Load())
	}
}

// TestFleetUnrunnableJobsAre4xx: a job that names no valid run (K
// below its core count, K(t) below its active cores, a strategy that
// cannot shed cells under K(t)) failed on its worker as a 500, which
// the dispatcher read as a dead worker: one such job through a
// two-worker gateway left both workers down. The gateway now refuses
// the first two, and a workload spec too costly to generate, with a 400
// naming the bound before routing; the worker answers the third with a
// 422, passed through. The client gets a 4xx every time, and every
// worker stays healthy.
func TestFleetUnrunnableJobsAre4xx(t *testing.T) {
	urls := []string{newWorker(t, "w1").URL, newWorker(t, "w2").URL}
	f := newTestFleet(t, urls, DispatcherConfig{}, GatewayConfig{QuotaRate: -1})
	zipf4 := server.TraceInput{Workload: &workload.Spec{Kind: workload.Zipf, Cores: 4, Length: 200, Pages: 32, Seed: 1}}
	costly := server.TraceInput{Workload: &workload.Spec{Kind: workload.Zipf, Cores: 1 << 20, Pages: 65535}}
	for _, tc := range []struct {
		path   string
		body   interface{}
		code   int
		want   string
		routed bool
	}{
		{"/v1/jobs", server.JobRequest{Trace: zipf4, Strategy: "dP[fair](LRU)", K: 3, Tau: 1},
			http.StatusBadRequest, "K=3 below core count 4", false},
		{"/v1/jobs", server.JobRequest{Trace: zipf4, Strategy: "eP[even](LRU)", K: 8, Tau: 1, Capacity: "step(to=25%,at=10)"},
			http.StatusBadRequest, "reaches 2 cells, below 4 active cores", false},
		{"/v1/sweep", server.SweepRequest{Trace: zipf4, Ks: []int{8}, Taus: []int{1}, Strategies: []string{"S(LRU)"},
			Capacities: []string{"step(to=25%,at=10)"}}, http.StatusBadRequest, "below 4 active cores", false},
		{"/v1/jobs", server.JobRequest{Trace: costly, Strategy: "S(LRU)", K: 1 << 20},
			http.StatusBadRequest, "per-job budget", false},
		{"/v1/jobs", server.JobRequest{Trace: zipf4, Strategy: "S(FWF)", K: 8, Tau: 1, Capacity: "step(to=50%,at=10)"},
			http.StatusUnprocessableEntity, "does not support time-varying capacity", true},
	} {
		routed := f.met.jobs.Load()
		resp := postJSON(t, f.ts.URL+tc.path, tc.body)
		body := readBody(t, resp)
		if resp.StatusCode != tc.code || !strings.Contains(string(body), tc.want) {
			t.Fatalf("%s: status %d, body %q; want %d naming %q", tc.path, resp.StatusCode, body, tc.code, tc.want)
		}
		if got := f.met.jobs.Load() > routed; got != tc.routed {
			t.Fatalf("%s %q: routed %v, want %v", tc.path, tc.want, got, tc.routed)
		}
	}
	for _, w := range f.reg.Snapshot() {
		if w.Status != StatusHealthy.String() {
			t.Fatalf("worker %s is %s after 4xx answers", w.ID, w.Status)
		}
	}
}

// TestFleetSweepCacheAffinity reruns a sweep and expects every cell to
// be a cache hit: consistent-hash routing sent each key back to the
// worker that computed it, so the per-worker caches act as one
// distributed cache.
func TestFleetSweepCacheAffinity(t *testing.T) {
	urls := []string{newWorker(t, "w1").URL, newWorker(t, "w2").URL, newWorker(t, "w3").URL}
	f := newTestFleet(t, urls, DispatcherConfig{}, GatewayConfig{QuotaRate: -1})

	req := fleetSweepRequest()
	first := readBody(t, postJSON(t, f.ts.URL+"/v1/sweep", req))
	second := readBody(t, postJSON(t, f.ts.URL+"/v1/sweep", req))

	var firstLines, secondLines []server.SweepLine
	for _, raw := range bytes.Split(bytes.TrimSpace(first), []byte("\n")) {
		var l server.SweepLine
		if err := json.Unmarshal(raw, &l); err != nil {
			t.Fatal(err)
		}
		firstLines = append(firstLines, l)
	}
	for _, raw := range bytes.Split(bytes.TrimSpace(second), []byte("\n")) {
		var l server.SweepLine
		if err := json.Unmarshal(raw, &l); err != nil {
			t.Fatal(err)
		}
		secondLines = append(secondLines, l)
	}
	if len(firstLines) != 16 || len(secondLines) != 16 {
		t.Fatalf("got %d + %d lines, want 16 + 16", len(firstLines), len(secondLines))
	}
	for i, l := range secondLines {
		if !l.Cached {
			t.Errorf("rerun cell %d (%s) missed the distributed cache", i, l.Key)
		}
		if l.Key != firstLines[i].Key {
			t.Errorf("cell %d key changed between runs", i)
		}
	}

	// A job naming an elastic sweep cell resolves to the same run: same
	// key, routed to the worker that cached it.
	cell := firstLines[len(firstLines)-1]
	if cell.Capacity == "" {
		t.Fatalf("last line %+v is not an elastic cell", cell)
	}
	job := server.JobRequest{Trace: req.Trace, Strategy: cell.Spec, K: cell.K, Tau: cell.Tau,
		Capacity: cell.Capacity, Seed: req.Seed}
	var out server.JobResponse
	if err := json.Unmarshal(readBody(t, postJSON(t, f.ts.URL+"/v1/jobs", job)), &out); err != nil {
		t.Fatal(err)
	}
	if !out.Cached || out.Key != cell.Key {
		t.Fatalf("elastic job: cached=%v key %s, want the sweep cell's cached entry %s", out.Cached, out.Key, cell.Key)
	}
}

// TestFleetFailoverOnDeadWorker routes a sweep through a fleet whose
// ring includes a dead member: every cell must still complete exactly
// once, in canonical order, via ring successors. Member IDs are URLs,
// so the dead member's ring position follows its random port; the
// test redraws the dead address until it owns at least one cell, or
// the failover it asserts on would never be exercised.
func TestFleetFailoverOnDeadWorker(t *testing.T) {
	req := fleetSweepRequest()
	cells, err := req.Resolve(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, len(cells))
	for i, c := range cells {
		keys[i] = server.JobKey(c.R, c.Spec, c.Params, c.Seed)
	}

	w1, w2 := newWorker(t, "w1").URL, newWorker(t, "w2").URL
	const maxDraws = 32
	var f *testFleet
	for draw := 0; f == nil; draw++ {
		if draw == maxDraws {
			t.Fatalf("no dead address owned a cell in %d draws", maxDraws)
		}
		dead := httptest.NewServer(http.NotFoundHandler())
		deadURL := dead.URL
		dead.Close() // connection refused from the first dial
		cand := newTestFleet(t, []string{w1, w2, deadURL}, DispatcherConfig{}, GatewayConfig{QuotaRate: -1})
		for _, k := range keys {
			if cand.reg.Ring().Lookup(k) == deadURL {
				f = cand
				break
			}
		}
	}

	resp := postJSON(t, f.ts.URL+"/v1/sweep", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d", resp.StatusCode)
	}
	body := readBody(t, resp)

	lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
	if len(lines) != len(cells) {
		t.Fatalf("got %d lines, want %d (no dropped or duplicated cells)", len(lines), len(cells))
	}
	seen := map[string]bool{}
	for i, raw := range lines {
		var l server.SweepLine
		if err := json.Unmarshal(raw, &l); err != nil {
			t.Fatal(err)
		}
		c := cells[i]
		if (sweep.Cell{K: l.K, Tau: l.Tau, Capacity: l.Capacity, Spec: l.Spec}) != c.Cell || l.Key != keys[i] {
			t.Fatalf("line %d is %+v, want canonical %+v keyed %s", i, l, c.Cell, keys[i])
		}
		if l.Error != "" || l.Result == nil {
			t.Fatalf("cell %d failed despite failover: %s", i, l.Error)
		}
		if seen[l.Key] {
			t.Fatalf("cell key %s served twice", l.Key)
		}
		seen[l.Key] = true
	}
	if f.met.failovers.Load() == 0 {
		t.Fatal("expected at least one recorded failover against the dead worker")
	}
}

// newWrongKeyWorker starts a worker that answers every job with a
// well-formed response for a fixed, wrong key and a recognisable bogus
// result.
func newWrongKeyWorker(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(server.JobResponse{Key: strings.Repeat("0", 64),
			Result: server.Result{Strategy: "bogus", Makespan: -1}})
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestFleetFailoverOnWrongKeyWorker routes a sweep through a fleet with
// a worker that answers for the wrong key: the gateway must treat it as
// a worker fault, fail over, and never emit its result. With only such
// workers, every cell must report an error instead. The bad worker's
// ring position follows its random port, so its address is redrawn
// until it owns at least one cell.
func TestFleetFailoverOnWrongKeyWorker(t *testing.T) {
	req := fleetSweepRequest()
	cells, err := req.Resolve(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, len(cells))
	for i, c := range cells {
		keys[i] = server.JobKey(c.R, c.Spec, c.Params, c.Seed)
	}
	sweepLines := func(t *testing.T, f *testFleet) []server.SweepLine {
		t.Helper()
		resp := postJSON(t, f.ts.URL+"/v1/sweep", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("sweep status %d", resp.StatusCode)
		}
		body := readBody(t, resp)
		raw := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
		if len(raw) != len(cells) {
			t.Fatalf("got %d lines, want %d", len(raw), len(cells))
		}
		lines := make([]server.SweepLine, len(raw))
		for i := range raw {
			if err := json.Unmarshal(raw[i], &lines[i]); err != nil {
				t.Fatal(err)
			}
			if lines[i].Key != keys[i] {
				t.Fatalf("line %d keyed %s, want %s", i, lines[i].Key, keys[i])
			}
			if r := lines[i].Result; r != nil && r.Strategy == "bogus" {
				t.Fatalf("line %d carries the wrong-key worker's result", i)
			}
		}
		return lines
	}

	t.Run("failover", func(t *testing.T) {
		w1, w2 := newWorker(t, "w1").URL, newWorker(t, "w2").URL
		const maxDraws = 32
		var f *testFleet
		for draw := 0; f == nil; draw++ {
			if draw == maxDraws {
				t.Fatalf("no wrong-key worker owned a cell in %d draws", maxDraws)
			}
			bad := newWrongKeyWorker(t).URL
			cand := newTestFleet(t, []string{w1, w2, bad}, DispatcherConfig{}, GatewayConfig{QuotaRate: -1})
			for _, k := range keys {
				if cand.reg.Ring().Lookup(k) == bad {
					f = cand
					break
				}
			}
		}
		for i, l := range sweepLines(t, f) {
			if l.Error != "" || l.Result == nil {
				t.Fatalf("cell %d failed despite failover: %s", i, l.Error)
			}
		}
		if f.met.failovers.Load() == 0 {
			t.Fatal("expected at least one recorded failover against the wrong-key worker")
		}
	})

	t.Run("only bad workers", func(t *testing.T) {
		f := newTestFleet(t, []string{newWrongKeyWorker(t).URL, newWrongKeyWorker(t).URL},
			DispatcherConfig{}, GatewayConfig{QuotaRate: -1})
		for i, l := range sweepLines(t, f) {
			if l.Error == "" || l.Result != nil {
				t.Fatalf("cell %d: want an error and no result, got %+v", i, l)
			}
		}
	})
}

// TestGatewayJobRouting posts a single job through the gateway and
// checks passthrough, worker attribution, and cache affinity.
func TestGatewayJobRouting(t *testing.T) {
	urls := []string{newWorker(t, "w1").URL, newWorker(t, "w2").URL}
	f := newTestFleet(t, urls, DispatcherConfig{}, GatewayConfig{QuotaRate: -1})

	job := server.JobRequest{Trace: fleetTrace(), Strategy: "S(LRU)", K: 4, Tau: 1}
	resp := postJSON(t, f.ts.URL+"/v1/jobs", job)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("job status %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Fleet-Worker-ID") == "" {
		t.Fatal("gateway response missing Fleet-Worker-ID")
	}
	var out server.JobResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Cached || out.Key == "" {
		t.Fatalf("first run: cached=%v key=%q", out.Cached, out.Key)
	}

	resp2 := postJSON(t, f.ts.URL+"/v1/jobs", job)
	var out2 server.JobResponse
	if err := json.Unmarshal(readBody(t, resp2), &out2); err != nil {
		t.Fatal(err)
	}
	if !out2.Cached || out2.Key != out.Key {
		t.Fatalf("rerun: cached=%v (want true), key %q vs %q", out2.Cached, out2.Key, out.Key)
	}
}

func TestGatewayPermanentErrorPassthrough(t *testing.T) {
	f := newTestFleet(t, []string{newWorker(t, "w1").URL}, DispatcherConfig{}, GatewayConfig{QuotaRate: -1})
	job := server.JobRequest{Trace: fleetTrace(), Strategy: "S(NOPE)", K: 4}
	resp := postJSON(t, f.ts.URL+"/v1/jobs", job)
	if body := readBody(t, resp); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d (%s), want 422 passed through from the worker", resp.StatusCode, body)
	}
}

func TestGatewayQuota(t *testing.T) {
	f := newTestFleet(t, []string{newWorker(t, "w1").URL}, DispatcherConfig{},
		GatewayConfig{QuotaRate: 1, QuotaBurst: 2})
	job := server.JobRequest{Trace: fleetTrace(), Strategy: "S(LRU)", K: 4, Tau: 1}

	for i := 0; i < 2; i++ {
		resp := postJSON(t, f.ts.URL+"/v1/jobs", job)
		if body := readBody(t, resp); resp.StatusCode != http.StatusOK {
			t.Fatalf("burst job %d: status %d (%s)", i, resp.StatusCode, body)
		}
	}
	resp := postJSON(t, f.ts.URL+"/v1/jobs", job)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota status %d (%s), want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("quota refusal missing Retry-After")
	}
	if !strings.Contains(string(body), "over quota") {
		t.Fatalf("unexpected refusal body: %s", body)
	}
	if f.met.quotaDenied.Load() != 1 {
		t.Fatalf("quotaDenied = %d, want 1", f.met.quotaDenied.Load())
	}

	// The bucket refills at QuotaRate once the clock moves.
	f.clk.advance(2 * time.Second)
	resp = postJSON(t, f.ts.URL+"/v1/jobs", job)
	if body := readBody(t, resp); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-refill status %d (%s)", resp.StatusCode, body)
	}

	// A second tenant has its own bucket.
	reqBody, _ := json.Marshal(job)
	hreq, _ := http.NewRequest(http.MethodPost, f.ts.URL+"/v1/jobs", bytes.NewReader(reqBody))
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(tenantHeader, "team-b")
	hresp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	if body := readBody(t, hresp); hresp.StatusCode != http.StatusOK {
		t.Fatalf("fresh tenant status %d (%s)", hresp.StatusCode, body)
	}
}

func TestGatewaySheddingUnderSaturation(t *testing.T) {
	f := newTestFleet(t, []string{newWorker(t, "w1").URL}, DispatcherConfig{},
		GatewayConfig{QuotaRate: -1, ShedInflight: 2})
	f.met.cellsInflight.Add(2) // simulate a saturated fleet
	defer f.met.cellsInflight.Add(-2)

	job := server.JobRequest{Trace: fleetTrace(), Strategy: "S(LRU)", K: 4}
	resp := postJSON(t, f.ts.URL+"/v1/jobs", job)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusTooManyRequests || !strings.Contains(string(body), "saturated") {
		t.Fatalf("status %d (%s), want shed 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	if f.met.shed.Load() != 1 {
		t.Fatalf("shed = %d, want 1", f.met.shed.Load())
	}
}

func TestGatewayDrain(t *testing.T) {
	f := newTestFleet(t, []string{newWorker(t, "w1").URL}, DispatcherConfig{}, GatewayConfig{QuotaRate: -1})
	f.gw.Drain()

	resp, err := http.Get(f.ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	readBody(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("draining /readyz: status %d, Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}

	job := server.JobRequest{Trace: fleetTrace(), Strategy: "S(LRU)", K: 4}
	jresp := postJSON(t, f.ts.URL+"/v1/jobs", job)
	readBody(t, jresp)
	if jresp.StatusCode != http.StatusServiceUnavailable || jresp.Header.Get("Retry-After") == "" {
		t.Fatalf("draining job: status %d, Retry-After %q", jresp.StatusCode, jresp.Header.Get("Retry-After"))
	}
}

func TestGatewayObservabilityEndpoints(t *testing.T) {
	f := newTestFleet(t, []string{newWorker(t, "w1").URL, newWorker(t, "w2").URL},
		DispatcherConfig{}, GatewayConfig{QuotaRate: -1})
	readBody(t, postJSON(t, f.ts.URL+"/v1/jobs",
		server.JobRequest{Trace: fleetTrace(), Strategy: "S(LRU)", K: 4}))

	resp, err := http.Get(f.ts.URL + "/v1/workers")
	if err != nil {
		t.Fatal(err)
	}
	var workers struct {
		Ring    []string     `json:"ring"`
		Workers []WorkerInfo `json:"workers"`
	}
	if err := json.Unmarshal(readBody(t, resp), &workers); err != nil {
		t.Fatal(err)
	}
	if len(workers.Ring) != 2 || len(workers.Workers) != 2 {
		t.Fatalf("workers endpoint: %d ring members, %d workers", len(workers.Ring), len(workers.Workers))
	}

	mresp, err := http.Get(f.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(readBody(t, mresp))
	for _, want := range []string{"mcfleet_jobs_total 1", "mcfleet_worker_up{worker=", "mcfleet_ready 1"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	sresp, err := http.Get(f.ts.URL + "/strategies")
	if err != nil {
		t.Fatal(err)
	}
	if body := readBody(t, sresp); sresp.StatusCode != http.StatusOK || !strings.Contains(string(body), "strategies") {
		t.Fatalf("strategies proxy: status %d body %s", sresp.StatusCode, body)
	}
}

// TestWorkerDefaultQueueHoldsDispatcherInflight ties the two defaults
// together: a one-thread mcservd at its default queue depth must hold
// the dispatcher's default per-worker inflight bound (one cell running,
// the rest queued). Otherwise the surplus cell gets 429 with
// Retry-After: 1 and the fleet client sleeps a whole second.
func TestWorkerDefaultQueueHoldsDispatcherInflight(t *testing.T) {
	s := server.New(server.Config{Workers: 1})
	defer s.Drain()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	gauges := parseMetrics(t, rec.Body.String())
	holds := gauges["mcservd_workers"] + gauges["mcservd_queue_capacity"]
	want := DispatcherConfig{}.withDefaults(1).WorkerInflight
	if holds < float64(want) {
		t.Fatalf("a default one-thread worker holds %v jobs (workers + queue), want >= %d (default WorkerInflight)", holds, want)
	}
}
