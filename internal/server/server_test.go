package server

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"mcpaging/internal/core"
	"mcpaging/internal/sim"
	"mcpaging/internal/strategyspec"
	"mcpaging/internal/sweep"
	"mcpaging/internal/workload"
)

// testTrace is a small two-core request set used across tests.
func testTrace() []core.Sequence {
	return []core.Sequence{
		{1, 2, 3, 1, 2, 3, 4, 1, 2},
		{10, 11, 10, 12, 11, 10},
	}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Drain()
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body interface{}) *http.Response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeJob(t *testing.T, resp *http.Response) (JobResponse, json.RawMessage) {
	t.Helper()
	defer resp.Body.Close()
	var env struct {
		Key       string          `json:"key"`
		Cached    bool            `json:"cached"`
		ElapsedMS float64         `json:"elapsed_ms"`
		Result    json.RawMessage `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	var res Result
	if err := json.Unmarshal(env.Result, &res); err != nil {
		t.Fatal(err)
	}
	return JobResponse{Key: env.Key, Cached: env.Cached, ElapsedMS: env.ElapsedMS, Result: res}, env.Result
}

// scrapeMetric fetches /metrics and returns the value of an unlabelled
// metric by name.
func scrapeMetric(t *testing.T, baseURL, name string) float64 {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, name+" ") {
			v, err := strconv.ParseFloat(strings.TrimPrefix(line, name+" "), 64)
			if err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found", name)
	return 0
}

func TestJobRoundTripMatchesDirectRun(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	req := JobRequest{
		Trace:    TraceInput{Inline: testTrace()},
		Strategy: "S(LRU)",
		K:        4,
		Tau:      2,
		Seed:     1,
	}
	resp := postJSON(t, ts.URL+"/v1/jobs", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	env, raw := decodeJob(t, resp)
	if env.Cached {
		t.Fatal("first run reported cached")
	}

	// The served result must be byte-identical to a direct sim.Run of
	// the same instance through the same DTO.
	rs := core.RequestSet(testTrace())
	st, err := strategyspec.Build(req.Strategy, rs, req.K, req.Seed)
	if err != nil {
		t.Fatal(err)
	}
	in := core.Instance{R: rs, P: core.Params{K: req.K, Tau: req.Tau}}
	direct, err := sim.Run(in, st, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(resultFrom(st.Name(), rs.TotalLen(), direct))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(raw), bytes.TrimSpace(want)) {
		t.Fatalf("served result diverges from direct run:\n got %s\nwant %s", raw, want)
	}
	if env.Result.TotalFaults != direct.TotalFaults() {
		t.Fatalf("faults %d, want %d", env.Result.TotalFaults, direct.TotalFaults())
	}
}

func TestIdenticalJobHitsResultCache(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	req := JobRequest{
		Trace:    TraceInput{Inline: testTrace()},
		Strategy: "S(FIFO)",
		K:        3,
		Tau:      1,
	}
	first, _ := decodeJob(t, postJSON(t, ts.URL+"/v1/jobs", req))
	if first.Cached {
		t.Fatal("first POST reported cached")
	}
	second, _ := decodeJob(t, postJSON(t, ts.URL+"/v1/jobs", req))
	if !second.Cached {
		t.Fatal("identical re-POST was not a cache hit")
	}
	if second.Key != first.Key {
		t.Fatalf("keys diverge: %s vs %s", second.Key, first.Key)
	}
	if second.Result.TotalFaults != first.Result.TotalFaults {
		t.Fatal("cached result diverges")
	}
	// Verified via the metrics counters: one hit, one completion (the
	// hit never reached the pool).
	if v := scrapeMetric(t, ts.URL, "mcservd_cache_hits_total"); v != 1 {
		t.Fatalf("cache hits = %v, want 1", v)
	}
	if v := scrapeMetric(t, ts.URL, "mcservd_jobs_completed_total"); v != 1 {
		t.Fatalf("completed = %v, want 1", v)
	}
}

func TestCacheDisabled(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, CacheEntries: -1})
	req := JobRequest{Trace: TraceInput{Inline: testTrace()}, Strategy: "S(LRU)", K: 4, Tau: 0}
	a, _ := decodeJob(t, postJSON(t, ts.URL+"/v1/jobs", req))
	b, _ := decodeJob(t, postJSON(t, ts.URL+"/v1/jobs", req))
	if a.Cached || b.Cached {
		t.Fatal("cache disabled but a response reported cached")
	}
}

// TestTraceCapacityRejectedOverHTTP pins the network boundary: a
// client-supplied capacity spec may use the portable families, but
// trace(path=...) names a file on the server — accepting it would let
// a remote client probe and (through parse errors) read host files —
// so both endpoints refuse it with 400 before touching the path.
func TestTraceCapacityRejectedOverHTTP(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sched.txt")
	if err := os.WriteFile(path, []byte("0 100%\n5 4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Workers: 1})
	spec := "trace(path=" + path + ")"

	resp := postJSON(t, ts.URL+"/v1/jobs", JobRequest{
		Trace: TraceInput{Inline: testTrace()}, Strategy: "S(LRU)", K: 8, Tau: 1, Capacity: spec,
	})
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("job with trace capacity: status %d, want 400", resp.StatusCode)
	}
	if !strings.Contains(string(body), "portable") {
		t.Fatalf("job rejection body %q does not name the portable families", body)
	}

	resp = postJSON(t, ts.URL+"/v1/sweep", SweepRequest{
		Trace: TraceInput{Inline: testTrace()}, Ks: []int{8}, Taus: []int{1},
		Capacities: []string{spec}, Strategies: []string{"S(LRU)"},
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("sweep with trace capacity: status %d, want 400", resp.StatusCode)
	}

	// A portable spec on the same job is accepted end to end.
	resp = postJSON(t, ts.URL+"/v1/jobs", JobRequest{
		Trace: TraceInput{Inline: testTrace()}, Strategy: "S(LRU)", K: 8, Tau: 1,
		Capacity: "step(to=50%,at=4)",
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("job with portable capacity: status %d, want 200", resp.StatusCode)
	}
}

func TestQueueFullReturns429(t *testing.T) {
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	s, ts := newTestServer(t, Config{
		Workers:        1,
		QueueDepth:     1,
		testJobStarted: started,
		testJobRelease: release,
	})
	defer close(release)

	jobReq := func(tau int) JobRequest {
		return JobRequest{Trace: TraceInput{Inline: testTrace()}, Strategy: "S(LRU)", K: 4, Tau: tau}
	}
	type posted struct {
		resp *http.Response
		err  error
	}
	a := make(chan posted, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(mustJSON(t, jobReq(0))))
		a <- posted{resp, err}
	}()
	<-started // worker holds job A; queue is empty

	b := make(chan posted, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(mustJSON(t, jobReq(1))))
		b <- posted{resp, err}
	}()
	waitFor(t, func() bool { return s.metrics.accepted.Load() == 2 }) // B sits in the queue

	resp := postJSON(t, ts.URL+"/v1/jobs", jobReq(2))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After")
	}
	if v := s.metrics.rejected.Load(); v != 1 {
		t.Fatalf("rejected = %d, want 1", v)
	}

	// Unblock the pool; both held jobs must complete normally.
	release <- struct{}{}
	release <- struct{}{}
	for _, ch := range []chan posted{a, b} {
		p := <-ch
		if p.err != nil {
			t.Fatal(p.err)
		}
		if p.resp.StatusCode != http.StatusOK {
			t.Fatalf("held job finished with %d", p.resp.StatusCode)
		}
		p.resp.Body.Close()
	}
}

func TestJobTimeoutAbortsAndWorkerIsReclaimed(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	slow := JobRequest{
		Trace: TraceInput{Workload: &workload.Spec{
			Cores: 1, Length: 2_000_000, Pages: 1 << 15, Kind: workload.Uniform, Seed: 7,
		}},
		Strategy:  "S(LRU)",
		K:         64,
		Tau:       4,
		TimeoutMS: 1,
	}
	resp := postJSON(t, ts.URL+"/v1/jobs", slow)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	if v := s.metrics.timeouts.Load(); v != 1 {
		t.Fatalf("timeouts = %d, want 1", v)
	}
	// The worker must be reclaimed: a small follow-up job succeeds.
	ok := JobRequest{Trace: TraceInput{Inline: testTrace()}, Strategy: "S(LRU)", K: 4, Tau: 1}
	resp2 := postJSON(t, ts.URL+"/v1/jobs", ok)
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("follow-up job status %d, want 200", resp2.StatusCode)
	}
}

func TestGracefulDrainFinishesInFlightJobs(t *testing.T) {
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	s, ts := newTestServer(t, Config{
		Workers:        1,
		QueueDepth:     2,
		testJobStarted: started,
		testJobRelease: release,
	})
	req := JobRequest{Trace: TraceInput{Inline: testTrace()}, Strategy: "S(LRU)", K: 4, Tau: 1}
	got := make(chan *http.Response, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(mustJSON(t, req)))
		if err != nil {
			t.Error(err)
			got <- nil
			return
		}
		got <- resp
	}()
	<-started // the job is in flight on the worker

	drained := make(chan struct{})
	go func() { s.Drain(); close(drained) }()
	waitFor(t, func() bool { return !s.ready() })

	// While draining: readiness off, new submissions refused.
	rz, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	rz.Body.Close()
	if rz.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz during drain: %d, want 503", rz.StatusCode)
	}
	refused := postJSON(t, ts.URL+"/v1/jobs", req)
	refused.Body.Close()
	if refused.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submission during drain: %d, want 503", refused.StatusCode)
	}

	// The in-flight job still completes successfully.
	close(release)
	resp := <-got
	if resp == nil {
		t.Fatal("in-flight job failed")
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("in-flight job finished with %d, want 200", resp.StatusCode)
	}
	env, _ := decodeJob(t, resp)
	if env.Result.TotalFaults == 0 {
		t.Fatal("drained job returned an empty result")
	}
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		t.Fatal("Drain did not return")
	}
}

func TestSweepStreamsJSONLInGridOrder(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	req := SweepRequest{
		Trace: TraceInput{Inline: testTrace()},
		Ks:    []int{4, 8},
		Taus:  []int{0, 2},
		// The elastic cells halve K at t=4: K(t) >= 2 cores throughout.
		Capacities: []string{"", "step(to=50%,at=4)"},
		Strategies: []string{"S(LRU)", "S(FIFO)"},
		Seed:       1,
	}
	resp := postJSON(t, ts.URL+"/v1/sweep", req)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	var lines []SweepLine
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ln SweepLine
		if err := json.Unmarshal(sc.Bytes(), &ln); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		lines = append(lines, ln)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	want, err := sweep.Run(sweep.Grid{
		R: core.RequestSet(testTrace()), Ks: req.Ks, Taus: req.Taus, Capacities: req.Capacities,
		Specs: req.Strategies, Seed: req.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != len(want) {
		t.Fatalf("%d lines, want %d", len(lines), len(want))
	}
	for i, ln := range lines {
		if ln.Error != "" {
			t.Fatalf("line %d error: %s", i, ln.Error)
		}
		if ln.K != want[i].K || ln.Tau != want[i].Tau || ln.Capacity != want[i].Capacity || ln.Spec != want[i].Spec {
			t.Fatalf("line %d out of grid order: %+v vs %+v", i, ln, want[i])
		}
		if ln.Result == nil || ln.Result.TotalFaults != want[i].Faults ||
			ln.Result.CapacityEvictions != want[i].CapacityEvictions {
			t.Fatalf("line %d diverges from sweep.Run: %+v vs %+v", i, ln.Result, want[i])
		}
	}

	// A job naming an elastic sweep cell resolves to the same run: same
	// key, served from the entry the sweep cached.
	cell := lines[len(lines)-1]
	if cell.Capacity == "" {
		t.Fatalf("last line %+v is not an elastic cell", cell)
	}
	jreq := JobRequest{Trace: req.Trace, Strategy: cell.Spec, K: cell.K, Tau: cell.Tau,
		Capacity: cell.Capacity, Seed: req.Seed}
	jr, _ := decodeJob(t, postJSON(t, ts.URL+"/v1/jobs", jreq))
	if !jr.Cached || jr.Key != cell.Key {
		t.Fatalf("elastic job: cached=%v key %s, want the sweep cell's cached entry %s", jr.Cached, jr.Key, cell.Key)
	}

	// The whole grid is now cached: a re-POST streams only hits.
	resp2 := postJSON(t, ts.URL+"/v1/sweep", req)
	defer resp2.Body.Close()
	sc = bufio.NewScanner(resp2.Body)
	n := 0
	for sc.Scan() {
		var ln SweepLine
		if err := json.Unmarshal(sc.Bytes(), &ln); err != nil {
			t.Fatal(err)
		}
		if !ln.Cached {
			t.Fatalf("line %d not cached on re-sweep", n)
		}
		n++
	}
	if n != len(want) {
		t.Fatalf("re-sweep streamed %d lines, want %d", n, len(want))
	}
}

func TestStrategiesEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/strategies")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Strategies []strategyspec.Combo `json:"strategies"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	want := strategyspec.List()
	if len(body.Strategies) != len(want) {
		t.Fatalf("%d strategies, want %d", len(body.Strategies), len(want))
	}
	if body.Strategies[0] != want[0] {
		t.Fatalf("first combo %+v, want %+v", body.Strategies[0], want[0])
	}
}

// promLine matches one sample line of Prometheus text format 0.0.4.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [-+0-9.eE]+$|^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (NaN|[+-]Inf)$`)

func TestMetricsExposesServerCountersAndTelemetry(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	// Complete one job so the telemetry snapshot exists.
	resp := postJSON(t, ts.URL+"/v1/jobs", JobRequest{
		Trace: TraceInput{Inline: testTrace()}, Strategy: "S(LRU)", K: 4, Tau: 2,
	})
	resp.Body.Close()

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if ct := mresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	var buf bytes.Buffer
	sc := bufio.NewScanner(mresp.Body)
	seen := map[string]bool{}
	for sc.Scan() {
		line := sc.Text()
		buf.WriteString(line + "\n")
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Fatalf("invalid Prometheus sample line: %q", line)
		}
		seen[strings.FieldsFunc(line, func(r rune) bool { return r == '{' || r == ' ' })[0]] = true
	}
	for _, name := range []string{
		"mcservd_jobs_accepted_total",
		"mcservd_jobs_rejected_total",
		"mcservd_jobs_completed_total",
		"mcservd_cache_hits_total",
		"mcservd_cache_misses_total",
		"mcservd_queue_depth",
		"mcservd_job_latency_seconds",
		"mcservd_job_latency_seconds_sum",
		"mcservd_job_latency_seconds_count",
		// The telemetry snapshot of the completed run.
		"mcpaging_requests_total",
		"mcpaging_faults_total",
		"mcpaging_makespan",
	} {
		if !seen[name] {
			t.Fatalf("metric %s missing from scrape:\n%s", name, buf.String())
		}
	}
}

func TestJobValidationErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := []struct {
		name string
		req  JobRequest
		code int
	}{
		{"no trace", JobRequest{Strategy: "S(LRU)", K: 4}, http.StatusBadRequest},
		{"two trace modes", JobRequest{
			Trace:    TraceInput{Inline: testTrace(), BinaryB64: "AAAA"},
			Strategy: "S(LRU)", K: 4,
		}, http.StatusBadRequest},
		{"missing strategy", JobRequest{Trace: TraceInput{Inline: testTrace()}, K: 4}, http.StatusBadRequest},
		{"bad params", JobRequest{Trace: TraceInput{Inline: testTrace()}, Strategy: "S(LRU)", K: 0}, http.StatusBadRequest},
		{"unknown policy", JobRequest{Trace: TraceInput{Inline: testTrace()}, Strategy: "S(NOPE)", K: 4}, http.StatusUnprocessableEntity},
		{"malformed spec", JobRequest{Trace: TraceInput{Inline: testTrace()}, Strategy: "garbage", K: 4}, http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		resp := postJSON(t, ts.URL+"/v1/jobs", tc.req)
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.code)
		}
	}
}

// TestUnusableZipfIs400: with "zipf_v": 1e15 the Zipf generator drew a
// rank outside the page range and the handler panicked on the index, so
// the client read EOF with no status. Generation now fails with an error
// the handlers report as a 400, for jobs and sweeps alike.
func TestUnusableZipfIs400(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	const trace = `{"workload":{"cores":2,"length":1000,"pages":64,"kind":"zipf","zipf_v":1e15,"seed":1}}`
	for path, body := range map[string]string{
		"/v1/jobs":  `{"trace":` + trace + `,"strategy":"S(LRU)","k":8,"tau":1}`,
		"/v1/sweep": `{"trace":` + trace + `,"strategies":["S(LRU)"],"ks":[8],"taus":[1]}`,
	} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "numerically unusable") {
			t.Fatalf("%s: status %d, body %q; want 400 naming the unusable parameters", path, resp.StatusCode, msg)
		}
	}
}

// TestBinaryTraceBudgetCheckedWhileDecoding pins that a binary trace is
// charged against the per-job budget before its sequences are
// allocated: a header declaring one core of 2^28 requests with no pages
// behind it must not cost the 1 GiB that sequence would take.
func TestBinaryTraceBudgetCheckedWhileDecoding(t *testing.T) {
	b64 := func(cores uint64, length uint64, pages ...int64) TraceInput {
		raw := append([]byte("MCPT\x01"), binary.AppendUvarint(nil, cores)...)
		raw = binary.AppendUvarint(raw, length)
		for _, pg := range pages {
			raw = binary.AppendVarint(raw, pg)
		}
		return TraceInput{BinaryB64: base64.StdEncoding.EncodeToString(raw)}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := b64(1, 1<<28).Resolve(8 << 20)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "exceeds the per-job budget") {
		t.Fatalf("err = %v, want the per-job budget error", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Fatalf("rejecting the trace allocated %d bytes, want < 1 MiB", n)
	}
	// Within budget, a trace cut short names the field it came from and
	// reads as truncated, not as a core that ended.
	if _, err := b64(1, 3, 5).Resolve(8 << 20); err == nil || !strings.HasPrefix(err.Error(), "trace: binary_b64: ") ||
		!errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated trace: err = %v, want a trace: binary_b64: error wrapping io.ErrUnexpectedEOF", err)
	}
	// Within budget, a core may not declare more requests than the trace
	// has bytes: 16 bytes claiming 8 Mi requests must not cost the
	// 32 MiB that sequence would take.
	lying := b64(1, 8<<20, 1, 1, 1, 1, 1, 1)
	if raw, _ := base64.StdEncoding.DecodeString(lying.BinaryB64); len(raw) != 16 {
		t.Fatalf("lying trace is %d bytes, want 16", len(raw))
	}
	runtime.ReadMemStats(&before)
	_, err = lying.Resolve(8 << 20)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "declares 8388608 requests in a 16-byte trace") {
		t.Fatalf("err = %v, want the declared-length error", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Fatalf("rejecting the lying trace allocated %d bytes, want < 1 MiB", n)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d", path, resp.StatusCode)
		}
	}
}

func mustJSON(t *testing.T, v interface{}) []byte {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDrainingResponsesCarryRetryAfter pins the uniform backoff
// contract: both the 429 queue-full path and every 503 draining path
// (job submission and /readyz) carry a Retry-After hint, so a fleet
// coordinator treats them with one backoff policy.
func TestDrainingResponsesCarryRetryAfter(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	s.Drain() // idle server: drain completes immediately

	resp := postJSON(t, ts.URL+"/v1/jobs", JobRequest{
		Trace: TraceInput{Inline: testTrace()}, Strategy: "S(LRU)", K: 4, Tau: 1,
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("job during drain: %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("503 draining job response without Retry-After")
	} else if _, err := strconv.Atoi(ra); err != nil {
		t.Fatalf("Retry-After %q is not whole seconds", ra)
	}

	rz, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	rz.Body.Close()
	if rz.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz during drain: %d, want 503", rz.StatusCode)
	}
	if ra := rz.Header.Get("Retry-After"); ra == "" {
		t.Fatal("503 draining /readyz without Retry-After")
	}
}

// TestConcurrentSameKeyMissesRunOnce pins the stampede control on the
// result cache: two concurrent misses on one job key must produce a
// single simulation run — the follower waits for the leader's flight
// and is answered from the cache.
func TestConcurrentSameKeyMissesRunOnce(t *testing.T) {
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	s, ts := newTestServer(t, Config{
		Workers:        2,
		testJobStarted: started,
		testJobRelease: release,
	})
	req := JobRequest{Trace: TraceInput{Inline: testTrace()}, Strategy: "S(LRU)", K: 4, Tau: 2}

	type posted struct {
		resp *http.Response
		err  error
	}
	results := make(chan posted, 2)
	post := func() {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(mustJSON(t, req)))
		results <- posted{resp, err}
	}
	go post()
	<-started // the leader's job is held on a worker
	go post()
	// The duplicate must coalesce into the leader's flight, not queue a
	// second job.
	waitFor(t, func() bool { return s.metrics.coalesced.Load() == 1 })

	release <- struct{}{}
	var cached, fresh int
	for i := 0; i < 2; i++ {
		p := <-results
		if p.err != nil {
			t.Fatal(p.err)
		}
		env, _ := decodeJob(t, p.resp)
		if env.Cached {
			cached++
		} else {
			fresh++
		}
	}
	if fresh != 1 || cached != 1 {
		t.Fatalf("fresh=%d cached=%d, want exactly one of each", fresh, cached)
	}
	if n := s.metrics.completed.Load(); n != 1 {
		t.Fatalf("completed = %d, want 1 (duplicate compute)", n)
	}
	if n := s.metrics.accepted.Load(); n != 1 {
		t.Fatalf("accepted = %d, want 1 (duplicate reached the queue)", n)
	}
	select {
	case <-started:
		t.Fatal("a second simulation run started for the same key")
	default:
	}
}

// TestFleetWorkerIDHeader pins the coordinator-facing identity header:
// set, every response carries it; unset, the header is absent.
func TestFleetWorkerIDHeader(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, WorkerID: "worker-7"})
	resp := postJSON(t, ts.URL+"/v1/jobs", JobRequest{
		Trace: TraceInput{Inline: testTrace()}, Strategy: "S(LRU)", K: 4, Tau: 1,
	})
	resp.Body.Close()
	if got := resp.Header.Get("Fleet-Worker-ID"); got != "worker-7" {
		t.Fatalf("Fleet-Worker-ID = %q, want worker-7", got)
	}
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if got := hz.Header.Get("Fleet-Worker-ID"); got != "worker-7" {
		t.Fatalf("/healthz Fleet-Worker-ID = %q, want worker-7", got)
	}

	_, plain := newTestServer(t, Config{Workers: 1})
	hz2, err := http.Get(plain.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz2.Body.Close()
	if got := hz2.Header.Get("Fleet-Worker-ID"); got != "" {
		t.Fatalf("unexpected Fleet-Worker-ID %q without WorkerID config", got)
	}
}
