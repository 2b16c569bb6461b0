package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mcpaging/internal/capacity"
	"mcpaging/internal/core"
	"mcpaging/internal/sim"
	"mcpaging/internal/strategyspec"
	"mcpaging/internal/telemetry"
	"mcpaging/internal/workload"
)

// snapshotWorkload is long enough for a K(t) step at t = 2000 to land
// mid-run, so the elastic job's capacity lines are not all zero.
var snapshotWorkload = workload.Spec{Kind: "zipf", Cores: 2, Length: 3000, Pages: 48, Seed: 11}

// scrape returns the body of GET /metrics.
func scrape(t *testing.T, baseURL string) string {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// telemetrySectionOf cuts the mcpaging_* section out of a scrape; it is
// the last section, so everything from its first line on.
func telemetrySectionOf(body string) string {
	if i := strings.Index(body, "# HELP mcpaging_"); i >= 0 {
		return body[i:]
	}
	return ""
}

// directSnapshot is what the section must equal for req: the
// telemetry export of a Collector attached to a direct sim.Run of the
// same instance.
func directSnapshot(t *testing.T, req JobRequest) string {
	t.Helper()
	rs, err := req.Trace.Resolve(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	p := core.Params{K: req.K, Tau: req.Tau}
	if req.Capacity != "" {
		if p.Capacity, err = capacity.ParsePortableSchedule(req.Capacity, req.K); err != nil {
			t.Fatal(err)
		}
	}
	st, err := strategyspec.Build(req.Strategy, rs, req.K, req.Seed)
	if err != nil {
		t.Fatal(err)
	}
	col := telemetry.New(telemetry.Config{Cores: rs.NumCores(), Params: p})
	res, err := sim.Run(core.Instance{R: rs, P: p}, st, col.Observe)
	if err != nil {
		t.Fatal(err)
	}
	col.Finish(res)
	var b bytes.Buffer
	if err := telemetry.WritePrometheus(&b, col); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// runJob posts req and returns whether the answer came from the cache.
func runJob(t *testing.T, baseURL string, req JobRequest) bool {
	t.Helper()
	resp := postJSON(t, baseURL+"/v1/jobs", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("job %s: status %d", req.Strategy, resp.StatusCode)
	}
	env, _ := decodeJob(t, resp)
	return env.Cached
}

// TestMetricsSnapshotMatchesDirectRun pins the replayed section to the
// bytes a Collector attached to the run itself produces, for a
// partitioned fixed-K job, an elastic job (whose capacity lines only
// elastic snapshots carry) and a seeded randomized policy.
func TestMetricsSnapshotMatchesDirectRun(t *testing.T) {
	wl := snapshotWorkload
	for _, req := range []JobRequest{
		{Trace: TraceInput{Workload: &wl}, Strategy: "sP[even](LRU)", K: 16, Tau: 3},
		{Trace: TraceInput{Workload: &wl}, Strategy: "eP[fair](LRU)", K: 16, Tau: 2, Capacity: "step(to=50%,at=2000)"},
		{Trace: TraceInput{Workload: &wl}, Strategy: "S(RAND)", K: 12, Tau: 4, Seed: 7},
	} {
		t.Run(req.Strategy, func(t *testing.T) {
			_, ts := newTestServer(t, Config{Workers: 1})
			runJob(t, ts.URL, req)
			got := telemetrySectionOf(scrape(t, ts.URL))
			if want := directSnapshot(t, req); got != want {
				t.Fatalf("scraped snapshot diverges from the direct run's collector:\n got:\n%s\nwant:\n%s", got, want)
			}
			if elastic := strings.Contains(got, "mcpaging_capacity_changes_total"); elastic != (req.Capacity != "") {
				t.Fatalf("capacity lines present = %v for capacity %q", elastic, req.Capacity)
			}
		})
	}
}

// TestMetricsSnapshotFollowsLastCompletedJob: no section before the
// first completion, the later of two jobs after both, and a cache hit,
// which runs nothing, leaves the section where it was.
func TestMetricsSnapshotFollowsLastCompletedJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	if sec := telemetrySectionOf(scrape(t, ts.URL)); sec != "" {
		t.Fatalf("section before any job completed:\n%s", sec)
	}
	wl := snapshotWorkload
	first := JobRequest{Trace: TraceInput{Workload: &wl}, Strategy: "S(LRU)", K: 8, Tau: 2}
	second := JobRequest{Trace: TraceInput{Inline: testTrace()}, Strategy: "S(FIFO)", K: 3, Tau: 1}
	runJob(t, ts.URL, first)
	if got, want := telemetrySectionOf(scrape(t, ts.URL)), directSnapshot(t, first); got != want {
		t.Fatalf("after the first job:\n got:\n%s\nwant:\n%s", got, want)
	}
	runJob(t, ts.URL, second)
	want := directSnapshot(t, second)
	if got := telemetrySectionOf(scrape(t, ts.URL)); got != want {
		t.Fatalf("after the second job:\n got:\n%s\nwant:\n%s", got, want)
	}
	if !runJob(t, ts.URL, first) {
		t.Fatal("re-posted first job was not a cache hit")
	}
	if got := telemetrySectionOf(scrape(t, ts.URL)); got != want {
		t.Fatalf("a cache hit moved the section:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// checkPromText fails unless body is well-formed Prometheus text
// format 0.0.4: HELP/TYPE comments and sample lines, newline-ended.
func checkPromText(t *testing.T, body string) {
	t.Helper()
	if !strings.HasSuffix(body, "\n") {
		t.Fatalf("scrape does not end in a newline:\n%s", body)
	}
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Fatalf("invalid Prometheus line %q in scrape:\n%s", line, body)
		}
	}
}

// TestMetricsScrapesDuringSweep scrapes in a loop while a 16-cell sweep
// completes jobs underneath, so renders race completions; every scrape
// must be valid text (run under -race, this is also the data-race
// check for the last-job handoff).
func TestMetricsScrapesDuringSweep(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	wl := workload.Spec{Kind: "zipf", Cores: 2, Length: 2000, Pages: 48, Seed: 3}
	body, err := json.Marshal(SweepRequest{
		Trace: TraceInput{Workload: &wl}, Ks: []int{4, 8, 16, 32}, Taus: []int{0, 3},
		Strategies: []string{"S(LRU)", "sP[even](LRU)"},
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			return
		}
		defer resp.Body.Close()
		lines, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Error(err)
			return
		}
		if n := bytes.Count(lines, []byte("\n")); n != 16 {
			t.Errorf("sweep streamed %d lines, want 16", n)
		}
	}()
	scrapes := 0
	for running := true; running; scrapes++ {
		select {
		case <-done:
			running = false
		default:
		}
		checkPromText(t, scrape(t, ts.URL))
	}
	wg.Wait()
	if sec := telemetrySectionOf(scrape(t, ts.URL)); sec == "" {
		t.Fatalf("no telemetry section after the sweep (%d scrapes)", scrapes)
	}
}

// TestExecuteAllocBound keeps a per-job Collector from coming back
// unnoticed. A warmed worker's execute may allocate only what building
// the strategy and running it on the rebound runner allocate, plus the
// last-job record; a Collector adds a dozen allocations up front plus
// its page map's growth. The floor is measured rather than fixed, so
// the bound holds across toolchains whose map and strategy allocation
// counts differ.
func TestExecuteAllocBound(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Drain()
	wl := snapshotWorkload
	run, err := JobRequest{Trace: TraceInput{Workload: &wl}, Strategy: "S(LRU)", K: 16, Tau: 2}.Resolve(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	j := &job{Job: run}
	var rn *sim.Runner
	if out := s.execute(&rn, j); out.err != nil {
		t.Fatal(out.err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if out := s.execute(&rn, j); out.err != nil {
			t.Fatal(out.err)
		}
	})
	floor := testing.AllocsPerRun(50, func() {
		st, err := strategyspec.Build(run.Spec, run.R, run.Params.K, run.Seed)
		if err != nil {
			t.Fatal(err)
		}
		if err := rn.Bind(run.R); err != nil {
			t.Fatal(err)
		}
		if _, err := rn.Run(run.Params, st, nil); err != nil {
			t.Fatal(err)
		}
		rn.Release()
	})
	// One allocation is the last-job record; under the race detector
	// either count reads up to one higher now and then. A Collector
	// adds 28 on this job.
	const allowance = 3
	if allocs > floor+allowance {
		t.Fatalf("warmed execute: %v allocs/job, want at most %v (build and run: %v)", allocs, floor+allowance, floor)
	}
}

var update = flag.Bool("update", false, "rewrite the exposition golden files")

// TestExpositionGolden pins writePrometheus's bytes for an idle server
// and for fixed counters, gauges and latency samples, so any change to
// how the server-level section is written shows up as a diff against
// testdata. The values include ones %g prints in exponent form.
// Regenerate with:
//
//	go test ./internal/server -run ExpositionGolden -update
func TestExpositionGolden(t *testing.T) {
	idle := &serverMetrics{}
	busy := &serverMetrics{}
	for _, c := range []struct {
		n *atomic.Int64
		v int64
	}{
		{&busy.accepted, 1234567}, {&busy.rejected, 3}, {&busy.completed, 1234000},
		{&busy.failed, 17}, {&busy.timeouts, 2}, {&busy.coalesced, 9},
		{&busy.traceResolves, 40}, {&busy.traceReuses, 21},
	} {
		c.n.Store(c.v)
	}
	for _, d := range []time.Duration{5 * time.Millisecond, 1500 * time.Microsecond, 2 * time.Second,
		40 * time.Millisecond, 123456789 * time.Nanosecond, 7 * time.Microsecond} {
		busy.observeLatency(d)
	}
	for _, c := range []struct {
		name string
		m    *serverMetrics
		g    gauges
	}{
		{"metrics_idle.prom", idle, gauges{queueCap: 4, workers: 2, cacheCap: 4096, ready: true}},
		{"metrics_busy.prom", busy, gauges{queueDepth: 3, queueCap: 8, workers: 4, cacheEntries: 2000000,
			cacheCap: 4000000, cacheHits: 2, cacheMisses: 1}},
	} {
		var b bytes.Buffer
		if err := c.m.writePrometheus(&b, c.g); err != nil {
			t.Fatal(err)
		}
		checkPromText(t, b.String())
		checkGolden(t, c.name, b.Bytes())
	}
}

// checkGolden compares got with testdata/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden missing (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s differs from golden (regenerate with -update if the change is intended)\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}
