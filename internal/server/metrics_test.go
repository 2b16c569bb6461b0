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

	"mcpaging/internal/sim"
	"mcpaging/internal/strategyspec"
	"mcpaging/internal/workload"
)

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
// check between scrapes and completions). No scrape describes a run:
// the page holds the server's own families only.
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
	if body := scrape(t, ts.URL); strings.Contains(body, "mcpaging_") {
		t.Fatalf("scrape after the sweep (%d during it) holds a run's telemetry:\n%s", scrapes, body)
	}
}

// TestExecuteAllocBound keeps a warmed worker's execute to what
// building the strategy and running it on the rebound runner allocate,
// so neither a per-job Collector (a dozen allocations up front plus its
// page map's growth) nor a per-job record can creep in unnoticed. The
// floor is measured rather than fixed, so the bound holds across
// toolchains whose map and strategy allocation counts differ.
func TestExecuteAllocBound(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Drain()
	wl := workload.Spec{Kind: "zipf", Cores: 2, Length: 3000, Pages: 48, Seed: 11}
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
	// Under the race detector either count reads up to one higher now
	// and then. A Collector adds 28 on this job.
	const allowance = 2
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
