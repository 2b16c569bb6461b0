package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"mcpaging/internal/core"
	"mcpaging/internal/workload"
)

// The service-path benchmarks drive Server.Handler() in-process with
// httptest requests and recorders: no sockets, so they time the
// handler, the queue and the worker, not the loopback stack. Shapes
// follow the repository benchmark's job-cold and sweep workloads.
var (
	benchJobSpec   = workload.Spec{Kind: workload.Zipf, Cores: 4, Length: 25000, Pages: 512, Seed: 1}
	benchSweepSpec = workload.Spec{Kind: workload.Zipf, Cores: 4, Length: 12500, Pages: 512, Seed: 1}
)

// benchBodies marshals one request body per iteration.
func benchBodies(b *testing.B, n int, req func(i int) interface{}) [][]byte {
	b.Helper()
	bodies := make([][]byte, n)
	for i := range bodies {
		raw, err := json.Marshal(req(i))
		if err != nil {
			b.Fatal(err)
		}
		bodies[i] = raw
	}
	return bodies
}

// serve runs one request through h and fails the benchmark on a
// non-200 answer.
func serve(b *testing.B, h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	b.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		b.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body)
	}
	return rec
}

// BenchmarkServeJob is one POST /v1/jobs of a 4 × 25 000 zipf job:
// cold misses the result cache (each iteration's seed is new, so each
// key is) and runs the job; cached answers a repeat from the cache.
func BenchmarkServeJob(b *testing.B) {
	job := func(seed int64) JobRequest {
		wl := benchJobSpec
		return JobRequest{Trace: TraceInput{Workload: &wl}, Strategy: "S(LRU)", K: 256, Tau: 8, Seed: seed}
	}
	b.Run("cold", func(b *testing.B) {
		s := New(Config{})
		defer s.Drain()
		h := s.Handler()
		bodies := benchBodies(b, b.N, func(i int) interface{} { return job(int64(i)) })
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			serve(b, h, "/v1/jobs", bodies[i])
		}
	})
	b.Run("cached", func(b *testing.B) {
		s := New(Config{})
		defer s.Drain()
		h := s.Handler()
		body := benchBodies(b, 1, func(int) interface{} { return job(0) })[0]
		serve(b, h, "/v1/jobs", body)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			serve(b, h, "/v1/jobs", body)
		}
	})
}

// BenchmarkServeSweep is one POST /v1/sweep of a 16-cell grid (2 K ×
// 2 τ × 4 strategies) over a 4 × 12 500 zipf workload, every cell a
// cache miss, on a GOMAXPROCS-worker pool.
func BenchmarkServeSweep(b *testing.B) {
	s := New(Config{})
	defer s.Drain()
	h := s.Handler()
	bodies := benchBodies(b, b.N, func(i int) interface{} {
		wl := benchSweepSpec
		return SweepRequest{Trace: TraceInput{Workload: &wl}, Ks: []int{64, 256}, Taus: []int{0, 8},
			Strategies: []string{"S(LRU)", "sP[even](LRU)", "dP(LRU)", "S(ARC)"}, Seed: int64(i)}
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rec := serve(b, h, "/v1/sweep", bodies[i]); bytes.Count(rec.Body.Bytes(), []byte("\n")) != 16 {
			b.Fatalf("sweep streamed %q", rec.Body)
		}
	}
}

var benchKey string

// BenchmarkJobKey keys a 4 × 25 000 job (job) and the 16 cells of a
// sweep over a 4 × 12 500 set (sweep16), the way handleSweep does.
func BenchmarkJobKey(b *testing.B) {
	b.Run("job", func(b *testing.B) {
		rs, err := workload.Generate(benchJobSpec)
		if err != nil {
			b.Fatal(err)
		}
		p := core.Params{K: 256, Tau: 8}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchKey = JobKey(rs, "S(LRU)", p, 1)
		}
	})
	b.Run("sweep16", func(b *testing.B) {
		wl := benchSweepSpec
		runs, err := SweepRequest{Trace: TraceInput{Workload: &wl}, Ks: []int{64, 256}, Taus: []int{0, 8},
			Strategies: []string{"S(LRU)", "sP[even](LRU)", "dP(LRU)", "S(ARC)"}, Seed: 1}.Resolve(1 << 20)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			keyer := NewKeyer(runs[0].R)
			for _, run := range runs {
				benchKey = keyer.Key(run.Spec, run.Params, run.Seed)
			}
		}
	})
}
