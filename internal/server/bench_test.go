package server

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"mcpaging/internal/core"
	"mcpaging/internal/trace"
	"mcpaging/internal/workload"
)

// The service-path benchmarks drive Server.Handler() in-process with
// httptest requests and recorders: no sockets, so they time the
// handler, the queue and the worker, not the loopback stack. Shapes
// follow the repository benchmark's job-cold and sweep workloads.
var (
	benchJobSpec   = workload.Spec{Kind: workload.Zipf, Cores: 4, Length: 25000, Pages: 512, Seed: 1}
	benchSweepSpec = workload.Spec{Kind: workload.Zipf, Cores: 4, Length: 12500, Pages: 512, Seed: 1}
	benchTraceSpec = workload.Spec{Kind: workload.Phased, Cores: 8, Length: 12500, Pages: 256, SharedFrac: 0.1}
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
// cold misses the result cache with a fresh workload seed per
// iteration, so each job generates, keys and renames its own set, as
// the repository benchmark's job-cold does; cells misses it with jobs
// over one workload, rotating strategies and fresh policy seeds, the
// way a fleet worker receives a sweep's cells, so every job after the
// first is served the set the trace step kept; trace is job-trace's
// binary-trace job (benchServeTraceJob); cached answers repeats
// from the cache, alternating two jobs over different workloads, as
// job-hot cycles its jobs, so no request repeats the spec before it.
func BenchmarkServeJob(b *testing.B) {
	strategies := []string{"S(LRU)", "sP[even](LRU)", "dP(LRU)", "S(ARC)"}
	job := func(wlSeed int64, strategy string, seed int64) JobRequest {
		wl := benchJobSpec
		wl.Seed = wlSeed
		return JobRequest{Trace: TraceInput{Workload: &wl}, Strategy: strategy, K: 256, Tau: 8, Seed: seed}
	}
	for _, arm := range []struct {
		name string
		req  func(i int) interface{}
	}{
		{"cold", func(i int) interface{} { return job(int64(i+1), "S(LRU)", 0) }},
		{"cells", func(i int) interface{} { return job(1, strategies[i%len(strategies)], int64(i)) }},
	} {
		b.Run(arm.name, func(b *testing.B) {
			s := New(Config{})
			defer s.Drain()
			h := s.Handler()
			bodies := benchBodies(b, b.N, arm.req)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serve(b, h, "/v1/jobs", bodies[i])
			}
		})
	}
	b.Run("trace", benchServeTraceJob)
	b.Run("cached", func(b *testing.B) {
		s := New(Config{})
		defer s.Drain()
		h := s.Handler()
		hot := benchBodies(b, 2, func(i int) interface{} { return job(int64(i+1), "S(LRU)", 0) })
		for _, body := range hot {
			serve(b, h, "/v1/jobs", body)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			serve(b, h, "/v1/jobs", hot[i%len(hot)])
		}
	})
}

// benchServeTraceJob is BenchmarkServeJob's trace arm, the repository
// benchmark's job-trace request: a base64 binary trace of 8 × 12 500
// phased requests with 10% shared pages, K 512 halving at step 6000, τ
// 8, the job-trace strategies in rotation and a fresh policy seed per
// job, so every job misses the cache and decodes its trace. Jobs rotate
// over eight traces, so a worker's runner renames each set it binds,
// as under job-trace's 64.
func benchServeTraceJob(b *testing.B) {
	strategies := []string{"S(LRU)", "eP[even](LRU)", "eP[fair](LRU)", "S(ARC)"}
	heads := make([][]byte, 8)
	for t := range heads {
		spec := benchTraceSpec
		spec.Seed = int64(t + 1)
		rs, err := workload.Generate(spec)
		if err != nil {
			b.Fatal(err)
		}
		var raw bytes.Buffer
		if err := trace.WriteBinary(&raw, rs); err != nil {
			b.Fatal(err)
		}
		heads[t] = []byte(`{"trace":{"binary_b64":"` + base64.StdEncoding.EncodeToString(raw.Bytes()) + `"},`)
	}
	s := New(Config{})
	defer s.Drain()
	h := s.Handler()
	var body []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The body is the trace's head plus the job's fields, spliced
		// into one reused buffer: a copy, not a marshal, per job.
		body = append(body[:0], heads[i%len(heads)]...)
		body = fmt.Appendf(body, `"strategy":%q,"k":512,"tau":8,"capacity":"step(to=50%%,at=6000)","seed":%d}`,
			strategies[i%len(strategies)], i+1)
		serve(b, h, "/v1/jobs", body)
	}
}

// BenchmarkServeSweep is one POST /v1/sweep of a 16-cell grid (2 K ×
// 2 τ × 4 strategies) over a 4 × 12 500 zipf workload, every cell a
// cache miss, on a GOMAXPROCS-worker pool. Each iteration's workload
// seed is new, as in the repository benchmark's sweep workload, so each
// sweep generates its set and the workers rename it.
func BenchmarkServeSweep(b *testing.B) {
	s := New(Config{})
	defer s.Drain()
	h := s.Handler()
	bodies := benchBodies(b, b.N, func(i int) interface{} {
		wl := benchSweepSpec
		wl.Seed = int64(i + 1)
		return SweepRequest{Trace: TraceInput{Workload: &wl}, Ks: []int{64, 256}, Taus: []int{0, 8},
			Strategies: []string{"S(LRU)", "sP[even](LRU)", "dP(LRU)", "S(ARC)"}, Seed: 1}
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
