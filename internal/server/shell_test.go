package server

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// tickClock is a fake Clock whose every reading is step later than the
// one before.
type tickClock struct {
	mu   sync.Mutex
	now  time.Time
	step time.Duration
}

func (c *tickClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(c.step)
	return c.now
}

func (c *tickClock) After(time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	ch <- c.Now()
	return ch
}

// TestJobLatencyReadsTheClock: a job whose clock advances 5 ms between
// its two readings reports elapsed_ms 5 and adds 0.005 s to the latency
// summary; a cache hit reads no clock and adds no sample.
func TestJobLatencyReadsTheClock(t *testing.T) {
	clk := &tickClock{now: time.Unix(1_700_000_000, 0), step: 5 * time.Millisecond}
	_, ts := newTestServer(t, Config{Workers: 1, clock: clk})
	req := JobRequest{Trace: TraceInput{Inline: testTrace()}, Strategy: "S(LRU)", K: 3, Tau: 1}
	for i, want := range []JobResponse{{Cached: false, ElapsedMS: 5}, {Cached: true}} {
		env, _ := decodeJob(t, postJSON(t, ts.URL+"/v1/jobs", req))
		if env.Cached != want.Cached || env.ElapsedMS != want.ElapsedMS {
			t.Fatalf("post %d: cached %v, elapsed_ms %v; want cached %v, elapsed_ms %v",
				i, env.Cached, env.ElapsedMS, want.Cached, want.ElapsedMS)
		}
		body := scrape(t, ts.URL)
		for _, line := range []string{
			"mcservd_job_latency_seconds{quantile=\"0.5\"} 0.005\n",
			"mcservd_job_latency_seconds_sum 0.005\n",
			"mcservd_job_latency_seconds_count 1\n",
		} {
			if !strings.Contains(body, line) {
				t.Fatalf("post %d: /metrics lacks %q:\n%s", i, line, body)
			}
		}
	}
}

// TestErrorBodyShape pins the one error body both daemons write and
// the fleet client reads, and the Retry-After hint on a refusal to
// retry.
func TestErrorBodyShape(t *testing.T) {
	rec := httptest.NewRecorder()
	RetryLater(rec, http.StatusTooManyRequests, "queue %s", "full")
	if rec.Code != http.StatusTooManyRequests || rec.Header().Get("Retry-After") != "1" {
		t.Fatalf("status %d, Retry-After %q", rec.Code, rec.Header().Get("Retry-After"))
	}
	if got, want := rec.Body.String(), "{\"error\":\"queue full\"}\n"; got != want {
		t.Fatalf("body %q, want %q", got, want)
	}
	if got := ReadError(rec.Body); got != "queue full" {
		t.Fatalf("ReadError = %q", got)
	}
	if got := ReadError(strings.NewReader(" 404 page not found\n")); got != "404 page not found" {
		t.Fatalf("ReadError of a plain body = %q", got)
	}
}

// TestServeShutsDownGracefully runs the daemon lifecycle: Listen writes
// the bound address for scripts, Serve answers requests, and once its
// context ends Serve lets an in-flight request finish before returning.
func TestServeShutsDownGracefully(t *testing.T) {
	addrFile := filepath.Join(t.TempDir(), "addr")
	ln, err := Listen("127.0.0.1:0", addrFile)
	if err != nil {
		t.Fatal(err)
	}
	written, err := os.ReadFile(addrFile)
	if err != nil || string(written) != ln.Addr().String()+"\n" {
		t.Fatalf("addr file %q (%v), want %q", written, err, ln.Addr().String()+"\n")
	}
	entered, release := make(chan struct{}), make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", Healthz)
	mux.HandleFunc("GET /slow", func(w http.ResponseWriter, _ *http.Request) {
		close(entered)
		<-release
		io.WriteString(w, "done\n")
	})
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- Serve(ctx, "test", ln, mux, time.Minute) }()

	base := "http://" + ln.Addr().String()
	if got := get(t, base+"/healthz"); got != "ok\n" {
		t.Fatalf("/healthz = %q", got)
	}
	slow := make(chan string, 1)
	go func() { slow <- get(t, base+"/slow") }()
	<-entered
	cancel()
	select {
	case err := <-served:
		t.Fatalf("Serve returned %v with a request in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if got := <-slow; got != "done\n" {
		t.Fatalf("in-flight request answered %q", got)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve after a graceful stop: %v", err)
	}
	if _, err := net.Dial("tcp", ln.Addr().String()); err == nil {
		t.Fatal("listener still accepting after Serve returned")
	}
}

// TestServeReportsListenerFailure: Serve returns the error that stops
// serving, here a listener closed under it.
func TestServeReportsListenerFailure(t *testing.T) {
	ln, err := Listen("127.0.0.1:0", "")
	if err != nil {
		t.Fatal(err)
	}
	ln.Close()
	if err := Serve(context.Background(), "test", ln, http.NotFoundHandler(), time.Second); err == nil {
		t.Fatal("Serve on a closed listener returned nil")
	}
	if _, err := Listen("127.0.0.1:0", filepath.Join(t.TempDir(), "missing", "addr")); err == nil {
		t.Fatal("Listen with an unwritable addr file returned nil")
	}
}

// get returns the body of GET url.
func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Error(err)
		return ""
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Error(err)
	}
	return string(b)
}
