package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"mcpaging/internal/server"
)

// Backoff parameterises the retry schedule a Client applies to
// retryable worker responses (429 queue-full, 503 draining). The delay
// for attempt a is min(Cap, Base<<a) with full jitter on the upper
// half, raised to the worker's Retry-After hint when that is larger —
// the hint is the worker's own estimate of when capacity returns, so
// backing off less would just bounce again.
type Backoff struct {
	Base time.Duration // 0 = 50ms
	Cap  time.Duration // 0 = 5s
	// Attempts bounds how many times one call retries a retryable
	// status before giving up with errWorkerBusy (0 = 3).
	Attempts int
}

func (b Backoff) withDefaults() Backoff {
	if b.Base <= 0 {
		b.Base = 50 * time.Millisecond
	}
	if b.Cap <= 0 {
		b.Cap = 5 * time.Second
	}
	if b.Attempts <= 0 {
		b.Attempts = 3
	}
	return b
}

// schedule draws a Backoff's delays from a seeded jitter source: the
// client's retries and the dispatcher's failover rounds each own one,
// so jitter is decorrelated across them yet reproducible in tests.
type schedule struct {
	Backoff
	mu  sync.Mutex
	rng *rand.Rand
}

func newSchedule(b Backoff, seed int64) *schedule {
	return &schedule{Backoff: b.withDefaults(), rng: rand.New(rand.NewSource(seed))}
}

// delay returns the attempt'th delay: min(Cap, Base<<attempt) with full
// jitter on the upper half.
func (s *schedule) delay(attempt int) time.Duration {
	d := s.Base << attempt
	if d > s.Cap || d <= 0 {
		d = s.Cap
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return d/2 + time.Duration(s.rng.Int63n(int64(d/2)+1))
}

// sleep waits for d on clk, returning early with ctx's error if the
// context ends first.
func sleep(ctx context.Context, clk server.Clock, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	select {
	case <-clk.After(d):
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// errWorkerDown marks transport failures and unexpected 5xx responses:
// the worker is presumed gone and the caller should fail over to the
// next ring member.
var errWorkerDown = errors.New("fleet: worker unreachable")

// errWorkerBusy marks a worker that is alive but refusing work (queue
// full or draining) beyond the client's retry budget; the caller may
// try another member and come back later.
var errWorkerBusy = errors.New("fleet: worker saturated or draining")

// errPermanent wraps 4xx worker responses: the request itself is bad
// (malformed trace, unknown strategy), so no amount of failover helps
// and the error is surfaced to the tenant as-is.
type errPermanent struct {
	status int
	msg    string
}

func (e errPermanent) Error() string { return e.msg }

// StatusCode returns the worker's HTTP status for gateway passthrough.
func (e errPermanent) StatusCode() int { return e.status }

// Client is the coordinator's HTTP client for one mcservd worker.
type Client struct {
	base    string
	httpc   *http.Client
	clock   server.Clock
	backoff *schedule
}

// NewClient builds a client for the worker at baseURL (no trailing
// slash). httpc may be shared between clients; nil uses a dedicated
// client with sane timeouts. jitterSeed seeds the backoff jitter — the
// fleet derives per-worker seeds so jitter is decorrelated across
// clients yet reproducible in tests.
func NewClient(baseURL string, httpc *http.Client, clk server.Clock, b Backoff, jitterSeed int64) *Client {
	if httpc == nil {
		httpc = &http.Client{Timeout: 5 * time.Minute}
	}
	if clk == nil {
		clk = server.SystemClock
	}
	return &Client{
		base:    baseURL,
		httpc:   httpc,
		clock:   clk,
		backoff: newSchedule(b, jitterSeed),
	}
}

// ID returns the worker's identity in the fleet: its base URL.
func (c *Client) ID() string { return c.base }

// RunJob posts one job to the worker, retrying retryable statuses
// under the backoff schedule. It returns the decoded response plus the
// worker's Fleet-Worker-ID header (its self-reported identity).
func (c *Client) RunJob(ctx context.Context, req server.JobRequest) (server.JobResponse, string, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return server.JobResponse{}, "", err
	}
	var retries int
	for {
		resp, remoteID, retryAfter, err := c.postOnce(ctx, bytes.NewReader(body))
		if err == nil {
			return resp, remoteID, nil
		}
		if !errors.Is(err, errWorkerBusy) || retries >= c.backoff.Attempts {
			return server.JobResponse{}, remoteID, err
		}
		if serr := sleep(ctx, c.clock, c.delay(retries, retryAfter)); serr != nil {
			return server.JobResponse{}, remoteID, serr
		}
		retries++
	}
}

// postOnce performs a single POST /v1/jobs round trip and classifies
// the outcome into the fleet's error taxonomy.
func (c *Client) postOnce(ctx context.Context, body io.Reader) (server.JobResponse, string, time.Duration, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/jobs", body)
	if err != nil {
		return server.JobResponse{}, "", 0, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hresp, err := c.httpc.Do(hreq)
	if err != nil {
		if ctx.Err() != nil {
			return server.JobResponse{}, "", 0, ctx.Err()
		}
		return server.JobResponse{}, "", 0, fmt.Errorf("%w: %s: %v", errWorkerDown, c.base, err)
	}
	defer hresp.Body.Close()
	remoteID := hresp.Header.Get("Fleet-Worker-ID")
	switch {
	case hresp.StatusCode == http.StatusOK:
		var out server.JobResponse
		if derr := json.NewDecoder(hresp.Body).Decode(&out); derr != nil {
			return server.JobResponse{}, remoteID, 0, fmt.Errorf("%w: %s: decoding response: %v", errWorkerDown, c.base, derr)
		}
		return out, remoteID, 0, nil
	case hresp.StatusCode == http.StatusTooManyRequests || hresp.StatusCode == http.StatusServiceUnavailable:
		return server.JobResponse{}, remoteID, parseRetryAfter(hresp.Header.Get("Retry-After")),
			fmt.Errorf("%w: %s: %s", errWorkerBusy, c.base, server.ReadError(hresp.Body))
	case hresp.StatusCode >= 400 && hresp.StatusCode < 500:
		return server.JobResponse{}, remoteID, 0, errPermanent{status: hresp.StatusCode, msg: server.ReadError(hresp.Body)}
	default:
		return server.JobResponse{}, remoteID, 0,
			fmt.Errorf("%w: %s: unexpected status %d: %s", errWorkerDown, c.base, hresp.StatusCode, server.ReadError(hresp.Body))
	}
}

// Ready probes GET /readyz. It reports the probe's round-trip time on
// success; a 503 is errWorkerBusy (alive but draining), anything else
// errWorkerDown.
func (c *Client) Ready(ctx context.Context) (time.Duration, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/readyz", nil)
	if err != nil {
		return 0, err
	}
	start := c.clock.Now()
	hresp, err := c.httpc.Do(hreq)
	if err != nil {
		return 0, fmt.Errorf("%w: %s: %v", errWorkerDown, c.base, err)
	}
	defer hresp.Body.Close()
	_, _ = io.Copy(io.Discard, io.LimitReader(hresp.Body, 1024))
	rtt := c.clock.Now().Sub(start)
	switch hresp.StatusCode {
	case http.StatusOK:
		return rtt, nil
	case http.StatusServiceUnavailable:
		return rtt, fmt.Errorf("%w: %s: draining", errWorkerBusy, c.base)
	default:
		return rtt, fmt.Errorf("%w: %s: /readyz status %d", errWorkerDown, c.base, hresp.StatusCode)
	}
}

// Get proxies a GET of path (e.g. /strategies) and returns the raw
// body for passthrough.
func (c *Client) Get(ctx context.Context, path string) ([]byte, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	hresp, err := c.httpc.Do(hreq)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", errWorkerDown, c.base, err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%w: %s: %s status %d", errWorkerDown, c.base, path, hresp.StatusCode)
	}
	return io.ReadAll(io.LimitReader(hresp.Body, 1<<20))
}

// delay computes the attempt'th backoff delay, floored at the worker's
// Retry-After hint.
func (c *Client) delay(attempt int, retryAfter time.Duration) time.Duration {
	return max(retryAfter, c.backoff.delay(attempt))
}

// parseRetryAfter reads a Retry-After header in whole seconds (the
// only form either daemon emits); absent or malformed values mean "no
// hint".
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}
