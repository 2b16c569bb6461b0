package fleet

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// probeWorker is a stub worker whose /readyz status is switchable.
type probeWorker struct {
	ts     *httptest.Server
	status atomic.Int64
}

func newProbeWorker(t *testing.T) *probeWorker {
	t.Helper()
	p := &probeWorker{}
	p.status.Store(http.StatusOK)
	p.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(int(p.status.Load()))
	}))
	t.Cleanup(p.ts.Close)
	return p
}

func newTestRegistry(t *testing.T, workers []*probeWorker) *Registry {
	t.Helper()
	clients := make([]*Client, len(workers))
	for i, p := range workers {
		clients[i] = NewClient(p.ts.URL, nil, newFakeClock(), Backoff{}, int64(i))
	}
	reg, err := NewRegistry(clients, 32, RegistryConfig{}, newFakeClock())
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

func statusOf(t *testing.T, reg *Registry, id string) string {
	t.Helper()
	for _, wi := range reg.Snapshot() {
		if wi.ID == id {
			return wi.Status
		}
	}
	t.Fatalf("worker %s not in snapshot", id)
	return ""
}

func TestProbeTransitions(t *testing.T) {
	p := newProbeWorker(t)
	reg := newTestRegistry(t, []*probeWorker{p})
	id := p.ts.URL

	reg.ProbeAll(context.Background())
	if got := statusOf(t, reg, id); got != "healthy" {
		t.Fatalf("after OK probe: %s", got)
	}

	// One failure is below failThreshold (2): still healthy.
	p.status.Store(http.StatusInternalServerError)
	reg.ProbeAll(context.Background())
	if got := statusOf(t, reg, id); got != "healthy" {
		t.Fatalf("after 1 failed probe: %s, want healthy", got)
	}
	reg.ProbeAll(context.Background())
	if got := statusOf(t, reg, id); got != "down" {
		t.Fatalf("after 2 failed probes: %s, want down", got)
	}

	// 503 is draining, and resets the hard-failure streak.
	p.status.Store(http.StatusServiceUnavailable)
	reg.ProbeAll(context.Background())
	if got := statusOf(t, reg, id); got != "draining" {
		t.Fatalf("after 503 probe: %s, want draining", got)
	}

	p.status.Store(http.StatusOK)
	reg.ProbeAll(context.Background())
	if got := statusOf(t, reg, id); got != "healthy" {
		t.Fatalf("after recovery probe: %s, want healthy", got)
	}
}

// TestCloseCancelsInflightProbe pins the probe-loop cancellation fix.
// Before Start took a context, a probe round already in flight when
// Close ran had nothing to abort it: the loop could not exit until the
// round's ProbeTimeout expired, so Close (and therefore process drain)
// stalled behind a dead worker's full timeout. With ProbeTimeout set to
// an hour, the pre-fix Close blocks for that hour; the fix must cancel
// the round and return promptly.
func TestCloseCancelsInflightProbe(t *testing.T) {
	probing := make(chan struct{}, 16)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		probing <- struct{}{}
		<-r.Context().Done() // hang until the probe's context is cancelled
	}))
	t.Cleanup(ts.Close)

	c := NewClient(ts.URL, nil, newFakeClock(), Backoff{}, 0)
	reg, err := NewRegistry([]*Client{c}, 8, RegistryConfig{
		ProbeInterval: time.Second,
		ProbeTimeout:  time.Hour, // Close must not need to wait this out
	}, newFakeClock())
	if err != nil {
		t.Fatal(err)
	}

	// fakeClock.After fires immediately, so the loop enters a probe
	// round as soon as it starts; wait until the round is mid-flight.
	reg.Start(context.Background())
	<-probing

	closed := make(chan struct{})
	go func() {
		reg.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not cancel the in-flight probe round")
	}
}

func TestRouteMarksOverrideProbes(t *testing.T) {
	p := newProbeWorker(t)
	reg := newTestRegistry(t, []*probeWorker{p})
	id := p.ts.URL

	// A hard routing failure downs the worker immediately, no threshold.
	reg.markRouteDown(id)
	if got := statusOf(t, reg, id); got != "down" {
		t.Fatalf("after markRouteDown: %s", got)
	}
	reg.markRouteSuccess(id, "remote-1", 5*time.Millisecond)
	if got := statusOf(t, reg, id); got != "healthy" {
		t.Fatalf("after markRouteSuccess: %s", got)
	}
	reg.markRouteDraining(id)
	if got := statusOf(t, reg, id); got != "draining" {
		t.Fatalf("after markRouteDraining: %s", got)
	}
}

func TestCandidatesSkipUnhealthy(t *testing.T) {
	ps := []*probeWorker{newProbeWorker(t), newProbeWorker(t), newProbeWorker(t)}
	reg := newTestRegistry(t, ps)
	key := sampleKeys(1)[0]

	full := reg.candidates(key)
	if len(full) != 3 {
		t.Fatalf("all healthy: %d candidates, want 3", len(full))
	}
	owner := full[0].client.ID()

	reg.markRouteDown(owner)
	after := reg.candidates(key)
	if len(after) != 2 {
		t.Fatalf("one down: %d candidates, want 2", len(after))
	}
	for _, w := range after {
		if w.client.ID() == owner {
			t.Fatal("down owner still among candidates")
		}
	}
	// Failover preserves ring order: the new head must be the old second.
	if after[0].client.ID() != full[1].client.ID() {
		t.Fatalf("failover head = %s, want ring successor %s", after[0].client.ID(), full[1].client.ID())
	}

	// Nothing healthy: fall back to the full ring order so the retry
	// loop can wait for recovery instead of failing instantly.
	for _, p := range ps {
		reg.markRouteDown(p.ts.URL)
	}
	if got := reg.candidates(key); len(got) != 3 {
		t.Fatalf("all down: %d candidates, want full ring", len(got))
	}
}

func TestLatencyWeight(t *testing.T) {
	cases := []struct {
		ewma, min, want float64
	}{
		{0, 0, 1},     // unmeasured
		{0.010, 0, 1}, // no fleet minimum yet
		{0.010, 0.010, 1},
		{0.020, 0.010, 0.5},
		{0.005, 0.010, 1}, // faster than the recorded min: clamp
	}
	for _, c := range cases {
		if got := latencyWeight(c.ewma, c.min); got != c.want {
			t.Errorf("latencyWeight(%v, %v) = %v, want %v", c.ewma, c.min, got, c.want)
		}
	}
}

func TestWeightTracksEWMA(t *testing.T) {
	ps := []*probeWorker{newProbeWorker(t), newProbeWorker(t)}
	reg := newTestRegistry(t, ps)
	fast, slow := ps[0].ts.URL, ps[1].ts.URL
	reg.markRouteSuccess(fast, "", 10*time.Millisecond)
	reg.markRouteSuccess(slow, "", 40*time.Millisecond)
	if w := reg.weight(fast); w != 1 {
		t.Fatalf("fastest worker weight = %v, want 1", w)
	}
	if w := reg.weight(slow); w != 0.25 {
		t.Fatalf("slow worker weight = %v, want 0.25", w)
	}
}

func TestSnapshotSortedByID(t *testing.T) {
	ps := []*probeWorker{newProbeWorker(t), newProbeWorker(t), newProbeWorker(t)}
	reg := newTestRegistry(t, ps)
	snap := reg.Snapshot()
	for i := 1; i < len(snap); i++ {
		if snap[i-1].ID >= snap[i].ID {
			t.Fatalf("snapshot not sorted: %s before %s", snap[i-1].ID, snap[i].ID)
		}
	}
}

func TestRegistryRejectsDuplicatesAndEmpty(t *testing.T) {
	if _, err := NewRegistry(nil, 8, RegistryConfig{}, newFakeClock()); err == nil {
		t.Fatal("empty registry must error")
	}
	c := NewClient("http://same", nil, newFakeClock(), Backoff{}, 0)
	d := NewClient("http://same", nil, newFakeClock(), Backoff{}, 1)
	if _, err := NewRegistry([]*Client{c, d}, 8, RegistryConfig{}, newFakeClock()); err == nil {
		t.Fatal("duplicate worker IDs must error")
	}
}
