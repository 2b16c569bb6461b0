package fleet

import (
	"context"
	"errors"
	"sort"
	"sync"
	"time"

	"mcpaging/internal/server"
)

// WorkerStatus is a fleet member's routing state.
type WorkerStatus int32

const (
	// StatusHealthy workers take new work.
	StatusHealthy WorkerStatus = iota
	// StatusDraining workers answered 503 draining: alive, finishing
	// in-flight jobs, taking nothing new. They rejoin on a healthy
	// probe (e.g. a rolling restart coming back).
	StatusDraining
	// StatusDown workers failed a route or enough probes; they take no
	// work until a probe succeeds.
	StatusDown
)

func (s WorkerStatus) String() string {
	switch s {
	case StatusHealthy:
		return "healthy"
	case StatusDraining:
		return "draining"
	default:
		return "down"
	}
}

// RegistryConfig parameterises worker health tracking.
type RegistryConfig struct {
	// ProbeInterval is the /readyz probe period (0 = 2s).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe round trip (0 = 1s).
	ProbeTimeout time.Duration
}

const (
	// failThreshold is how many consecutive probe failures mark a
	// worker down. Routing transport failures mark it down at once — a
	// dead TCP peer needs no second opinion.
	failThreshold = 2
	// ewmaAlpha is the latency smoothing factor. The EWMA feeds the
	// latency weight that scales how much spilled (non-owner) work a
	// worker may absorb.
	ewmaAlpha = 0.3
)

func (c RegistryConfig) withDefaults() RegistryConfig {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	return c
}

// workerState is the registry's live view of one fleet member.
type workerState struct {
	client *Client

	mu          sync.Mutex
	status      WorkerStatus
	consecFails int
	ewmaSeconds float64 // 0 until the first successful probe/route
	remoteID    string  // last Fleet-Worker-ID seen from this member
	probes      int64
	probeFails  int64
	inflight    int64
	served      int64
}

// tryAcquire claims an inflight slot if fewer than limit are taken.
func (w *workerState) tryAcquire(limit int64) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.inflight >= limit {
		return false
	}
	w.inflight++
	return true
}

func (w *workerState) release() {
	w.mu.Lock()
	w.inflight--
	w.mu.Unlock()
}

// observeLatency folds one latency sample into the EWMA.
func (w *workerState) observeLatency(d time.Duration) {
	s := d.Seconds()
	if w.ewmaSeconds == 0 {
		w.ewmaSeconds = s
		return
	}
	w.ewmaSeconds = ewmaAlpha*s + (1-ewmaAlpha)*w.ewmaSeconds
}

// WorkerInfo is a point-in-time snapshot of one member, exposed on
// GET /v1/workers and in /metrics.
type WorkerInfo struct {
	ID          string  `json:"id"`
	RemoteID    string  `json:"remote_id,omitempty"`
	Status      string  `json:"status"`
	LatencyMS   float64 `json:"latency_ms"`
	Weight      float64 `json:"weight"`
	Inflight    int64   `json:"inflight"`
	Served      int64   `json:"served"`
	Probes      int64   `json:"probes"`
	ProbeFails  int64   `json:"probe_fails"`
	ConsecFails int     `json:"consecutive_fails"`
}

// Registry tracks fleet membership and health. Members are fixed at
// construction (the ring is immutable); health is dynamic, fed by
// routing outcomes and the background /readyz probe loop.
type Registry struct {
	cfg     RegistryConfig
	clock   server.Clock
	ring    *Ring
	workers map[string]*workerState
	ids     []string // sorted

	stopOnce    sync.Once
	stop        chan struct{}
	done        chan struct{}
	probeCancel context.CancelFunc // set by Start; aborts in-flight probes on Close
}

// NewRegistry builds a registry over the given worker clients.
func NewRegistry(clients []*Client, replicas int, cfg RegistryConfig, clk server.Clock) (*Registry, error) {
	if len(clients) == 0 {
		return nil, errors.New("fleet: registry needs at least one worker")
	}
	if clk == nil {
		clk = server.SystemClock
	}
	g := &Registry{
		cfg:     cfg.withDefaults(),
		clock:   clk,
		workers: make(map[string]*workerState, len(clients)),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	for _, c := range clients {
		if _, dup := g.workers[c.ID()]; dup {
			return nil, errors.New("fleet: duplicate worker " + c.ID())
		}
		g.workers[c.ID()] = &workerState{client: c}
		g.ids = append(g.ids, c.ID())
	}
	sort.Strings(g.ids)
	g.ring = NewRing(replicas, g.ids)
	return g, nil
}

// Ring returns the registry's routing ring.
func (g *Registry) Ring() *Ring { return g.ring }

// Start launches the background probe loop under ctx; Close stops it.
// Probes run under a context derived from ctx, so both the caller's
// shutdown and Close abort a round that is mid-flight instead of
// letting it run out its ProbeTimeout detached from everything.
func (g *Registry) Start(ctx context.Context) {
	pctx, cancel := context.WithCancel(ctx)
	g.probeCancel = cancel
	go func() {
		defer close(g.done)
		defer cancel()
		for {
			select {
			case <-pctx.Done():
				return
			case <-g.stop:
				return
			case <-g.clock.After(g.cfg.ProbeInterval):
				g.ProbeAll(pctx)
			}
		}
	}()
}

// Close stops the probe loop — cancelling any probe round still in
// flight — and waits for it to exit.
func (g *Registry) Close() {
	g.stopOnce.Do(func() {
		if g.probeCancel != nil {
			g.probeCancel()
		}
		close(g.stop)
	})
	<-g.done
}

// ProbeAll probes every member once, concurrently, and applies the
// health transitions. Exported so tests (and the gateway at startup)
// can force a synchronous round.
func (g *Registry) ProbeAll(ctx context.Context) {
	var wg sync.WaitGroup
	for _, id := range g.ids {
		w := g.workers[id]
		wg.Add(1)
		go func() {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, g.cfg.ProbeTimeout)
			defer cancel()
			rtt, err := w.client.Ready(pctx)
			w.mu.Lock()
			defer w.mu.Unlock()
			w.probes++
			switch {
			case err == nil:
				w.consecFails = 0
				w.status = StatusHealthy
				w.observeLatency(rtt)
			case errors.Is(err, errWorkerBusy):
				// Alive but draining: latency sample is still real.
				w.consecFails = 0
				w.status = StatusDraining
				w.observeLatency(rtt)
			default:
				w.probeFails++
				w.consecFails++
				if w.consecFails >= failThreshold {
					w.status = StatusDown
				}
			}
		}()
	}
	wg.Wait()
}

// markRouteSuccess records a served job on id with its round-trip time
// and the worker's self-reported identity.
func (g *Registry) markRouteSuccess(id, remoteID string, rtt time.Duration) {
	w := g.workers[id]
	if w == nil {
		return
	}
	w.mu.Lock()
	w.consecFails = 0
	w.status = StatusHealthy
	w.served++
	if remoteID != "" {
		w.remoteID = remoteID
	}
	w.observeLatency(rtt)
	w.mu.Unlock()
}

// markRouteDown records a hard routing failure: the worker is down
// until a probe brings it back.
func (g *Registry) markRouteDown(id string) {
	w := g.workers[id]
	if w == nil {
		return
	}
	w.mu.Lock()
	w.consecFails++
	w.status = StatusDown
	w.mu.Unlock()
}

// markRouteDraining records a 503-draining routing outcome.
func (g *Registry) markRouteDraining(id string) {
	w := g.workers[id]
	if w == nil {
		return
	}
	w.mu.Lock()
	if w.status == StatusHealthy {
		w.status = StatusDraining
	}
	w.mu.Unlock()
}

// candidates returns the members to try for key, in failover order:
// the healthy ring successors first. If nothing is healthy it returns
// the full successor order — the caller's retry loop (with backoff)
// then doubles as the fleet's recovery wait.
func (g *Registry) candidates(key string) []*workerState {
	order := g.ring.Successors(key, len(g.ids))
	healthy := make([]*workerState, 0, len(order))
	for _, id := range order {
		w := g.workers[id]
		if w.currentStatus() == StatusHealthy {
			healthy = append(healthy, w)
		}
	}
	if len(healthy) > 0 {
		return healthy
	}
	all := make([]*workerState, 0, len(order))
	for _, id := range order {
		all = append(all, g.workers[id])
	}
	return all
}

func (w *workerState) currentStatus() WorkerStatus {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.status
}

// Snapshot returns every member's state, sorted by ID, plus the
// fleet-wide minimum positive latency EWMA used as the weight anchor.
func (g *Registry) Snapshot() []WorkerInfo {
	out := make([]WorkerInfo, 0, len(g.ids))
	minEwma := 0.0
	for _, id := range g.ids {
		w := g.workers[id]
		w.mu.Lock()
		if w.ewmaSeconds > 0 && (minEwma == 0 || w.ewmaSeconds < minEwma) {
			minEwma = w.ewmaSeconds
		}
		w.mu.Unlock()
	}
	for _, id := range g.ids {
		w := g.workers[id]
		w.mu.Lock()
		out = append(out, WorkerInfo{
			ID:          id,
			RemoteID:    w.remoteID,
			Status:      w.status.String(),
			LatencyMS:   w.ewmaSeconds * 1000,
			Weight:      latencyWeight(w.ewmaSeconds, minEwma),
			Inflight:    w.inflight,
			Served:      w.served,
			Probes:      w.probes,
			ProbeFails:  w.probeFails,
			ConsecFails: w.consecFails,
		})
		w.mu.Unlock()
	}
	return out
}

// weight returns id's current latency weight in (0,1]: the ratio of
// the fastest member's EWMA to id's. Unprobed members weigh 1.
func (g *Registry) weight(id string) float64 {
	minEwma := 0.0
	for _, wid := range g.ids {
		w := g.workers[wid]
		w.mu.Lock()
		if w.ewmaSeconds > 0 && (minEwma == 0 || w.ewmaSeconds < minEwma) {
			minEwma = w.ewmaSeconds
		}
		w.mu.Unlock()
	}
	w := g.workers[id]
	if w == nil {
		return 1
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return latencyWeight(w.ewmaSeconds, minEwma)
}

// latencyWeight maps an EWMA onto (0,1] relative to the fleet's
// fastest member: 1 for the fastest (or unmeasured), shrinking as a
// member slows down relative to it.
func latencyWeight(ewma, minEwma float64) float64 {
	if ewma <= 0 || minEwma <= 0 {
		return 1
	}
	w := minEwma / ewma
	if w > 1 {
		return 1
	}
	return w
}
