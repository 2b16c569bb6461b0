package main

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"mcpaging/internal/fleet"
	"mcpaging/internal/server"
)

// stack is the system under test, served on loopback listeners inside
// the benchmark process: one mcservd, or an mcfleet gateway over two
// mcservd workers with one simulation worker each — two simulation
// threads either way on a two-core host.
type stack struct {
	url     string                   // where the load goes
	nodes   []string                 // mcservd base URLs (the fleet's workers)
	clients map[string]*fleet.Client // a fleet client per node, keyed by URL
	reg     *fleet.Registry
	gw      *fleet.Gateway
	mcservd []*server.Server

	https []*http.Server
	serve sync.WaitGroup
}

func startStack(ctx context.Context, useFleet bool) (*stack, error) {
	s := &stack{clients: map[string]*fleet.Client{}}
	if !useFleet {
		srv := server.New(server.Config{})
		url, err := s.listen(srv.Handler())
		if err != nil {
			srv.Drain()
			return nil, err
		}
		s.mcservd = []*server.Server{srv}
		s.url, s.nodes = url, []string{url}
		s.clients[url] = fleet.NewClient(url, nil, nil, fleet.Backoff{}, 1)
		return s, nil
	}
	var clients []*fleet.Client
	for i := 0; i < 2; i++ {
		// A queue as deep as the dispatcher's default in-flight limit per
		// worker (4), so the gateway never overruns a one-thread worker.
		// At the default depth (2 × Workers) one cell in four is refused
		// with 429 and waits out a one-second Retry-After, and the
		// workload would time that sleep instead of the fleet.
		srv := server.New(server.Config{Workers: 1, QueueDepth: 4, WorkerID: "w" + strconv.Itoa(i+1)})
		s.mcservd = append(s.mcservd, srv)
		url, err := s.listen(srv.Handler())
		if err != nil {
			s.close()
			return nil, err
		}
		s.nodes = append(s.nodes, url)
		c := fleet.NewClient(url, nil, nil, fleet.Backoff{}, int64(i+1))
		s.clients[url] = c
		clients = append(clients, c)
	}
	reg, err := fleet.NewRegistry(clients, 64, fleet.RegistryConfig{}, nil)
	if err != nil {
		s.close()
		return nil, err
	}
	disp := fleet.NewDispatcher(reg, fleet.DispatcherConfig{}, nil, nil)
	s.gw = fleet.NewGateway(disp, fleet.GatewayConfig{QuotaRate: -1}, nil, nil)
	// The same start-up sequence as cmd/mcfleet: one synchronous probe
	// round, then the background probe loop.
	reg.ProbeAll(ctx)
	reg.Start(ctx)
	s.reg = reg
	if s.url, err = s.listen(s.gw.Handler()); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *stack) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	s.https = append(s.https, hs)
	s.serve.Add(1)
	go func() {
		defer s.serve.Done()
		_ = hs.Serve(ln) // returns ErrServerClosed once close shuts it down
	}()
	return "http://" + ln.Addr().String(), nil
}

// close shuts the listeners down front to back, drains the gateway and
// the servers, stops the probe loop, and waits for every serving
// goroutine to return.
func (s *stack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := len(s.https) - 1; i >= 0; i-- {
		_ = s.https[i].Shutdown(ctx)
	}
	if s.gw != nil {
		s.gw.Drain()
	}
	if s.reg != nil {
		s.reg.Close()
	}
	for _, srv := range s.mcservd {
		srv.Drain()
	}
	s.serve.Wait()
}

// owner returns the mcservd node that serves key: the ring owner under
// the fleet, the only node otherwise.
func (s *stack) owner(key string) string {
	if s.reg == nil {
		return s.nodes[0]
	}
	return s.reg.Ring().Lookup(key)
}

// counters scrapes the Prometheus text of every mcservd node (summed)
// and of the gateway, keyed by metric name. Labelled series are summed
// under their bare name.
func (s *stack) counters(ctx context.Context, hc *http.Client) (map[string]float64, error) {
	out := map[string]float64{}
	urls := append([]string(nil), s.nodes...)
	if s.gw != nil {
		urls = append(urls, s.url)
	}
	for _, u := range urls {
		if err := scrape(ctx, hc, u+"/metrics", out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func scrape(ctx context.Context, hc *http.Client, url string, into map[string]float64) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if strings.Contains(name, "quantile=") {
				continue
			}
			name = name[:i]
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return fmt.Errorf("GET %s: %q: %w", url, line, err)
		}
		into[name] += v
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return nil
}

// ratio is a/(a+b), 0 when both are 0.
func ratio(a, b float64) float64 {
	if a+b == 0 {
		return 0
	}
	return a / (a + b)
}
