package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"mcpaging/internal/server"
	"mcpaging/internal/workload"
)

// BenchmarkFleetSweep is one POST /v1/sweep of a 16-cell grid (2 K ×
// 2 τ × 4 strategies) over a 4 × 12 500 zipf workload, through a
// Gateway over two httptest mcservd workers with one simulation worker
// and a queue of 4 each: the repository benchmark's fleet-sweep stack,
// with the gateway's handler driven in-process. Each iteration's
// workload seed is new, so every cell misses the result cache and each
// worker resolves the spec for the first cell it gets.
func BenchmarkFleetSweep(b *testing.B) {
	var clients []*Client
	for i := 0; i < 2; i++ {
		srv := server.New(server.Config{Workers: 1, QueueDepth: 4, WorkerID: "w" + strconv.Itoa(i+1)})
		ts := httptest.NewServer(srv.Handler())
		b.Cleanup(func() {
			ts.Close()
			srv.Drain()
		})
		clients = append(clients, NewClient(ts.URL, nil, nil, Backoff{}, int64(i+1)))
	}
	reg, err := NewRegistry(clients, 64, RegistryConfig{}, nil)
	if err != nil {
		b.Fatal(err)
	}
	reg.ProbeAll(context.Background())
	gw := NewGateway(NewDispatcher(reg, DispatcherConfig{}, nil, nil), GatewayConfig{QuotaRate: -1}, nil, nil)
	b.Cleanup(gw.Drain)
	h := gw.Handler()

	bodies := make([][]byte, b.N)
	for i := range bodies {
		wl := workload.Spec{Kind: workload.Zipf, Cores: 4, Length: 12500, Pages: 512, Seed: int64(i + 1)}
		raw, err := json.Marshal(server.SweepRequest{Trace: server.TraceInput{Workload: &wl},
			Ks: []int{64, 256}, Taus: []int{0, 8},
			Strategies: []string{"S(LRU)", "sP[even](LRU)", "dP(LRU)", "S(ARC)"}, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		bodies[i] = raw
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sweep", bytes.NewReader(bodies[i])))
		if rec.Code != http.StatusOK || bytes.Count(rec.Body.Bytes(), []byte("\n")) != 16 ||
			bytes.Contains(rec.Body.Bytes(), []byte(`"error"`)) {
			b.Fatalf("sweep: status %d: %s", rec.Code, rec.Body)
		}
	}
}
