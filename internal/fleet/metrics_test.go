package fleet

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the exposition golden file")

// TestExpositionGolden pins writePrometheus's bytes for fixed counters
// and two workers, one healthy and one down, so any change to how the
// coordinator's /metrics is written shows up as a diff against
// testdata. The values include ones %g prints in exponent form.
// Regenerate with:
//
//	go test ./internal/fleet -run ExpositionGolden -update
func TestExpositionGolden(t *testing.T) {
	m := &fleetMetrics{}
	for i, n := range []*atomic.Int64{
		&m.jobs, &m.sweeps, &m.cells, &m.cellErrors, &m.routedOwner, &m.routedSpill,
		&m.failovers, &m.retryRounds, &m.quotaDenied, &m.shed, &m.cellsInflight,
	} {
		n.Store(int64(i*i*1000 + i))
	}
	workers := []WorkerInfo{
		{ID: "http://127.0.0.1:8081", Status: "healthy", LatencyMS: 1.25, Weight: 1, Inflight: 3,
			Served: 1234567, Probes: 40, ProbeFails: 0},
		{ID: `http://w2"x:8082`, Status: "down", LatencyMS: 12.5, Weight: 0.1, Inflight: 0,
			Served: 77, Probes: 41, ProbeFails: 5, ConsecFails: 2},
	}
	var b bytes.Buffer
	if err := m.writePrometheus(&b, workers, 3, false); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "metrics.prom")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden missing (run with -update): %v", err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		t.Fatalf("exposition differs from golden (regenerate with -update if the change is intended)\ngot:\n%s\nwant:\n%s", b.Bytes(), want)
	}
}
