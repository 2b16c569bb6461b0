package sweep_test

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"mcpaging/internal/core"
	"mcpaging/internal/sim"
	"mcpaging/internal/sweep"
)

func workload() core.RequestSet {
	rng := rand.New(rand.NewSource(1))
	rs := make(core.RequestSet, 3)
	for j := range rs {
		s := make(core.Sequence, 200)
		for i := range s {
			s[i] = core.PageID(100*j + rng.Intn(8))
		}
		rs[j] = s
	}
	return rs
}

func TestSweepGrid(t *testing.T) {
	g := sweep.Grid{
		R:     workload(),
		Ks:    []int{6, 12},
		Taus:  []int{0, 2},
		Specs: []string{"S(LRU)", "sP[even](LRU)", "dP(LRU)"},
		Seed:  1,
	}
	pts, err := sweep.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2*2*3 {
		t.Fatalf("got %d points, want 12", len(pts))
	}
	for _, p := range pts {
		if p.Err != nil {
			t.Fatalf("point %+v errored: %v", p, p.Err)
		}
		if p.Faults <= 0 || p.Rate <= 0 || p.Makespan <= 0 {
			t.Fatalf("implausible point %+v", p)
		}
	}
	// Grid order: K-major, then τ, then spec.
	if pts[0].K != 6 || pts[0].Tau != 0 || pts[0].Spec != "S(LRU)" {
		t.Fatalf("wrong first point %+v", pts[0])
	}
	if pts[len(pts)-1].K != 12 || pts[len(pts)-1].Tau != 2 {
		t.Fatalf("wrong last point %+v", pts[len(pts)-1])
	}
	// Lemma 3 holds inside the sweep too: dP(LRU) == S(LRU) pointwise.
	for i := 0; i < len(pts); i += 3 {
		if pts[i].Faults != pts[i+2].Faults {
			t.Fatalf("dP(LRU) diverged from S(LRU) at %+v", pts[i+2])
		}
	}
}

func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	base := sweep.Grid{
		R:     workload(),
		Ks:    []int{6, 9},
		Taus:  []int{1},
		Specs: []string{"S(LRU)", "S(FIFO)", "S(ARC)", "dP[ucp](LRU)"},
		Seed:  3,
	}
	g1, g2 := base, base
	g1.Workers = 1
	g2.Workers = 8
	a, err := sweep.Run(g1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sweep.Run(g2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("sweep results depend on worker count")
	}
}

func TestSweepValidation(t *testing.T) {
	bad := []sweep.Grid{
		{R: workload(), Ks: nil, Taus: []int{0}, Specs: []string{"S(LRU)"}},
		{R: workload(), Ks: []int{4}, Taus: nil, Specs: []string{"S(LRU)"}},
		{R: workload(), Ks: []int{4}, Taus: []int{0}, Specs: nil},
		{R: workload(), Ks: []int{2}, Taus: []int{0}, Specs: []string{"S(LRU)"}}, // K < p
		{R: workload(), Ks: []int{4}, Taus: []int{-1}, Specs: []string{"S(LRU)"}},
	}
	for i, g := range bad {
		if _, err := sweep.Run(g); err == nil {
			t.Errorf("grid %d should fail validation", i)
		}
	}
}

func TestSweepBadSpecRecordedPerPoint(t *testing.T) {
	g := sweep.Grid{
		R:     workload(),
		Ks:    []int{6},
		Taus:  []int{0},
		Specs: []string{"S(LRU)", "S(NOPE)"},
	}
	pts, err := sweep.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].Err != nil || pts[1].Err == nil {
		t.Fatalf("per-point error handling wrong: %+v", pts)
	}
}

func TestSweepTable(t *testing.T) {
	g := sweep.Grid{R: workload(), Ks: []int{6}, Taus: []int{0}, Specs: []string{"S(LRU)"}}
	pts, err := sweep.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	tbl := sweep.Table("t", pts)
	if tbl.NumRows() != 1 {
		t.Fatalf("rows = %d", tbl.NumRows())
	}
}

func TestHeatmap(t *testing.T) {
	g := sweep.Grid{
		R:     workload(),
		Ks:    []int{6, 12},
		Taus:  []int{0, 2, 4},
		Specs: []string{"S(LRU)", "S(FIFO)"},
		Seed:  1,
	}
	pts, err := sweep.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := sweep.Heatmap("t", "S(LRU)", "faults", pts)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 2 {
		t.Fatalf("rows = %d, want one per K", tbl.NumRows())
	}
	if _, err := sweep.Heatmap("t", "S(LRU)", "bogus", pts); err == nil {
		t.Fatal("unknown metric should fail")
	}
	if _, err := sweep.Heatmap("t", "S(NOPE)", "faults", pts); err == nil {
		t.Fatal("unknown spec should fail")
	}
}

func TestSweepObserveHook(t *testing.T) {
	var mu sync.Mutex
	events := map[string]int64{}
	doneSeen := map[string]int64{}
	g := sweep.Grid{
		R:     workload(),
		Ks:    []int{6, 12},
		Taus:  []int{0, 2},
		Specs: []string{"S(LRU)"},
		Seed:  1,
		Observe: func(pt sweep.Point) (sim.Observer, func(sim.Result) error) {
			if pt.Strategy == "" {
				t.Error("Observe called before the strategy was built")
			}
			key := fmt.Sprintf("k%d_tau%d", pt.K, pt.Tau)
			return func(sim.Event) {
					mu.Lock()
					events[key]++
					mu.Unlock()
				}, func(res sim.Result) error {
					mu.Lock()
					doneSeen[key] = res.TotalFaults() + res.TotalHits()
					mu.Unlock()
					return nil
				}
		},
	}
	pts, err := sweep.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		key := fmt.Sprintf("k%d_tau%d", p.K, p.Tau)
		if events[key] == 0 {
			t.Fatalf("point %s received no events", key)
		}
		// S(LRU) is not a Ticker, so every event is a served request and
		// the stream length must match the point's result.
		if events[key] != doneSeen[key] {
			t.Fatalf("point %s: %d events, done saw %d served requests", key, events[key], doneSeen[key])
		}
	}
}

func TestSweepObserveDoneError(t *testing.T) {
	g := sweep.Grid{
		R:     workload(),
		Ks:    []int{6},
		Taus:  []int{0},
		Specs: []string{"S(LRU)"},
		Seed:  1,
		Observe: func(pt sweep.Point) (sim.Observer, func(sim.Result) error) {
			return nil, func(sim.Result) error { return errors.New("export failed") }
		},
	}
	pts, err := sweep.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].Err == nil || pts[0].Err.Error() != "export failed" {
		t.Fatalf("done error not recorded on point: %v", pts[0].Err)
	}
}

// TestCellsCanonicalOrder pins the shared definition of grid order:
// K-major, then τ, then capacity, then spec — and that sweep.Run returns
// points in exactly that order.
func TestCellsCanonicalOrder(t *testing.T) {
	g := sweep.Grid{
		R:     core.RequestSet{{1, 2, 1}, {5, 6, 5}},
		Ks:    []int{2, 4},
		Taus:  []int{0, 1},
		Specs: []string{"S(LRU)", "S(FIFO)"},
	}
	cells := g.Cells()
	want := []sweep.Cell{
		{2, 0, "", "S(LRU)"}, {2, 0, "", "S(FIFO)"},
		{2, 1, "", "S(LRU)"}, {2, 1, "", "S(FIFO)"},
		{4, 0, "", "S(LRU)"}, {4, 0, "", "S(FIFO)"},
		{4, 1, "", "S(LRU)"}, {4, 1, "", "S(FIFO)"},
	}
	if len(cells) != len(want) {
		t.Fatalf("%d cells, want %d", len(cells), len(want))
	}
	for i := range want {
		if cells[i] != want[i] {
			t.Fatalf("cell %d = %+v, want %+v", i, cells[i], want[i])
		}
	}
	pts, err := sweep.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		if (sweep.Cell{p.K, p.Tau, p.Capacity, p.Spec}) != cells[i] {
			t.Fatalf("point %d (%+v) out of cell order (%+v)", i, p, cells[i])
		}
	}
}
