package sim_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"mcpaging/internal/core"
	"mcpaging/internal/policy"
	"mcpaging/internal/sim"
)

// bigLoop builds a single-core scan long enough that a full run takes
// many cancellation-check intervals, and a Runner bound to it.
func bigLoop(t *testing.T, n, pages int) *sim.Runner {
	t.Helper()
	seq := make(core.Sequence, n)
	for i := range seq {
		seq[i] = core.PageID(i % pages)
	}
	rn, err := sim.NewRunner(core.RequestSet{seq})
	if err != nil {
		t.Fatal(err)
	}
	return rn
}

func TestRunContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rn := bigLoop(t, 1_000_000, 4096)
	start := time.Now()
	_, err := rn.RunContext(ctx, core.Params{K: 64, Tau: 4}, policy.NewShared(lru()), nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The first poll fires within one check interval: far sooner than the
	// full million-request run.
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("cancelled run took %v, want prompt return", d)
	}
}

func TestRunContextCancelledMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	rn := bigLoop(t, 2_000_000, 8192)
	served := 0
	obs := func(sim.Event) {
		served++
		if served == 10_000 {
			cancel()
		}
	}
	res, err := rn.RunContext(ctx, core.Params{K: 256, Tau: 8}, policy.NewShared(lru()), obs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The partial result stops within one check interval of the cancel.
	total := res.TotalFaults() + res.TotalHits()
	if total >= 2_000_000 {
		t.Fatalf("run served all %d requests despite cancellation", total)
	}
}

func TestRunContextDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	rn := bigLoop(t, 500_000, 4096)
	_, err := rn.RunContext(ctx, core.Params{K: 64, Tau: 4}, policy.NewShared(lru()), nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestRunContextNilAndBackground(t *testing.T) {
	in := inst(2, 1, core.Sequence{1, 2, 1}, core.Sequence{3, 4, 3})
	want, err := sim.Run(in, policy.NewShared(lru()), nil)
	if err != nil {
		t.Fatal(err)
	}
	rn, err := sim.NewRunner(in.R)
	if err != nil {
		t.Fatal(err)
	}
	//lint:ignore SA1012 nil ctx is explicitly documented as Background.
	got, err := rn.RunContext(nil, in.P, policy.NewShared(lru()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalFaults() != want.TotalFaults() || got.Makespan != want.Makespan {
		t.Fatalf("nil-ctx run diverged: %+v vs %+v", got, want)
	}
}

func TestRunnerBindRebindsAcrossWorkloads(t *testing.T) {
	a := core.RequestSet{{1, 2, 3, 1, 2, 3}}
	b := core.RequestSet{{7, 7, 7}, {9, 8, 9}}
	rn, err := sim.NewRunner(a)
	if err != nil {
		t.Fatal(err)
	}
	p := core.Params{K: 2, Tau: 1}
	got, err := rn.Run(p, policy.NewShared(lru()), nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.Run(core.Instance{R: a, P: p}, policy.NewShared(lru()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalFaults() != want.TotalFaults() {
		t.Fatalf("first bind: faults %d, want %d", got.TotalFaults(), want.TotalFaults())
	}
	if err := rn.Bind(b); err != nil {
		t.Fatal(err)
	}
	p2 := core.Params{K: 3, Tau: 2}
	got, err = rn.Run(p2, policy.NewShared(lru()), nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err = sim.Run(core.Instance{R: b, P: p2}, policy.NewShared(lru()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalFaults() != want.TotalFaults() || got.Makespan != want.Makespan {
		t.Fatalf("rebind: got %+v, want %+v", got, want)
	}
	rn.Release()
	if err := rn.Bind(a); err != nil {
		t.Fatalf("bind after release: %v", err)
	}
	if _, err := rn.Run(p, policy.NewShared(lru()), nil); err != nil {
		t.Fatalf("run after release+rebind: %v", err)
	}
}
