package sim_test

import (
	"testing"

	"mcpaging/internal/cache"
	"mcpaging/internal/core"
	"mcpaging/internal/policy"
	"mcpaging/internal/sim"
	"mcpaging/internal/workload"
)

// allocInputs returns the request sets the allocation bounds hold on: a
// dense two-core set the engine uses as-is, and a generated four-core
// set with 10% shared pages, whose IDs (up to 3·2^16, and 2^24 and
// above) the engine renames before strategies see them.
func allocInputs(t *testing.T) []core.RequestSet {
	t.Helper()
	dense := make(core.RequestSet, 2)
	for c := range dense {
		seq := make(core.Sequence, 4096)
		for i := range seq {
			seq[i] = core.PageID(c*16 + i%16)
		}
		dense[c] = seq
	}
	sparse, err := workload.Generate(workload.Spec{Cores: 4, Length: 2048, Pages: 64,
		Kind: workload.Zipf, SharedFrac: 0.1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return []core.RequestSet{dense, sparse}
}

// A warmed Runner's serve loop is annotated //mcpaging:hotpath and must
// not allocate per request: the only allocations a whole Run may make
// are the per-run constants — the three Result slices plus the shared
// policy's Init. The bound is independent of the request count, which is
// what makes sweeps O(1) in garbage per run.
func TestRunnerRunAllocBound(t *testing.T) {
	for _, rs := range allocInputs(t) {
		rn, err := sim.NewRunner(rs)
		if err != nil {
			t.Fatal(err)
		}
		params := core.Params{K: 64, Tau: 4}
		s := policy.NewShared(lru())
		if _, err := rn.Run(params, s, nil); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := rn.Run(params, s, nil); err != nil {
				t.Fatal(err)
			}
		})
		const bound = 4
		if allocs > bound {
			t.Fatalf("warmed Runner.Run: %v allocs/run, want at most %d (%d cores, %d requests served)",
				allocs, bound, len(rs), rs.TotalLen())
		}
	}
}

// The composed controller × policy strategies must keep the same
// per-run allocation bound as the hand-rolled ones they replaced: a
// warmed Partitioned's fault/hit path is annotated //mcpaging:hotpath
// and reuses its parts, ownership table and occupancy vector across
// runs, so garbage stays O(1) regardless of request count.
func TestComposedRunAllocBound(t *testing.T) {
	for _, rs := range allocInputs(t) {
		rn, err := sim.NewRunner(rs)
		if err != nil {
			t.Fatal(err)
		}
		params := core.Params{K: 64, Tau: 4}
		arc := func() cache.Policy { return cache.NewARC() }
		for _, s := range []sim.Strategy{
			policy.NewDynamicLRU(),
			policy.NewPartitioned(policy.GlobalLRUController(), arc),
			policy.NewStatic(policy.EvenSizes(64, len(rs)), arc),
		} {
			if _, err := rn.Run(params, s, nil); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(50, func() {
				if _, err := rn.Run(params, s, nil); err != nil {
					t.Fatal(err)
				}
			})
			const bound = 4
			if allocs > bound {
				t.Fatalf("%s: %v allocs/run, want at most %d (%d cores, %d requests served)",
					s.Name(), allocs, bound, len(rs), rs.TotalLen())
			}
		}
	}
}
