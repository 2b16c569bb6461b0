package cache_test

import (
	"testing"

	"mcpaging/internal/cache"
	"mcpaging/internal/core"
)

// The policies on the recency list back the simulator's hot loop; their
// steady-state operations must not allocate once the dense node array
// and the per-page slices beside it are warm (the list operations are
// annotated //mcpaging:hotpath). These tests pin that invariant so a
// regression fails CI rather than only showing up in benchmark numbers.

// warmRecency fills a policy with pages 0..n-1 so the dense arrays are
// grown and every subsequent operation stays inside them.
func warmRecency(p cache.Policy, n int) {
	for i := 0; i < n; i++ {
		p.Insert(core.PageID(i), cache.Access{})
	}
}

func TestRecencyPoliciesSteadyStateZeroAllocs(t *testing.T) {
	policies := []struct {
		name string
		p    cache.Policy
	}{
		{"LRU", cache.NewLRU()},
		{"MRU", cache.NewMRU()},
		{"FIFO", cache.NewFIFO()},
		{"CLOCK", cache.NewClock()},
		{"LFU", cache.NewLFU()},
		{"LRU2", cache.NewLRU2()},
		{"MARK", cache.NewMarking()},
		{"RAND", cache.NewRandom(1)},
		{"RMARK", cache.NewRMark(1)},
	}
	for _, tc := range policies {
		t.Run(tc.name, func(t *testing.T) {
			warmRecency(tc.p, 64)
			allocs := testing.AllocsPerRun(1000, func() {
				v, ok := tc.p.Evict(nil)
				if !ok {
					t.Fatal("evict failed on non-empty policy")
				}
				tc.p.Insert(v, cache.Access{})
				tc.p.Touch(v, cache.Access{})
			})
			if allocs != 0 {
				t.Fatalf("%s steady-state evict/insert/touch: %v allocs/op, want 0", tc.name, allocs)
			}
		})
	}
}

func TestRecencyListHitPathZeroAllocs(t *testing.T) {
	l := cache.NewLRU()
	warmRecency(l, 64)
	allocs := testing.AllocsPerRun(1000, func() {
		// The hit path of the serve loop: Contains + Touch.
		if !l.Contains(17) {
			t.Fatal("warmed page missing")
		}
		l.Touch(17, cache.Access{})
	})
	if allocs != 0 {
		t.Fatalf("LRU hit path: %v allocs/op, want 0", allocs)
	}
}
