package policy

import (
	"testing"

	"mcpaging/internal/cache"
	"mcpaging/internal/core"
)

// TestReapportionLargestRemainder pins the quota-rescaling helper every
// capacity-aware controller shares: proportional split, deterministic
// largest-remainder rounding, and the one-cell floor for positive
// weights.
func TestReapportionLargestRemainder(t *testing.T) {
	cases := []struct {
		name    string
		weights []int
		total   int
		want    []int
	}{
		{"exact", []int{3, 3}, 4, []int{2, 2}},
		{"remainder-to-heavier", []int{2, 1}, 4, []int{3, 1}},
		{"grow", []int{3, 3}, 8, []int{4, 4}},
		{"zero-total", []int{3, 3}, 0, []int{0, 0}},
		{"zero-weight-gets-nothing", []int{2, 0, 2}, 4, []int{2, 0, 2}},
		{"floor-for-positive-weight", []int{7, 1}, 2, []int{1, 1}},
		{"all-zero-weights", []int{0, 0}, 4, []int{0, 0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dst := make([]int, len(tc.weights))
			reapportion(dst, tc.weights, tc.total)
			sum := 0
			for j, got := range dst {
				if got != tc.want[j] {
					t.Fatalf("reapportion(%v, %d) = %v, want %v", tc.weights, tc.total, dst, tc.want)
				}
				sum += got
			}
			if tc.total > 0 && anyPositive(tc.weights) && sum != tc.total {
				t.Fatalf("granted %d of %d cells", sum, tc.total)
			}
		})
	}
}

func anyPositive(ws []int) bool {
	for _, w := range ws {
		if w > 0 {
			return true
		}
	}
	return false
}

// fillParts pushes pages through OnFault so each core's part holds its
// listed pages, mirroring the shrink_test fill pattern.
func fillParts(t *testing.T, s *Partitioned, v *fakeView, perCore [][]core.PageID) {
	t.Helper()
	for c, pages := range perCore {
		for i, pg := range pages {
			if got := s.OnFault(pg, acc(c, int64(c*100+i)), v); got != core.NoPage {
				t.Fatalf("fill core %d page %d: unexpected victim %d", c, pg, got)
			}
			v.resident[pg] = true
			v.free--
		}
	}
}

// TestStaticOnCapacityRescalesQuota pins the sP contract under K(t):
// the configured sizes act as weights, the live quota tracks the
// announced capacity both down and up, and returning to base K restores
// the configured partition exactly.
func TestStaticOnCapacityRescalesQuota(t *testing.T) {
	s := NewStatic([]int{3, 3}, func() cache.Policy { return cache.NewLRU() })
	in := core.Instance{R: core.RequestSet{{1}, {1}}, P: core.Params{K: 6}}
	if err := s.Init(in); err != nil {
		t.Fatal(err)
	}
	check := func(label string, want []int) {
		t.Helper()
		q := s.ctrl.Quota()
		for j := range want {
			if q[j] != want[j] {
				t.Fatalf("%s: quota = %v, want %v", label, q, want)
			}
		}
	}
	check("base", []int{3, 3})
	s.OnCapacity(4, 10)
	check("shrink to 4", []int{2, 2})
	s.OnCapacity(8, 20)
	check("grow to 8", []int{4, 4})
	s.OnCapacity(6, 30)
	check("back to base", []int{3, 3})
}

// TestPartitionedSurrenderOneShedsMostOverQuota pins the shed order: a
// capacity shrink drains the part most over its new quota first, ties
// to the lower core index, with ownership and occupancy maintained.
func TestPartitionedSurrenderOneShedsMostOverQuota(t *testing.T) {
	s := NewStatic([]int{3, 3}, func() cache.Policy { return cache.NewLRU() })
	in := core.Instance{R: core.RequestSet{{1}, {1}}, P: core.Params{K: 6}}
	if err := s.Init(in); err != nil {
		t.Fatal(err)
	}
	v := &fakeView{resident: map[core.PageID]bool{}, free: 6, k: 6}
	fillParts(t, s, v, [][]core.PageID{{1, 2, 3}, {11, 12}})

	// Shrink to 4: quota {2,2}; part 0 is over by 1, part 1 at quota.
	s.OnCapacity(4, 10)
	w, ok := s.SurrenderOne(v)
	if !ok {
		t.Fatal("SurrenderOne refused with a part over quota")
	}
	if w != 1 {
		t.Fatalf("shed %d, want part 0's LRU page 1", w)
	}
	if s.occ[0] != 2 {
		t.Fatalf("occ[0] = %d after shed, want 2", s.occ[0])
	}
	if _, owned := s.Owner(w); owned {
		t.Fatalf("shed page %d still owned", w)
	}
	// Both parts now hold 2 against quota 2; a further shed (engine
	// still over capacity, e.g. in-flight reservations) ties to core 0.
	w, ok = s.SurrenderOne(v)
	if !ok || w != 2 {
		t.Fatalf("tie-break shed = %d,%v; want part 0's page 2", w, ok)
	}
}

// TestPartitionedSurrenderOneSkipsPinnedParts pins the in-flight rule:
// a part whose pages are all unevictable is skipped in favor of the
// next-most-over part, and when every part refuses, ok = false so the
// engine retries at the next service step.
func TestPartitionedSurrenderOneSkipsPinnedParts(t *testing.T) {
	s := NewStatic([]int{3, 3}, func() cache.Policy { return cache.NewLRU() })
	in := core.Instance{R: core.RequestSet{{1}, {1}}, P: core.Params{K: 6}}
	if err := s.Init(in); err != nil {
		t.Fatal(err)
	}
	v := &fakeView{resident: map[core.PageID]bool{}, free: 6, k: 6}
	fillParts(t, s, v, [][]core.PageID{{1, 2, 3}, {11, 12}})
	s.OnCapacity(4, 10)

	// Pin all of part 0 (the most-over part) in flight: the shed must
	// fall through to part 1.
	for _, pg := range []core.PageID{1, 2, 3} {
		v.resident[pg] = false
	}
	w, ok := s.SurrenderOne(v)
	if !ok || w != 11 {
		t.Fatalf("shed with part 0 pinned = %d,%v; want part 1's page 11", w, ok)
	}
	// Pin everything: the shed must refuse, not spin or panic.
	for _, pg := range []core.PageID{11, 12} {
		v.resident[pg] = false
	}
	if w, ok := s.SurrenderOne(v); ok {
		t.Fatalf("all-pinned SurrenderOne yielded %d, want refusal", w)
	}
}

// TestStaticReclaimsOwedCellAfterShrink pins the under-quota rule: a
// shrink's shed stops once the cache fits K(t), which can leave one part
// above its rescaled quota while another (here an empty part, whose core
// only ever hit pages owned by others) sits below it with no free cell.
// That core's fault must take a cell from the most over-quota part
// rather than fail.
func TestStaticReclaimsOwedCellAfterShrink(t *testing.T) {
	s := NewStatic([]int{2, 2, 2}, func() cache.Policy { return cache.NewLRU() })
	in := core.Instance{R: core.RequestSet{{1}, {1}, {1}}, P: core.Params{K: 6}}
	if err := s.Init(in); err != nil {
		t.Fatal(err)
	}
	v := &fakeView{resident: map[core.PageID]bool{}, free: 6, k: 6}
	fillParts(t, s, v, [][]core.PageID{{1, 2}, {3, 4}})

	// Shrink to 3: quota {1,1,1}. One shed brings the cache to K(t) = 3
	// and the engine stops there, with part 1 still over quota.
	s.OnCapacity(3, 10)
	w, ok := s.SurrenderOne(v)
	if !ok || w != 1 {
		t.Fatalf("shed = %d,%v; want part 0's page 1", w, ok)
	}
	v.resident[w] = false
	v.free, v.k = 0, 3

	if got := s.OnFault(9, acc(2, 20), v); got != 3 {
		t.Fatalf("owed fault evicted %d, want part 1's LRU page 3", got)
	}
	for j, want := range []int{1, 1, 1} {
		if s.occ[j] != want {
			t.Fatalf("occ = %v after reclaim, want [1 1 1]", s.occ)
		}
	}
}

// TestFairControllerCapacityKeepsActiveSeats pins the FairShare rule
// under K(t): rescaling the quota never drops an active core to zero
// cells, even when the proportional share rounds to nothing.
func TestFairControllerCapacityKeepsActiveSeats(t *testing.T) {
	ctrl := FairController(0)
	in := core.Instance{R: core.RequestSet{{1}, {1}, {1}}, P: core.Params{K: 12}}
	if err := ctrl.Init(in); err != nil {
		t.Fatal(err)
	}
	if !ctrl.Capacity(3, 10) {
		t.Fatal("FairController.Capacity returned false")
	}
	q := ctrl.Quota()
	sum := 0
	for j, c := range q {
		if c < 1 {
			t.Fatalf("core %d lost its seat: quota %v", j, q)
		}
		sum += c
	}
	if sum != 3 {
		t.Fatalf("quota %v sums to %d, want 3", q, sum)
	}
}
