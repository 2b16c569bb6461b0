package policy

import (
	"slices"
	"testing"

	"mcpaging/internal/cache"
	"mcpaging/internal/core"
	"mcpaging/internal/sim"
)

// fakeView is a minimal sim.View for unit-testing strategy internals.
type fakeView struct {
	resident map[core.PageID]bool
	free     int
	k        int
}

func (f *fakeView) Resident(p core.PageID) bool        { return f.resident[p] }
func (f *fakeView) InFlight(core.PageID) bool          { return false }
func (f *fakeView) Cached(p core.PageID) bool          { return f.resident[p] }
func (f *fakeView) Free() int                          { return f.free }
func (f *fakeView) K() int                             { return f.k }
func (f *fakeView) Tau() int                           { return 0 }
func (f *fakeView) Now() int64                         { return 0 }
func (f *fakeView) NextUse(core.PageID) int64          { return 0 }
func (f *fakeView) Original(p core.PageID) core.PageID { return p }

func acc(c int, t int64) cache.Access { return cache.Access{Core: c, Time: t} }

// testController is a scripted Controller for unit-testing Partitioned:
// a quota vector the test mutates in place, donor = faulting core's own
// part, with the over-quota steal fallback enabled. With ticks set it
// ticks, and its next Tick reports a quota move when moved is set.
type testController struct {
	quota        []int
	steal        bool
	ticks, moved bool
}

func (c *testController) Name() string                            { return "test" }
func (c *testController) Init(core.Instance) error                { return nil }
func (c *testController) Quota() []int                            { return c.quota }
func (c *testController) Hit(core.PageID, cache.Access)           {}
func (c *testController) Join(core.PageID, cache.Access)          {}
func (c *testController) Inserted(int, core.PageID, cache.Access) {}
func (c *testController) Evicted(core.PageID)                     {}
func (c *testController) Donor(j int, _ PartView, _ func(core.PageID) bool) (int, bool) {
	return j, true
}
func (c *testController) StealOnEmpty() bool { return c.steal }
func (c *testController) Ticks() bool        { return c.ticks }
func (c *testController) Tick(int64) bool {
	moved := c.moved
	c.moved = false
	return moved
}
func (c *testController) Capacity(int, int64) bool { return false }

// TestPartitionedDonorSteal exercises the fallback where a core whose
// part is empty (after a quota cut) must steal a cell from the most
// over-quota donor.
func TestPartitionedDonorSteal(t *testing.T) {
	ctrl := &testController{quota: []int{2, 2}, steal: true}
	s := NewPartitioned(ctrl, func() cache.Policy { return cache.NewLRU() })
	in := core.Instance{R: core.RequestSet{{1}, {1}}, P: core.Params{K: 4}}
	if err := s.Init(in); err != nil {
		t.Fatal(err)
	}
	v := &fakeView{resident: map[core.PageID]bool{}, free: 4, k: 4}

	// Core 0 fills its quota (2 cells) and one more beyond, simulating a
	// later quota shift.
	for _, pg := range []core.PageID{1, 2} {
		if got := s.OnFault(pg, acc(0, 0), v); got != core.NoPage {
			t.Fatalf("expected free-cell placement, got victim %d", got)
		}
		v.resident[pg] = true
		v.free--
	}
	// Shift quota: core 0 now 3, core 1 gets 1.
	ctrl.quota[0], ctrl.quota[1] = 3, 1
	if got := s.OnFault(3, acc(0, 1), v); got != core.NoPage {
		t.Fatalf("expected free-cell placement, got victim %d", got)
	}
	v.resident[3] = true
	v.free--

	// Core 1 faults with an empty part and one free cell → free cell.
	if got := s.OnFault(100, acc(1, 2), v); got != core.NoPage {
		t.Fatalf("expected free-cell placement, got victim %d", got)
	}
	v.resident[100] = true
	v.free = 0

	// Quota swings to core 1; its part has 1 page but quota 3, core 0 is
	// now over quota. Core 1's next fault must steal from core 0.
	ctrl.quota[0], ctrl.quota[1] = 1, 3
	// Drain core 1's own part first so it is empty.
	if w, ok := s.parts[1].Evict(nil); !ok {
		t.Fatal("expected core 1's page evictable")
	} else {
		s.partOf[w] = -1
		delete(v.resident, w)
		s.occ[1]--
		v.free++
	}
	v.free = 0 // pretend the freed cell was consumed elsewhere
	victim := s.OnFault(101, acc(1, 3), v)
	if victim == core.NoPage {
		t.Fatal("expected a stolen victim from core 0's part")
	}
	if owner, ok := s.Owner(victim); ok && owner == 0 {
		t.Fatal("victim should have been removed from the owner table")
	}
	if s.occ[0] != 2 || s.occ[1] != 1 {
		t.Fatalf("occupancies after steal: %v", s.occ)
	}
}

// TestPartitionedTickShedsOnlyWhenOver pins when a tick sheds: after a
// quota move, on the ticks after a shed that stopped at an in-flight
// page, and after a fault that stole a cell for a part already at its
// quota. Any other tick sheds nothing.
func TestPartitionedTickShedsOnlyWhenOver(t *testing.T) {
	ctrl := &testController{quota: []int{2, 2}, steal: true, ticks: true}
	s := NewPartitioned(ctrl, func() cache.Policy { return cache.NewLRU() })
	in := core.Instance{R: core.RequestSet{{1}, {1}}, P: core.Params{K: 4}}
	if err := s.Init(in); err != nil {
		t.Fatal(err)
	}
	v := &fakeView{resident: map[core.PageID]bool{}, free: 4, k: 4}
	fillParts(t, s, v, [][]core.PageID{{1, 2}, {11, 12}})
	tick := func(at int64, want ...core.PageID) {
		t.Helper()
		got := s.OnTick(at, v)
		if !slices.Equal(got, want) {
			t.Fatalf("tick %d shed %v, want %v", at, got, want)
		}
		for _, pg := range got {
			delete(v.resident, pg)
			v.free++
		}
	}
	tick(1)
	// Part 1's quota drops to 1 while both its pages are in flight: the
	// shed stops, and the next tick, with no quota move, retries it.
	ctrl.quota[0], ctrl.quota[1], ctrl.moved = 3, 1, true
	v.resident[11], v.resident[12] = false, false
	tick(2)
	v.resident[11], v.resident[12] = true, true
	tick(3, 11)
	tick(4)
	// Core 0 fills its third cell, then faults with all its pages in
	// flight: it steals part 1's cell and goes over its quota, which the
	// next tick sheds.
	if got := s.OnFault(3, acc(0, 5), v); got != core.NoPage {
		t.Fatalf("expected free-cell placement, got victim %d", got)
	}
	v.resident[3], v.free = true, 0
	v.resident[1], v.resident[2], v.resident[3] = false, false, false
	if got := s.OnFault(4, acc(0, 6), v); got != 12 {
		t.Fatalf("steal took %d, want part 1's page 12", got)
	}
	delete(v.resident, 12)
	v.resident[1], v.resident[2], v.resident[3], v.resident[4] = true, true, true, true
	tick(7, 1)
	tick(8)
}

// TestPartitionedNoDonor: when no part has pages, OnFault reports NoPage
// so the simulator can surface the protocol error.
func TestPartitionedNoDonor(t *testing.T) {
	ctrl := &testController{quota: []int{1, 1}, steal: true}
	s := NewPartitioned(ctrl, func() cache.Policy { return cache.NewLRU() })
	in := core.Instance{R: core.RequestSet{{1}, {1}}, P: core.Params{K: 2}}
	if err := s.Init(in); err != nil {
		t.Fatal(err)
	}
	v := &fakeView{resident: map[core.PageID]bool{}, free: 0, k: 2}
	if got := s.OnFault(5, acc(0, 0), v); got != core.NoPage {
		t.Fatalf("expected NoPage with an empty cache and no free cells, got %d", got)
	}
}

// TestSeedQuota verifies inactive cores donate their quota share.
func TestSeedQuota(t *testing.T) {
	q := seedQuota(nil, 6, []bool{false, true, true})
	if q[0] != 0 {
		t.Fatalf("inactive core kept quota: %v", q)
	}
	sum := 0
	for _, c := range q {
		sum += c
	}
	if sum != 6 {
		t.Fatalf("quota sum %d, want 6 (%v)", sum, q)
	}
}

func TestStrategyNames(t *testing.T) {
	lruF := func() cache.Policy { return cache.NewLRU() }
	cases := []struct {
		got, want string
	}{
		{NewShared(lruF).Name(), "S(LRU)"},
		{NewDynamicLRU().Name(), "dP[lru-global](LRU)"},
		{NewFairShare(0).Name(), "dP[fair/64](LRU)"},
		{NewUCP(0).Name(), "dP[ucp/128](LRU)"},
		{(&Func{}).Name(), "scripted"},
		{(&Func{StrategyName: "x"}).Name(), "x"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("name %q, want %q", c.got, c.want)
		}
	}
	st := NewStatic([]int{2, 2}, lruF)
	if st.Name() == "" || len(st.Sizes()) != 2 {
		t.Error("static name/sizes broken")
	}
	stg := NewStaged([]Stage{{At: 0, Sizes: []int{2, 2}}}, lruF)
	if stg.Name() == "" {
		t.Error("staged name broken")
	}
}

func TestFuncHooks(t *testing.T) {
	var hits, joins int
	f := &Func{
		StrategyName: "probe",
		Victim: func(core.PageID, cache.Access, sim.View) core.PageID {
			return core.NoPage
		},
		Hit:  func(core.PageID, cache.Access) { hits++ },
		Join: func(core.PageID, cache.Access) { joins++ },
	}
	if err := f.Init(core.Instance{R: core.RequestSet{{1}}, P: core.Params{K: 1}}); err != nil {
		t.Fatal(err)
	}
	f.OnHit(1, acc(0, 0))
	f.OnJoin(1, acc(0, 1))
	if hits != 1 || joins != 1 {
		t.Fatalf("hooks not invoked: hits=%d joins=%d", hits, joins)
	}
}

// TestPartitionedOnJoin drives every partition family through a
// non-disjoint workload so the OnJoin paths execute.
func TestPartitionedOnJoin(t *testing.T) {
	// All cores request the same page simultaneously: core 0 fetches,
	// the others join.
	rs := core.RequestSet{{7, 7}, {7, 7}, {7, 7}}
	in := core.Instance{R: rs, P: core.Params{K: 6, Tau: 3}}
	lruF := func() cache.Policy { return cache.NewLRU() }
	strategies := []sim.Strategy{
		NewShared(lruF),
		NewStatic([]int{2, 2, 2}, lruF),
		NewStaged([]Stage{{At: 0, Sizes: []int{2, 2, 2}}}, lruF),
		NewDynamicLRU(),
		NewFairShare(4),
		NewUCP(4),
	}
	for _, s := range strategies {
		res, err := sim.Run(in, s, nil)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if res.TotalFaults()+res.TotalHits() != 6 {
			t.Fatalf("%s: accounting broken", s.Name())
		}
	}
}
