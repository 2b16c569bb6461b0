package policy

import (
	"fmt"
	"math/rand"
	"testing"

	"mcpaging/internal/cache"
	"mcpaging/internal/core"
	"mcpaging/internal/sim"
)

// This file pins the controller × policy refactor to the pre-refactor
// behaviour: the hand-rolled LRU strategies that used to live in
// dynamic.go, fairshare.go, ucp.go and policy.go are reproduced here
// verbatim (as ref* types) and run head-to-head against the composed
// Partitioned strategies on seeded workloads. The event streams must be
// identical, fault for fault and victim for victim — the only field
// ignored is Event.Donor, which did not exist before the refactor.

// refParts is the legacy quotaParts helper shared by the old FairShare
// and UCP implementations.
type refParts struct {
	parts  []cache.Policy
	partOf map[core.PageID]int
	occ    []int
	quota  []int
	vf     viewFuncs
}

func (q *refParts) init(p, k int, active []bool) {
	q.parts = make([]cache.Policy, p)
	for j := range q.parts {
		q.parts[j] = cache.NewLRU()
	}
	q.partOf = make(map[core.PageID]int)
	q.occ = make([]int, p)
	q.quota = EvenSizes(k, p)
	q.vf.reset()
	first := -1
	for j, a := range active {
		if a {
			first = j
			break
		}
	}
	if first >= 0 {
		for j := range q.quota {
			if !active[j] && q.quota[j] > 0 {
				q.quota[first] += q.quota[j]
				q.quota[j] = 0
			}
		}
	}
}

func (q *refParts) touch(p core.PageID, at cache.Access) {
	if j, ok := q.partOf[p]; ok {
		q.parts[j].Touch(p, at)
	}
}

func (q *refParts) shed(v sim.View) []core.PageID {
	q.vf.use(v)
	var out []core.PageID
	for j := range q.occ {
		for q.occ[j] > q.quota[j] {
			w, ok := q.parts[j].Evict(q.vf.resident)
			if !ok {
				break
			}
			delete(q.partOf, w)
			q.occ[j]--
			out = append(out, w)
		}
	}
	return out
}

func (q *refParts) fault(j int, p core.PageID, at cache.Access, v sim.View) core.PageID {
	q.vf.use(v)
	var victim core.PageID = core.NoPage
	switch {
	case q.occ[j] < q.quota[j] && v.Free() > 0:
		q.occ[j]++
	default:
		if w, ok := q.parts[j].Evict(q.vf.resident); ok {
			victim = w
			delete(q.partOf, w)
			break
		}
		donor := -1
		for c := range q.occ {
			if c == j || q.occ[c] == 0 {
				continue
			}
			if donor == -1 || q.occ[c]-q.quota[c] > q.occ[donor]-q.quota[donor] {
				donor = c
			}
		}
		if donor == -1 {
			return core.NoPage
		}
		w, ok := q.parts[donor].Evict(q.vf.resident)
		if !ok {
			return core.NoPage
		}
		victim = w
		delete(q.partOf, w)
		q.occ[donor]--
		q.occ[j]++
	}
	q.parts[j].Insert(p, at)
	q.partOf[p] = j
	return victim
}

// refStatic is the legacy Static strategy (LRU parts).
type refStatic struct {
	sizes  []int
	parts  []cache.Policy
	partOf map[core.PageID]int
	occ    []int
	vf     viewFuncs
}

func (s *refStatic) Name() string { return fmt.Sprintf("refSP%v(LRU)", s.sizes) }

func (s *refStatic) Init(inst core.Instance) error {
	p := inst.R.NumCores()
	s.parts = make([]cache.Policy, p)
	for j := range s.parts {
		s.parts[j] = cache.NewLRU()
	}
	s.partOf = make(map[core.PageID]int)
	s.occ = make([]int, p)
	s.vf.reset()
	return nil
}

func (s *refStatic) OnHit(p core.PageID, at cache.Access) {
	if j, ok := s.partOf[p]; ok {
		s.parts[j].Touch(p, at)
	}
}

func (s *refStatic) OnJoin(p core.PageID, at cache.Access) {
	if j, ok := s.partOf[p]; ok {
		s.parts[j].Touch(p, at)
	}
}

func (s *refStatic) OnFault(p core.PageID, at cache.Access, v sim.View) core.PageID {
	j := at.Core
	s.vf.use(v)
	var victim core.PageID = core.NoPage
	if s.occ[j] < s.sizes[j] {
		s.occ[j]++
	} else {
		w, ok := s.parts[j].Evict(s.vf.resident)
		if !ok {
			return core.NoPage
		}
		victim = w
		delete(s.partOf, w)
	}
	s.parts[j].Insert(p, at)
	s.partOf[p] = j
	return victim
}

// refDynamicLRU is the legacy Lemma 3 dynamic partition.
type refDynamicLRU struct {
	global *cache.LRU
	partOf map[core.PageID]int
	occ    []int
	vf     viewFuncs
}

func (d *refDynamicLRU) Name() string { return "refDP[lru-global](LRU)" }

func (d *refDynamicLRU) Init(inst core.Instance) error {
	d.global = cache.NewLRU()
	d.partOf = make(map[core.PageID]int)
	d.occ = make([]int, inst.R.NumCores())
	d.vf.reset()
	return nil
}

func (d *refDynamicLRU) OnHit(p core.PageID, at cache.Access)  { d.global.Touch(p, at) }
func (d *refDynamicLRU) OnJoin(p core.PageID, at cache.Access) { d.global.Touch(p, at) }

func (d *refDynamicLRU) OnFault(p core.PageID, at cache.Access, v sim.View) core.PageID {
	j := at.Core
	d.vf.use(v)
	var victim core.PageID = core.NoPage
	if v.Free() == 0 {
		w, ok := d.global.Evict(d.vf.resident)
		if !ok {
			return core.NoPage
		}
		victim = w
		donor := d.partOf[w]
		d.occ[donor]--
		delete(d.partOf, w)
	}
	d.global.Insert(p, at)
	d.partOf[p] = j
	d.occ[j]++
	return victim
}

// refFairShare is the legacy FairShare strategy.
type refFairShare struct {
	Window int64

	q      refParts
	window []int64
	nextAt int64
	active []bool
}

func (f *refFairShare) Name() string { return fmt.Sprintf("refDP[fair/%d](LRU)", f.Window) }

func (f *refFairShare) Init(inst core.Instance) error {
	p := inst.R.NumCores()
	f.active = make([]bool, p)
	for j := range f.active {
		f.active[j] = len(inst.R[j]) > 0
	}
	f.q.init(p, inst.P.K, f.active)
	f.window = make([]int64, p)
	f.nextAt = f.Window
	return nil
}

func (f *refFairShare) OnTick(t int64, v sim.View) []core.PageID {
	if t >= f.nextAt {
		f.nextAt = t + f.Window
		rich, poor := -1, -1
		for j := range f.window {
			if !f.active[j] {
				continue
			}
			if rich == -1 || f.window[j] > f.window[rich] {
				rich = j
			}
			if f.q.quota[j] > 1 && (poor == -1 || f.window[j] < f.window[poor]) {
				poor = j
			}
		}
		if rich >= 0 && poor >= 0 && rich != poor && f.window[rich] > f.window[poor] {
			f.q.quota[poor]--
			f.q.quota[rich]++
		}
		for j := range f.window {
			f.window[j] = 0
		}
	}
	return f.q.shed(v)
}

func (f *refFairShare) OnHit(p core.PageID, at cache.Access) { f.q.touch(p, at) }

func (f *refFairShare) OnJoin(p core.PageID, at cache.Access) {
	f.window[at.Core]++
	f.q.touch(p, at)
}

func (f *refFairShare) OnFault(p core.PageID, at cache.Access, v sim.View) core.PageID {
	f.window[at.Core]++
	return f.q.fault(at.Core, p, at, v)
}

// refUCP is the legacy UCP strategy.
type refUCP struct {
	Window int64
	Decay  int64

	k      int
	q      refParts
	mons   []*refUmon
	nextAt int64
	active []bool
}

func (u *refUCP) Name() string { return fmt.Sprintf("refDP[ucp/%d](LRU)", u.Window) }

func (u *refUCP) Init(inst core.Instance) error {
	p := inst.R.NumCores()
	u.k = inst.P.K
	u.active = make([]bool, p)
	for j := range u.active {
		u.active[j] = len(inst.R[j]) > 0
	}
	u.q.init(p, u.k, u.active)
	u.mons = make([]*refUmon, p)
	for j := range u.mons {
		u.mons[j] = newRefUmon(u.k)
	}
	u.nextAt = u.Window
	if u.Decay < 2 {
		u.Decay = 2
	}
	return nil
}

func (u *refUCP) repartition() {
	p := len(u.q.quota)
	alloc := make([]int, p)
	remaining := u.k
	for j := 0; j < p; j++ {
		if u.active[j] {
			alloc[j] = 1
			remaining--
		}
	}
	for ; remaining > 0; remaining-- {
		best, bestGain := -1, int64(-1)
		for j := 0; j < p; j++ {
			if !u.active[j] || alloc[j] >= u.k {
				continue
			}
			gain := u.mons[j].hits[alloc[j]]
			if gain > bestGain {
				best, bestGain = j, gain
			}
		}
		if best == -1 {
			break
		}
		alloc[best]++
	}
	copy(u.q.quota, alloc)
	for _, m := range u.mons {
		m.decay(u.Decay)
	}
}

func (u *refUCP) OnTick(t int64, v sim.View) []core.PageID {
	if t >= u.nextAt {
		u.nextAt = t + u.Window
		u.repartition()
	}
	return u.q.shed(v)
}

func (u *refUCP) OnHit(p core.PageID, at cache.Access) {
	u.mons[at.Core].access(p)
	u.q.touch(p, at)
}

func (u *refUCP) OnJoin(p core.PageID, at cache.Access) {
	u.mons[at.Core].access(p)
	u.q.touch(p, at)
}

func (u *refUCP) OnFault(p core.PageID, at cache.Access, v sim.View) core.PageID {
	u.mons[at.Core].access(p)
	return u.q.fault(at.Core, p, at, v)
}

// diffWorkload builds a deterministic p-core request set. With shared
// pages the cores draw from one universe (joins and cross-part hits);
// without, each core has its own page range. A phase switch halfway
// through moves every core's hot set, exercising repartitioning.
func diffWorkload(seed int64, p, pages, n int, shared bool) core.RequestSet {
	rng := rand.New(rand.NewSource(seed))
	rs := make(core.RequestSet, p)
	for j := 0; j < p; j++ {
		base := 0
		if !shared {
			base = j * pages
		}
		seq := make(core.Sequence, n)
		for i := range seq {
			off := 0
			if i >= n/2 {
				off = pages / 2 // phase switch
			}
			seq[i] = core.PageID(base + (off+rng.Intn(pages))%pages)
		}
		rs[j] = seq
	}
	return rs
}

// captureEvents runs a strategy and records its full event stream with
// the post-refactor Donor flag cleared (the field the references
// predate).
func captureEvents(t *testing.T, in core.Instance, s sim.Strategy) ([]sim.Event, sim.Result) {
	t.Helper()
	var evs []sim.Event
	res, err := sim.Run(in, s, func(e sim.Event) {
		e.Donor = false
		evs = append(evs, e)
	})
	if err != nil {
		t.Fatalf("%s: %v", s.Name(), err)
	}
	return evs, res
}

// TestDifferentialAgainstLegacy checks that each composed strategy is
// event-for-event identical to its pre-refactor hand-rolled equivalent.
func TestDifferentialAgainstLegacy(t *testing.T) {
	lruF := func() cache.Policy { return cache.NewLRU() }
	type pair struct {
		name      string
		composed  func() sim.Strategy
		reference func() sim.Strategy
	}
	k, p := 9, 3
	pairs := []pair{
		{"sP[even](LRU)",
			func() sim.Strategy { return NewStatic(EvenSizes(k, p), lruF) },
			func() sim.Strategy { return &refStatic{sizes: EvenSizes(k, p)} }},
		{"dP(LRU)",
			func() sim.Strategy { return NewDynamicLRU() },
			func() sim.Strategy { return &refDynamicLRU{} }},
		{"dP[fair](LRU)",
			func() sim.Strategy { return NewFairShare(32) },
			func() sim.Strategy { return &refFairShare{Window: 32} }},
		{"dP[ucp](LRU)",
			func() sim.Strategy { return NewUCP(32) },
			func() sim.Strategy { return &refUCP{Window: 32, Decay: 2} }},
	}
	workloads := []struct {
		name string
		rs   core.RequestSet
		tau  int
	}{
		{"disjoint", diffWorkload(1, p, 12, 600, false), 2},
		{"shared", diffWorkload(2, p, 14, 600, true), 1},
		{"tau3", diffWorkload(3, p, 10, 400, false), 3},
	}
	for _, pr := range pairs {
		for _, w := range workloads {
			t.Run(pr.name+"/"+w.name, func(t *testing.T) {
				in := core.Instance{R: w.rs, P: core.Params{K: k, Tau: w.tau}}
				got, gotRes := captureEvents(t, in, pr.composed())
				want, wantRes := captureEvents(t, in, pr.reference())
				if len(got) != len(want) {
					t.Fatalf("event count %d, want %d", len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("event %d: %+v, want %+v", i, got[i], want[i])
					}
				}
				if gotRes.TotalFaults() != wantRes.TotalFaults() ||
					gotRes.Makespan != wantRes.Makespan {
					t.Fatalf("result faults=%d makespan=%d, want faults=%d makespan=%d",
						gotRes.TotalFaults(), gotRes.Makespan,
						wantRes.TotalFaults(), wantRes.Makespan)
				}
			})
		}
	}
}
