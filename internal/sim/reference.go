package sim

import (
	"fmt"
	"math"
	"slices"

	"mcpaging/internal/cache"
	"mcpaging/internal/core"
)

// RunReference simulates strategy s on the instance using the original
// map-based engine. It is semantically identical to Run but keeps all
// ground truth in hash maps keyed by the instance's own page IDs, with no
// state reuse. Only the strategy boundary is renamed, by the same rule
// as Run (rank order, unless the input is already dense) but with its
// own sort-and-search code, so strategies see the same IDs from both
// engines and the differential tests check the engine's renaming.
//
// It exists as an executable specification: the dense-ID fast path of Run
// is checked against it event for event by TestDenseMatchesReference
// (fixed K) and TestElasticMatchesReference (K(t)), and it is
// deliberately kept simple rather than fast. Use Run everywhere else.
//
// Elastic capacity is specified directly from the schedule: at every
// service step the capacity in force is At(t); when it differs from
// the last announced value it is announced (CapacityAware.OnCapacity
// plus a Capacity event), and then cells are shed one SurrenderOne
// victim at a time while more are occupied than K(t) allows, stopping
// when only in-flight pages remain and retrying at the next step.
func RunReference(inst core.Instance, s Strategy, obs Observer) (Result, error) {
	if err := inst.Validate(); err != nil {
		return Result{}, err
	}
	p := inst.R.NumCores()
	e := &refEngine{
		k:       inst.P.K,
		tau:     int64(inst.P.Tau),
		next:    make([]int64, p),
		idx:     make([]int, p),
		readyAt: make(map[core.PageID]int64),
		occ:     make(map[core.PageID]*refOccInfo),
		names:   refNames(inst.R),
	}
	named := inst
	if e.names != nil {
		named.R = make(core.RequestSet, p)
		for c, seq := range inst.R {
			named.R[c] = make(core.Sequence, len(seq))
			for i, pg := range seq {
				named.R[c][i] = e.rank(pg)
			}
		}
	}
	if err := s.Init(named); err != nil {
		return Result{}, fmt.Errorf("sim: strategy %s init: %w", s.Name(), err)
	}
	for c, seq := range inst.R {
		for i, pg := range seq {
			info := e.occ[pg]
			if info == nil {
				info = &refOccInfo{}
				e.occ[pg] = info
			}
			// Cores are scanned in increasing order, so if this page
			// already has a slot for core c it is necessarily the last
			// one appended — no need to search the whole slot list.
			slot := len(info.cores) - 1
			if slot < 0 || info.cores[slot] != int32(c) {
				info.cores = append(info.cores, int32(c))
				info.lists = append(info.lists, nil)
				info.ptrs = append(info.ptrs, 0)
				slot = len(info.cores) - 1
			}
			info.lists[slot] = append(info.lists[slot], int32(i))
		}
	}

	res := Result{
		Faults: make([]int64, p),
		Hits:   make([]int64, p),
		Finish: make([]int64, p),
	}
	ticker, _ := s.(Ticker)
	_, repart := s.(Repartitioner)
	sched := inst.P.Capacity
	if sched != nil && sched.Constant() {
		sched = nil
	}
	ca, err := checkSchedule(inst.R, s, sched)
	if err != nil {
		return res, err
	}

	for {
		// Next service time: min clock over unfinished cores.
		t := int64(math.MaxInt64)
		for c := 0; c < p; c++ {
			if e.idx[c] < len(inst.R[c]) && e.next[c] < t {
				t = e.next[c]
			}
		}
		if t == int64(math.MaxInt64) {
			break
		}
		e.now = t

		if sched != nil {
			if k := sched.At(t); k != e.k {
				e.k = k
				ca.OnCapacity(k, t)
				if obs != nil {
					obs(Event{Time: t, Core: -1, Index: -1, Page: core.NoPage, Victim: core.NoPage, Capacity: true, K: k})
				}
			}
			for e.used > e.k {
				sv, ok := ca.SurrenderOne(e)
				if !ok {
					break
				}
				v, err := e.evict(sv, t)
				if err != nil {
					return res, fmt.Errorf("sim: strategy %s capacity shed: %w", s.Name(), err)
				}
				res.CapacityEvictions++
				if obs != nil {
					obs(Event{Time: t, Core: -1, Index: -1, Page: v, Victim: v, Tick: true, Capacity: true})
				}
			}
		}

		if ticker != nil {
			for _, sv := range ticker.OnTick(t, e) {
				v, err := e.evict(sv, t)
				if err != nil {
					return res, fmt.Errorf("sim: strategy %s voluntary eviction: %w", s.Name(), err)
				}
				res.VoluntaryEvictions++
				if obs != nil {
					obs(Event{Time: t, Core: -1, Index: -1, Page: v, Tick: true, Donor: repart, Victim: v})
				}
			}
		}

		for c := 0; c < p; c++ {
			if e.idx[c] >= len(inst.R[c]) || e.next[c] != t {
				continue
			}
			pg := inst.R[c][e.idx[c]]
			at := cache.Access{Core: c, Time: t, Index: e.idx[c]}
			ev := Event{Time: t, Core: c, Index: e.idx[c], Page: pg, Victim: core.NoPage}

			ready, cached := e.readyAt[pg]
			switch {
			case cached && ready <= t:
				res.Hits[c]++
				e.idx[c]++
				e.next[c] = t + 1
				s.OnHit(e.rank(pg), at)
			case cached:
				res.Faults[c]++
				ev.Fault, ev.Join = true, true
				e.idx[c]++
				e.next[c] = t + e.tau + 1
				s.OnJoin(e.rank(pg), at)
			default:
				res.Faults[c]++
				ev.Fault = true
				// Advance this core's position before consulting the
				// strategy so the oracle sees the post-service state.
				e.idx[c]++
				e.next[c] = t + e.tau + 1
				sv := s.OnFault(e.rank(pg), at, e)
				if sv == core.NoPage {
					if e.used >= e.k {
						return res, fmt.Errorf("sim: strategy %s requested a free cell but cache is full (t=%d core=%d page=%d)", s.Name(), t, c, pg)
					}
				} else {
					victim, err := e.evict(sv, t)
					if err != nil {
						return res, fmt.Errorf("sim: strategy %s: %w", s.Name(), err)
					}
					ev.Victim = victim
				}
				e.readyAt[pg] = t + e.tau + 1
				e.used++
			}
			if e.idx[c] == len(inst.R[c]) {
				res.Finish[c] = e.next[c]
			}
			if obs != nil {
				obs(ev)
			}
		}
	}

	for c := 0; c < p; c++ {
		if res.Finish[c] > res.Makespan {
			res.Makespan = res.Finish[c]
		}
	}
	return res, nil
}

// refEngine is the map-based simulator state behind RunReference.
type refEngine struct {
	k   int
	tau int64

	next []int64 // per-core clock
	idx  []int   // per-core next request index

	readyAt map[core.PageID]int64 // cached pages: time the fetch completes (≤ current time ⇒ resident)
	used    int

	now int64

	// occurrence lists for the oracle, one entry per (page, core) pair
	// that requests it.
	occ map[core.PageID]*refOccInfo

	// names lists the instance's distinct page IDs in ascending order:
	// strategy ID i names page names[i]. nil when strategies see the
	// original IDs.
	names []core.PageID
}

// refNames returns the sorted distinct page IDs of rs, or nil when Run
// would use rs without renaming.
func refNames(rs core.RequestSet) []core.PageID {
	var names []core.PageID
	for _, seq := range rs {
		names = append(names, seq...)
	}
	slices.Sort(names)
	names = slices.Compact(names)
	if len(names) == 0 || directIDs(names[len(names)-1], len(names)) {
		return nil
	}
	return names
}

// rank maps an instance page to the ID strategies see.
func (e *refEngine) rank(pg core.PageID) core.PageID {
	if e.names == nil {
		return pg
	}
	i, _ := slices.BinarySearch(e.names, pg)
	return core.PageID(i)
}

// original maps a strategy ID back to the instance page; ok is false
// for IDs that name no page of a renamed instance.
func (e *refEngine) original(p core.PageID) (core.PageID, bool) {
	if e.names == nil {
		return p, true
	}
	if p < 0 || int(p) >= len(e.names) {
		return p, false
	}
	return e.names[p], true
}

// refOccInfo indexes a page's occurrences per referencing core.
type refOccInfo struct {
	cores []int32
	lists [][]int32
	ptrs  []int
}

var _ View = (*refEngine)(nil)
var _ cache.Oracle = (*refEngine)(nil)

// ready looks up the fetch-completion time of the page a strategy names
// by p.
func (e *refEngine) ready(p core.PageID) (int64, bool) {
	o, ok := e.original(p)
	if !ok {
		return 0, false
	}
	r, ok := e.readyAt[o]
	return r, ok
}

func (e *refEngine) Resident(p core.PageID) bool {
	r, ok := e.ready(p)
	return ok && r <= e.now
}

func (e *refEngine) InFlight(p core.PageID) bool {
	r, ok := e.ready(p)
	return ok && r > e.now
}

func (e *refEngine) Cached(p core.PageID) bool {
	_, ok := e.ready(p)
	return ok
}

func (e *refEngine) Original(p core.PageID) core.PageID {
	o, _ := e.original(p)
	return o
}

// Free clamps at zero: while a shrink's shed is blocked on in-flight
// pages, used may exceed K(t).
func (e *refEngine) Free() int  { return max(e.k-e.used, 0) }
func (e *refEngine) K() int     { return e.k }
func (e *refEngine) Tau() int   { return int(e.tau) }
func (e *refEngine) Now() int64 { return e.now }

// NextUse implements the FITF oracle exactly as documented on
// engine.NextUse, over the map-backed occurrence index.
func (e *refEngine) NextUse(p core.PageID) int64 {
	o, ok := e.original(p)
	if !ok {
		return cache.NeverUsed
	}
	info, ok := e.occ[o]
	if !ok {
		return cache.NeverUsed
	}
	best := cache.NeverUsed
	for i, c := range info.cores {
		// Advance this core's pointer past already-served occurrences.
		list := info.lists[i]
		j := info.ptrs[i]
		idx := int32(e.idx[c])
		for j < len(list) && list[j] < idx {
			j++
		}
		info.ptrs[i] = j
		if j == len(list) {
			continue
		}
		t := e.next[c] + int64(list[j]-idx)
		if t < best {
			best = t
		}
	}
	return best
}

// evict removes the page a strategy names by sv from ground truth,
// validating the paper's eviction rules, and returns its instance ID.
func (e *refEngine) evict(sv core.PageID, t int64) (core.PageID, error) {
	v, named := e.original(sv)
	r, ok := e.readyAt[v]
	if !named || !ok {
		return v, fmt.Errorf("evict of non-cached page %d at t=%d", v, t)
	}
	if r > t {
		return v, fmt.Errorf("evict of in-flight page %d at t=%d (ready at %d)", v, t, r)
	}
	delete(e.readyAt, v)
	e.used--
	return v, nil
}
