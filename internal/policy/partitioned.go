package policy

import (
	"fmt"

	"mcpaging/internal/cache"
	"mcpaging/internal/core"
	"mcpaging/internal/sim"
)

// Partitioned is the generic partitioned strategy: a Controller owning
// per-core quotas and donor choice, composed with one eviction-policy
// instance per part. The static partitions sP^B_A, the staged schedules
// of Theorem 1(3), the Lemma-3 global-LRU donor rule and the FairShare
// and UCP heuristics are all Controllers, so each composes with every
// cache.Policy.
//
// Division of labour on a fault with no free (or no in-quota) cell: the
// controller picks the donor part, the donor part's policy picks the
// victim page. At step boundaries the controller may move quota between
// parts; parts above quota then surrender their policies' victims as
// voluntary (donor) evictions.
type Partitioned struct {
	ctrl Controller
	mk   cache.Factory
	name string

	parts  []evictor
	partOf []int32 // owning part by page ID, -1 for none
	occ    []int
	quota  []int // aliases ctrl.Quota(); nil = occupancy-driven
	vf     viewFuncs
	ticks  bool
	// over is set when a part may hold more cells than its quota: the
	// quota moved, a fault moved a cell to a part already at its quota,
	// or a shed stopped at an in-flight page. OnTick scans the parts only
	// while it is set, and clears it once a scan leaves none over.
	over bool

	// Scratch reused across calls: the pages OnTick returns (the engine
	// reads them before the next call) and SurrenderOne's refused parts.
	shed []core.PageID
	skip []bool
}

// NewPartitioned composes a partition controller with an eviction-policy
// factory. The strategy name is ctrl.Name() + "(" + policy name + ")".
func NewPartitioned(ctrl Controller, mk cache.Factory) *Partitioned {
	p := mk()
	return &Partitioned{ctrl: ctrl, mk: mk,
		name: ctrl.Name() + "(" + p.Name() + ")", ticks: ctrl.Ticks()}
}

// Name implements sim.Strategy.
func (s *Partitioned) Name() string { return s.name }

// Repartitions marks Partitioned for the telemetry layer: its voluntary
// evictions are donor evictions — cells moving between parts — so the
// simulator flags them as partition changes (sim.Event.Donor).
func (s *Partitioned) Repartitions() {}

// Init implements sim.Strategy.
func (s *Partitioned) Init(inst core.Instance) error {
	if cs := inst.P.Capacity; cs != nil && !cs.Constant() {
		active := 0
		for _, seq := range inst.R {
			if len(seq) > 0 {
				active++
			}
		}
		if cs.Min() < active {
			return fmt.Errorf("policy: capacity schedule %s reaches %d cells, below %d active cores",
				cs, cs.Min(), active)
		}
	}
	if err := s.ctrl.Init(inst); err != nil {
		return err
	}
	s.quota = s.ctrl.Quota()
	p := inst.R.NumCores()
	if len(s.parts) != p {
		s.parts = make([]evictor, p)
		for j := range s.parts {
			s.parts[j] = newEvictor(s.mk())
		}
		s.skip = make([]bool, p)
	} else {
		for j := range s.parts {
			s.parts[j].Reset()
		}
	}
	for j := range s.parts {
		if s.quota != nil {
			s.parts[j].Resize(s.quota[j])
		} else {
			// Occupancy-driven: any part may grow to the whole cache.
			s.parts[j].Resize(inst.P.K)
		}
	}
	for i := range s.partOf {
		s.partOf[i] = -1
	}
	if len(s.occ) != p {
		s.occ = make([]int, p)
	} else {
		clear(s.occ)
	}
	s.vf.reset()
	s.over = false
	return nil
}

// Parts implements PartView.
func (s *Partitioned) Parts() int { return len(s.parts) }

// Occ implements PartView.
func (s *Partitioned) Occ(j int) int { return s.occ[j] }

// Owner implements PartView.
func (s *Partitioned) Owner(p core.PageID) (int, bool) {
	if uint(p) >= uint(len(s.partOf)) || s.partOf[p] < 0 {
		return 0, false
	}
	return int(s.partOf[p]), true
}

// setOwner records part j as p's owner, growing the table to cover p.
func (s *Partitioned) setOwner(p core.PageID, j int) {
	if int(p) >= len(s.partOf) {
		partOf := make([]int32, max(2*len(s.partOf), int(p)+1, 16))
		copy(partOf, s.partOf)
		for i := len(s.partOf); i < len(partOf); i++ {
			partOf[i] = -1
		}
		s.partOf = partOf
	}
	s.partOf[p] = int32(j)
}

// PartSizes returns the current partition (cells owned per core).
func (s *Partitioned) PartSizes() []int { return append([]int(nil), s.occ...) }

// Quota returns a copy of the controller's per-core cell targets; nil
// for occupancy-driven controllers.
func (s *Partitioned) Quota() []int {
	q := s.ctrl.Quota()
	if q == nil {
		return nil
	}
	return append([]int(nil), q...)
}

// Sizes returns a copy of the configured partition sizes (the quota
// vector). For a static partition it is available before Init.
func (s *Partitioned) Sizes() []int { return append([]int(nil), s.ctrl.Quota()...) }

// OnHit implements sim.Strategy. The hit may land in another core's part
// when sequences share pages; metadata is updated where the page lives.
//
//mcpaging:hotpath
func (s *Partitioned) OnHit(p core.PageID, at cache.Access) {
	if j, ok := s.Owner(p); ok {
		s.parts[j].Touch(p, at)
	}
	s.ctrl.Hit(p, at)
}

// OnJoin implements sim.Strategy.
//
//mcpaging:hotpath
func (s *Partitioned) OnJoin(p core.PageID, at cache.Access) {
	if j, ok := s.Owner(p); ok {
		s.parts[j].Touch(p, at)
	}
	s.ctrl.Join(p, at)
}

// OnFault implements sim.Strategy. The faulting core grows its part when
// the cache has a free cell and the controller's quota (if any) allows
// it; otherwise the controller picks the donor part and the donor's
// policy picks the victim.
//
//mcpaging:hotpath
func (s *Partitioned) OnFault(p core.PageID, at cache.Access, v sim.View) core.PageID {
	j := at.Core
	if s.vf.use(v) {
		for _, part := range s.parts {
			bindOracle(part.Policy, v)
		}
	}
	var victim core.PageID = core.NoPage
	if v.Free() > 0 && (s.quota == nil || s.occ[j] < s.quota[j]) {
		s.occ[j]++
	} else {
		d, ok := s.ctrl.Donor(j, s, s.vf.resident)
		if !ok {
			return core.NoPage // protocol error surfaces in the simulator
		}
		var w core.PageID
		if d == j {
			w, ok = s.parts[j].evictFor(p, s.vf.resident)
		} else {
			w, ok = s.parts[d].Evict(s.vf.resident)
		}
		if !ok {
			// A part below its quota with no free cell is owed one: under
			// K(t), a shrink's shed stops once used <= K, and can leave
			// another part holding cells past its rescaled quota.
			owed := s.quota != nil && s.occ[j] < s.quota[j]
			if d != j || !(s.ctrl.StealOnEmpty() || owed) {
				return core.NoPage
			}
			// Own part empty or wholly in flight (possible right after a
			// quota cut): steal a cell from the most over-quota donor.
			d = -1
			for c := range s.occ {
				if c == j || s.occ[c] == 0 {
					continue
				}
				if d == -1 || s.occ[c]-s.quota[c] > s.occ[d]-s.quota[d] {
					d = c
				}
			}
			if d == -1 {
				return core.NoPage
			}
			w, ok = s.parts[d].Evict(s.vf.resident)
			if !ok {
				return core.NoPage
			}
		}
		victim = w
		s.partOf[w] = -1
		if d != j {
			s.occ[d]--
			s.occ[j]++
			if s.quota != nil && s.occ[j] > s.quota[j] {
				s.over = true
			}
		}
		s.ctrl.Evicted(w)
	}
	s.parts[j].Insert(p, at)
	s.setOwner(p, j)
	s.ctrl.Inserted(j, p, at)
	return victim
}

// Ticks implements sim.Ticking: only a controller that repartitions
// over time ticks, so the engine never calls OnTick for the static and
// global-LRU controllers.
func (s *Partitioned) Ticks() bool { return s.ticks }

// OnTick implements sim.Ticker: the controller may repartition, and
// parts above quota surrender their policies' victims as donations. For
// tickless controllers (static, global-LRU) this is a no-op, so the
// composed strategy's event stream matches a tickless strategy's.
func (s *Partitioned) OnTick(t int64, v sim.View) []core.PageID {
	if !s.ticks || s.quota == nil {
		return nil
	}
	if s.ctrl.Tick(t) {
		s.quota = s.ctrl.Quota()
		for j := range s.parts {
			s.parts[j].Resize(s.quota[j])
		}
		s.over = true
	}
	if !s.over {
		return nil
	}
	out := s.shed[:0]
	s.over = false
	for j := range s.occ {
		over := s.occ[j] - s.quota[j]
		if over <= 0 {
			continue
		}
		if s.vf.use(v) {
			for _, part := range s.parts {
				bindOracle(part.Policy, v)
			}
		}
		for i := 0; i < over; i++ {
			w, ok := s.parts[j].Evict(s.vf.resident)
			if !ok {
				s.over = true // in-flight pages; retried next tick
				break
			}
			s.partOf[w] = -1
			s.occ[j]--
			s.ctrl.Evicted(w)
			out = append(out, w)
		}
	}
	s.shed = out
	return out
}

// OnCapacity implements sim.CapacityAware: the controller re-derives
// its quota for the new capacity and every part is re-announced its
// size. Like Resize, this never evicts — the engine drains any
// overage through SurrenderOne at the same service time.
func (s *Partitioned) OnCapacity(k int, t int64) {
	if s.ctrl.Capacity(k, t) {
		s.quota = s.ctrl.Quota()
		s.over = true
	}
	for j := range s.parts {
		if s.quota != nil {
			s.parts[j].Resize(s.quota[j])
		} else {
			// Occupancy-driven: any part may grow to the whole cache.
			s.parts[j].Resize(k)
		}
	}
}

// SurrenderOne implements sim.CapacityAware: one page is shed under
// capacity pressure from the part most over its quota (most occupied,
// for occupancy-driven controllers), ties to the lower core index. A
// part whose pages are all in flight is skipped; ok=false when every
// part refuses, and the engine retries at the next service step.
func (s *Partitioned) SurrenderOne(v sim.View) (core.PageID, bool) {
	if s.vf.use(v) {
		for _, part := range s.parts {
			bindOracle(part.Policy, v)
		}
	}
	skip := s.skip
	clear(skip)
	for {
		best, bestOver := -1, 0
		for j := range s.parts {
			if skip[j] || s.occ[j] == 0 {
				continue
			}
			over := s.occ[j]
			if s.quota != nil {
				over = s.occ[j] - s.quota[j]
			}
			if best == -1 || over > bestOver {
				best, bestOver = j, over
			}
		}
		if best == -1 {
			return core.NoPage, false
		}
		w, ok := s.parts[best].Evict(s.vf.resident)
		if !ok {
			skip[best] = true
			continue
		}
		s.partOf[w] = -1
		s.occ[best]--
		s.ctrl.Evicted(w)
		return w, true
	}
}
