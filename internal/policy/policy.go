// Package policy implements the cache-management strategies the paper
// classifies in Section 4: shared strategies S_A, static partitions
// sP^B_A, and dynamic partitions dP^D_A, together with scripted
// strategies used by offline constructions.
//
// A strategy pairs a partition discipline with an eviction policy from
// package cache. The simulator (package sim) owns ground truth; the
// strategies here own replacement metadata and part occupancy.
//
// All strategies assume K ≥ p (there is always at least one resident,
// evictable page when a victim is needed); the paper's own tall-cache
// assumption K ≥ p² is stronger.
//
// # Per-run binding
//
// A strategy resolves once per run what does not change within it, so
// the fault path pays no lookup for it:
//
//   - Each policy's victim path, cache.IncomingEvictor's EvictFor or
//     plain Evict, is resolved when the strategy builds the policy;
//     Init's Reset keeps the policy, and so the path.
//   - The View is bound at a run's first callback that carries one
//     (OnFault, OnTick or SurrenderOne): the evictability predicate is
//     built and oracles are attached then, and later callbacks of the
//     run reuse them. The engine passes one View for a whole run, and
//     Init unbinds it, so a reused strategy never keeps the previous
//     run's.
//   - The engine asks once per run, after Init, whether a strategy
//     ticks (sim.Ticking). Partitioned ticks only under a controller
//     that repartitions over time (FairShare, UCP, staged); the static
//     and global-LRU controllers, and so every sP and dP[lru-global]
//     strategy, are never called at step boundaries.
package policy

import (
	"fmt"

	"mcpaging/internal/cache"
	"mcpaging/internal/core"
	"mcpaging/internal/sim"
)

// bindOracle attaches the simulator view (which implements cache.Oracle)
// to policies that want it, such as FITF and TinyLFU.
func bindOracle(p cache.Policy, v sim.View) {
	if ou, ok := p.(cache.OracleUser); ok {
		ou.SetOracle(oracleView{v})
	}
}

// oracleView adapts sim.View to cache.Oracle.
type oracleView struct{ v sim.View }

func (o oracleView) NextUse(p core.PageID) int64        { return o.v.NextUse(p) }
func (o oracleView) Original(p core.PageID) core.PageID { return o.v.Original(p) }

// residentOnly returns the evictability predicate for a view: only pages
// whose fetch has completed may be evicted.
func residentOnly(v sim.View) func(core.PageID) bool {
	return func(p core.PageID) bool { return v.Resident(p) }
}

// viewFuncs holds the per-run adapters of a strategy's View — the
// evictability predicate, and whether oracles have been bound — so the
// fault path neither allocates a closure (nor boxes an oracle adapter)
// on every fault nor compares Views. The simulator passes the same View
// for the whole run, so the first callback that carries one binds it.
//
// Strategies must call reset() in Init: a reused strategy may otherwise
// hold a predicate over the previous run's view.
type viewFuncs struct {
	resident func(core.PageID) bool // nil until the run's View is bound
}

func (c *viewFuncs) reset() { c.resident = nil }

// use binds v if the run has not bound a View yet and reports whether
// it did (the run's first View-bearing callback), in which case the
// caller should bind oracles.
func (c *viewFuncs) use(v sim.View) bool {
	if c.resident != nil {
		return false
	}
	c.resident = residentOnly(v)
	return true
}

// evictor is a policy with its victim path resolved once, when the
// policy is built: the incoming-aware path (ARC's ghost-directed
// REPLACE) when the policy offers one, else Evict.
type evictor struct {
	cache.Policy
	inc cache.IncomingEvictor // nil when the policy has no incoming-aware path
}

// newEvictor resolves p's victim path.
func newEvictor(p cache.Policy) evictor {
	inc, _ := p.(cache.IncomingEvictor)
	return evictor{Policy: p, inc: inc}
}

// evictFor asks the policy for a victim to make room for incoming.
func (e evictor) evictFor(incoming core.PageID, evictable func(core.PageID) bool) (core.PageID, bool) {
	if e.inc != nil {
		return e.inc.EvictFor(incoming, evictable)
	}
	return e.Evict(evictable)
}

// Shared manages the whole cache as one replacement domain: the paper's
// S_A strategy for eviction policy A.
type Shared struct {
	pol  evictor
	mk   cache.Factory
	vf   viewFuncs
	name string
}

// NewShared returns the shared strategy S_A for the policy built by mk.
func NewShared(mk cache.Factory) *Shared {
	p := mk()
	return &Shared{pol: newEvictor(p), mk: mk, name: "S(" + p.Name() + ")"}
}

// Name implements sim.Strategy.
func (s *Shared) Name() string { return s.name }

// Init implements sim.Strategy. A reused strategy resets its policy in
// place rather than rebuilding it, so replays keep the policy's warmed-up
// internal arrays (that is the Policy.Reset contract: indistinguishable
// from fresh).
func (s *Shared) Init(inst core.Instance) error {
	if s.pol.Policy == nil {
		s.pol = newEvictor(s.mk())
	} else {
		s.pol.Reset()
	}
	s.pol.Resize(inst.P.K)
	s.vf.reset()
	return nil
}

// OnHit implements sim.Strategy.
func (s *Shared) OnHit(p core.PageID, at cache.Access) { s.pol.Touch(p, at) }

// OnJoin implements sim.Strategy. A join is a use of the in-flight page,
// so it refreshes replacement metadata like a hit.
func (s *Shared) OnJoin(p core.PageID, at cache.Access) { s.pol.Touch(p, at) }

// RemoveMetadata drops a page from the shared replacement metadata. It is
// used by wrappers that voluntarily evict pages (forcing strategies): the
// ground-truth eviction is reported to the simulator via sim.Ticker and
// this call keeps the policy's view consistent.
func (s *Shared) RemoveMetadata(p core.PageID) { s.pol.Remove(p) }

// OnFault implements sim.Strategy.
func (s *Shared) OnFault(p core.PageID, at cache.Access, v sim.View) core.PageID {
	if s.vf.use(v) {
		bindOracle(s.pol.Policy, v)
	}
	var victim core.PageID = core.NoPage
	if v.Free() == 0 {
		w, ok := s.pol.evictFor(p, s.vf.resident)
		if !ok {
			// No resident page to evict; the simulator will report the
			// protocol violation. Cannot happen when K ≥ p.
			return core.NoPage
		}
		victim = w
	}
	s.pol.Insert(p, at)
	return victim
}

// OnCapacity implements sim.CapacityAware: the shared policy is told
// its new domain size; shedding happens via SurrenderOne.
func (s *Shared) OnCapacity(k int, _ int64) { s.pol.Resize(k) }

// SurrenderOne implements sim.CapacityAware: the policy evicts its
// victim among the resident pages. ok=false when every resident page is
// in flight; the engine retries at the next service step.
func (s *Shared) SurrenderOne(v sim.View) (core.PageID, bool) {
	if s.vf.use(v) {
		bindOracle(s.pol.Policy, v)
	}
	return s.pol.Evict(s.vf.resident)
}

// staticController fixes the partition for the whole run: the paper's
// sP^B family. The faulting core always evicts from its own part and
// never grows past its configured size. Under an elastic capacity
// schedule the configured sizes act as weights: each announcement
// rescales the live quota proportionally (largest-remainder rounding),
// so the partition keeps its shape while tracking K(t).
type staticController struct {
	conf  []int // configured sizes; never mutated after construction
	sizes []int // live quota, aliased by Partitioned
	baseK int   // inst.P.K, captured at Init
	name  string
}

// StaticController returns the controller of the static partition sP^B.
// The sizes must sum to at most K (validated at Init) and every core
// with a non-empty sequence must receive at least one cell.
func StaticController(sizes []int) Controller {
	c := append([]int(nil), sizes...)
	return &staticController{conf: c, sizes: append([]int(nil), c...),
		name: fmt.Sprintf("sP%v", c)}
}

// NewStatic returns the static-partition strategy sP^B_A: part j of size
// B[j] is reserved for core j's pages and runs its own instance of the
// eviction policy built by mk.
func NewStatic(sizes []int, mk cache.Factory) *Partitioned {
	return NewPartitioned(StaticController(sizes), mk)
}

// Name implements Controller.
func (c *staticController) Name() string { return c.name }

// Quota implements Controller: the configured sizes, fixed for the run
// and available before Init.
func (c *staticController) Quota() []int { return c.sizes }

// Init implements Controller.
func (c *staticController) Init(inst core.Instance) error {
	p := inst.R.NumCores()
	if len(c.conf) != p {
		return fmt.Errorf("policy: partition has %d parts for %d cores", len(c.conf), p)
	}
	sum := 0
	for j, k := range c.conf {
		if k < 0 {
			return fmt.Errorf("policy: negative part size %d for core %d", k, j)
		}
		if k == 0 && len(inst.R[j]) > 0 {
			return fmt.Errorf("policy: core %d is active but has no cache", j)
		}
		sum += k
	}
	if sum > inst.P.K {
		return fmt.Errorf("policy: partition sizes sum to %d > K=%d", sum, inst.P.K)
	}
	c.baseK = inst.P.K
	copy(c.sizes, c.conf)
	return nil
}

// Hit implements Controller.
func (c *staticController) Hit(core.PageID, cache.Access) {}

// Join implements Controller.
func (c *staticController) Join(core.PageID, cache.Access) {}

// Inserted implements Controller.
func (c *staticController) Inserted(int, core.PageID, cache.Access) {}

// Evicted implements Controller.
func (c *staticController) Evicted(core.PageID) {}

// Donor implements Controller: the victim always comes from the faulting
// core's own part.
func (c *staticController) Donor(j int, _ PartView, _ func(core.PageID) bool) (int, bool) {
	return j, true
}

// StealOnEmpty implements Controller.
func (c *staticController) StealOnEmpty() bool { return false }

// Tick implements Controller.
func (c *staticController) Tick(int64) bool { return false }

// Ticks implements Controller.
func (c *staticController) Ticks() bool { return false }

// Capacity implements Controller: the configured sizes are rescaled
// proportionally to the partition's share of the new capacity.
func (c *staticController) Capacity(k int, _ int64) bool {
	sum := 0
	for _, w := range c.conf {
		sum += w
	}
	total := sum
	if c.baseK > 0 {
		total = sum * k / c.baseK
	}
	if total > k {
		total = k
	}
	reapportion(c.sizes, c.conf, total)
	return true
}

// seedQuota writes into dst, resized to len(active), the initial quota
// of the adaptive controllers (FairShare, UCP): an even split of the K
// cells, with inactive cores donating their share to the first active
// core.
func seedQuota(dst []int, k int, active []bool) []int {
	quota := reuse(dst, len(active))
	splitEven(quota, k)
	first := -1
	for j, a := range active {
		if a {
			first = j
			break
		}
	}
	if first >= 0 {
		for j := range quota {
			if !active[j] && quota[j] > 0 {
				quota[first] += quota[j]
				quota[j] = 0
			}
		}
	}
	return quota
}

// EvenSizes splits K cells over p cores as evenly as possible (the first
// K mod p cores get one extra cell).
func EvenSizes(k, p int) []int {
	sizes := make([]int, p)
	splitEven(sizes, k)
	return sizes
}

// splitEven writes into sizes the even split of k cells EvenSizes
// returns.
func splitEven(sizes []int, k int) {
	base, extra := k/len(sizes), k%len(sizes)
	for j := range sizes {
		sizes[j] = base
		if j < extra {
			sizes[j]++
		}
	}
}
