package policy

import (
	"fmt"

	"mcpaging/internal/cache"
	"mcpaging/internal/core"
)

// fairController is an online dynamic partition aimed at the fairness
// objective the paper's conclusions propose as future work (and which
// PARTIAL-INDIVIDUAL-FAULTS formalises offline): every Window timesteps
// it moves one cache cell from the core with the fewest recent faults to
// the core with the most, greedily equalising per-core fault rates at
// some cost in total faults.
//
// It is the online counterpart of a PIF bound vector: where Algorithm 2
// asks whether per-core budgets are feasible at a checkpoint, FairShare
// steers toward balanced budgets without future knowledge. Experiment
// E16 measures what that steering costs.
type fairController struct {
	window  int64
	quota   []int
	counts  []int64 // faults in the current window
	nextAt  int64
	active  []bool
	weights []int // Capacity's scratch
}

// FairController returns the FairShare controller dP[fair] with the
// given reallocation window in timesteps (0 = default 64).
func FairController(window int64) Controller {
	if window <= 0 {
		window = 64
	}
	return &fairController{window: window}
}

// NewFairShare returns a FairShare partition over LRU parts with the
// given reallocation window (0 = default).
func NewFairShare(window int64) *Partitioned {
	return NewPartitioned(FairController(window), func() cache.Policy { return cache.NewLRU() })
}

// Name implements Controller.
func (c *fairController) Name() string { return fmt.Sprintf("dP[fair/%d]", c.window) }

// Quota implements Controller.
func (c *fairController) Quota() []int { return c.quota }

// Init implements Controller.
func (c *fairController) Init(inst core.Instance) error {
	p := inst.R.NumCores()
	if inst.P.K < p {
		return fmt.Errorf("policy: FairShare needs K >= p (K=%d, p=%d)", inst.P.K, p)
	}
	c.active = reuse(c.active, p)
	for j := range c.active {
		c.active[j] = len(inst.R[j]) > 0
	}
	c.quota = seedQuota(c.quota, inst.P.K, c.active)
	c.counts = reuse(c.counts, p)
	c.nextAt = c.window
	return nil
}

// Hit implements Controller: hits do not count against the window.
func (c *fairController) Hit(core.PageID, cache.Access) {}

// Join implements Controller: a join is a fault the core did not pay the
// full fetch for, but it still signals demand.
func (c *fairController) Join(_ core.PageID, at cache.Access) { c.counts[at.Core]++ }

// Inserted implements Controller: one fault for the inserting core.
func (c *fairController) Inserted(j int, _ core.PageID, _ cache.Access) { c.counts[j]++ }

// Evicted implements Controller.
func (c *fairController) Evicted(core.PageID) {}

// Donor implements Controller: the faulting core's own part; the steal
// fallback covers a part emptied by a quota cut.
func (c *fairController) Donor(j int, _ PartView, _ func(core.PageID) bool) (int, bool) {
	return j, true
}

// StealOnEmpty implements Controller.
func (c *fairController) StealOnEmpty() bool { return true }

// Tick implements Controller: periodic quota rebalancing — one cell from
// the calmest core to the most fault-ridden one.
func (c *fairController) Tick(t int64) bool {
	if t < c.nextAt {
		return false
	}
	c.nextAt = t + c.window
	rich, poor := -1, -1
	for j := range c.counts {
		if !c.active[j] {
			continue
		}
		if rich == -1 || c.counts[j] > c.counts[rich] {
			rich = j
		}
		if c.quota[j] > 1 && (poor == -1 || c.counts[j] < c.counts[poor]) {
			poor = j
		}
	}
	moved := false
	if rich >= 0 && poor >= 0 && rich != poor && c.counts[rich] > c.counts[poor] {
		c.quota[poor]--
		c.quota[rich]++
		moved = true
	}
	for j := range c.counts {
		c.counts[j] = 0
	}
	return moved
}

// Ticks implements Controller.
func (c *fairController) Ticks() bool { return true }

// Capacity implements Controller: the current quota is rescaled
// proportionally to the new capacity, preserving whatever balance the
// window rebalancing has reached so far.
func (c *fairController) Capacity(k int, _ int64) bool {
	weights := append(c.weights[:0], c.quota...)
	c.weights = weights
	for j := range weights {
		if c.active[j] && weights[j] == 0 {
			weights[j] = 1 // an active core never loses its seat
		}
	}
	reapportion(c.quota, weights, k)
	return true
}
