package policy

import (
	"fmt"

	"mcpaging/internal/cache"
	"mcpaging/internal/core"
)

// ucpController is utility-based cache partitioning in the style of
// Qureshi & Patt (MICRO 2006) — the practice-side dynamic-partition
// heuristic the paper's related work surveys: each core carries a
// lightweight utility monitor (a shadow LRU stack with per-depth hit
// counters, i.e. an online Mattson sampler over the recent past), and
// every Window timesteps the K cells are redistributed greedily by
// marginal utility — each next cell goes to the core whose hit count at
// its current allocation depth is largest. Counters decay geometrically
// so the partition tracks phase changes.
//
// UCP chases total hits where FairShare chases equal faults; experiment
// E13/E16 put both against the shared and static baselines.
type ucpController struct {
	window int64
	decay  int64
	k      int
	quota  []int
	mons   []*umon
	nextAt int64
	active []bool
	alloc  []int // repartition's scratch
}

// umon is a per-core utility monitor: a shadow LRU stack of up to depth
// pages with hit counters per stack depth. No request hits below the
// stack, so the counters grow with it, and the stack holds at most the
// core's distinct pages: a monitor's size and its decay follow the
// pages the core touches, not K.
type umon struct {
	depth int
	stack []core.PageID
	hits  []int64 // hits[d] = hits at depth d (0-based), needing d+1 cells; len(hits) = len(stack)
}

// reset empties the monitor and sets its depth.
func (m *umon) reset(depth int) {
	m.depth = depth
	m.stack = m.stack[:0]
	m.hits = m.hits[:0]
}

// access records one request in the shadow stack.
func (m *umon) access(p core.PageID) {
	for i, q := range m.stack {
		if q == p {
			m.hits[i]++
			copy(m.stack[1:i+1], m.stack[:i])
			m.stack[0] = p
			return
		}
	}
	if len(m.stack) < m.depth {
		m.stack = append(m.stack, 0)
		m.hits = append(m.hits, 0)
	}
	copy(m.stack[1:], m.stack[:len(m.stack)-1])
	m.stack[0] = p
}

func (m *umon) decay(d int64) {
	for i := range m.hits {
		m.hits[i] /= d
	}
}

// UCPController returns the UCP controller dP[ucp] with the given
// repartitioning window in timesteps (0 = default 128).
func UCPController(window int64) Controller {
	if window <= 0 {
		window = 128
	}
	return &ucpController{window: window, decay: 2}
}

// NewUCP returns a UCP partition over LRU parts with the given window
// (0 = default).
func NewUCP(window int64) *Partitioned {
	return NewPartitioned(UCPController(window), func() cache.Policy { return cache.NewLRU() })
}

// Name implements Controller.
func (c *ucpController) Name() string { return fmt.Sprintf("dP[ucp/%d]", c.window) }

// Quota implements Controller.
func (c *ucpController) Quota() []int { return c.quota }

// Init implements Controller.
func (c *ucpController) Init(inst core.Instance) error {
	p := inst.R.NumCores()
	if inst.P.K < p {
		return fmt.Errorf("policy: UCP needs K >= p (K=%d, p=%d)", inst.P.K, p)
	}
	c.k = inst.P.K
	c.active = reuse(c.active, p)
	for j := range c.active {
		c.active[j] = len(inst.R[j]) > 0
	}
	c.quota = seedQuota(c.quota, c.k, c.active)
	if len(c.mons) != p {
		c.mons = make([]*umon, p)
	}
	for j, m := range c.mons {
		if m == nil {
			m = &umon{}
			c.mons[j] = m
		}
		m.reset(c.k)
	}
	c.nextAt = c.window
	return nil
}

// Hit implements Controller.
func (c *ucpController) Hit(p core.PageID, at cache.Access) { c.mons[at.Core].access(p) }

// Join implements Controller.
func (c *ucpController) Join(p core.PageID, at cache.Access) { c.mons[at.Core].access(p) }

// Inserted implements Controller.
func (c *ucpController) Inserted(_ int, p core.PageID, at cache.Access) {
	c.mons[at.Core].access(p)
}

// Evicted implements Controller.
func (c *ucpController) Evicted(core.PageID) {}

// Donor implements Controller: the faulting core's own part; the steal
// fallback covers a part emptied by a quota cut.
func (c *ucpController) Donor(j int, _ PartView, _ func(core.PageID) bool) (int, bool) {
	return j, true
}

// StealOnEmpty implements Controller.
func (c *ucpController) StealOnEmpty() bool { return true }

// repartition reassigns the K cells greedily by marginal utility, ties
// to the lowest core index. Once every active core's next cell would
// gain nothing, the lowest-index active core takes each remaining cell
// in turn: any gain it finds deeper only widens its lead, and no other
// core's gain moves. So it takes them all at once, and the cells handed
// out one by one are at most the monitors' live depths.
func (c *ucpController) repartition() {
	p := len(c.quota)
	c.alloc = reuse(c.alloc, p)
	alloc := c.alloc
	remaining := c.k
	for j := 0; j < p; j++ {
		if c.active[j] {
			alloc[j] = 1
			remaining--
		}
	}
	for ; remaining > 0; remaining-- {
		best, bestGain := -1, int64(-1)
		for j := 0; j < p; j++ {
			if !c.active[j] || alloc[j] >= c.k {
				continue
			}
			var gain int64 // hits needing alloc[j]+1 cells; 0 past monitor depth
			if alloc[j] < len(c.mons[j].hits) {
				gain = c.mons[j].hits[alloc[j]]
			}
			if gain > bestGain {
				best, bestGain = j, gain
			}
		}
		if best == -1 {
			break
		}
		if bestGain == 0 {
			alloc[best] += remaining
			break
		}
		alloc[best]++
	}
	copy(c.quota, alloc)
	for _, m := range c.mons {
		m.decay(c.decay)
	}
}

// Tick implements Controller.
func (c *ucpController) Tick(t int64) bool {
	if t < c.nextAt {
		return false
	}
	c.nextAt = t + c.window
	c.repartition()
	return true
}

// Ticks implements Controller.
func (c *ucpController) Ticks() bool { return true }

// Capacity implements Controller: the greedy marginal-utility
// redistribution simply reruns over the new cell count. Monitors keep
// their base-K depth; allocations past it see zero marginal gain.
func (c *ucpController) Capacity(k int, _ int64) bool {
	c.k = k
	c.repartition()
	return true
}
