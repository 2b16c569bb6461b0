package cache

import (
	"mcpaging/internal/core"
)

// IncomingEvictor is implemented by policies whose victim choice depends
// on the identity of the page about to be inserted (ARC consults its
// ghost lists). Strategies prefer EvictFor over Evict when available.
type IncomingEvictor interface {
	EvictFor(incoming core.PageID, evictable func(core.PageID) bool) (core.PageID, bool)
}

// arcList is a recency list with O(1) membership, front = LRU. It is
// backed by the same intrusive recencyList as the LRU-family policies,
// so ARC's hit path (remove + pushMRU) is allocation-free after the
// dense node arrays warm up.
type arcList struct{ r recencyList }

func newArcList() *arcList { return &arcList{r: newRecencyList()} }

//mcpaging:hotpath
func (a *arcList) len() int { return a.r.len() }

//mcpaging:hotpath
func (a *arcList) has(p core.PageID) bool { return a.r.contains(p) }

//mcpaging:hotpath
func (a *arcList) pushMRU(p core.PageID) { a.r.insert(p) }

//mcpaging:hotpath
func (a *arcList) remove(p core.PageID) bool { return a.r.remove(p) }

// lru returns the least recent page passing the filter (nil = any)
// without removing it.
//
//mcpaging:hotpath
func (a *arcList) lru(filter func(core.PageID) bool) (core.PageID, bool) {
	return a.r.first(filter)
}

func (a *arcList) reset() { a.r.reset() }

// ARC implements the Adaptive Replacement Cache of Megiddo and Modha
// (FAST'03) behind the Policy interface: resident lists T1 (recency) and
// T2 (frequency), ghost lists B1/B2 of recently evicted pages, and an
// adaptive target p̂ for |T1| that grows on B1 ghost hits and shrinks on
// B2 ghost hits. ARC is scan-resistant, which makes it an interesting
// shared-cache contender in the E13 matrix: one core's streaming scan
// cannot flush another core's hot set as easily as under LRU.
//
// Adaptation to this library's split fault path: the strategy asks for a
// victim (EvictFor, which runs ARC's REPLACE with p̂ already adjusted
// for the incoming page) and then inserts the page (Insert, which
// classifies it by ghost status and trims the ghosts). When the cache
// has free cells the strategy skips eviction and Insert alone performs
// the miss bookkeeping. If ARC's preferred victim is pinned (in flight),
// the other resident list is tried — a documented deviation forced by
// the multicore model's no-evict-while-fetching rule.
type ARC struct {
	c              int
	sized          bool // Resize was called; distinguishes Resize(0) from never-resized
	t1, t2, b1, b2 *arcList
	target         int // p̂: target size of T1
	adjustedFor    core.PageID
	hasAdjusted    bool
}

// NewARC returns an empty ARC; Resize must be called before use.
func NewARC() *ARC {
	return &ARC{t1: newArcList(), t2: newArcList(), b1: newArcList(), b2: newArcList(),
		adjustedFor: core.NoPage}
}

// Name implements Policy.
func (a *ARC) Name() string { return "ARC" }

// Resize implements Policy: the capacity bounds the ghost directory and
// the adaptation target p̂, which is clamped into the new range when a
// dynamic partition shrinks the part.
func (a *ARC) Resize(c int) {
	a.c = c
	a.sized = true
	if a.target > c {
		a.target = c
	}
}

// adjust applies ARC's p̂ update for a miss on page x, once per miss.
func (a *ARC) adjust(x core.PageID) {
	if a.hasAdjusted && a.adjustedFor == x {
		return
	}
	switch {
	case a.b1.has(x):
		d := 1
		if a.b1.len() > 0 && a.b2.len() > a.b1.len() {
			d = a.b2.len() / a.b1.len()
		}
		a.target += d
		if a.target > a.c {
			a.target = a.c
		}
	case a.b2.has(x):
		d := 1
		if a.b2.len() > 0 && a.b1.len() > a.b2.len() {
			d = a.b1.len() / a.b2.len()
		}
		a.target -= d
		if a.target < 0 {
			a.target = 0
		}
	}
	a.adjustedFor, a.hasAdjusted = x, true
}

// EvictFor implements IncomingEvictor: ARC's REPLACE step.
func (a *ARC) EvictFor(x core.PageID, evictable func(core.PageID) bool) (core.PageID, bool) {
	if !a.sized && a.c == 0 {
		// Tolerate missing Resize by adopting the current occupancy.
		// An explicit Resize(0) — an elastic quota shrunk to nothing —
		// must NOT be overwritten: the part really has zero cells.
		a.c = a.t1.len() + a.t2.len()
	}
	a.adjust(x)
	fromT1 := a.t1.len() >= 1 &&
		(a.t1.len() > a.target || (a.b2.has(x) && a.t1.len() == a.target))
	order := []*arcList{a.t1, a.t2}
	ghosts := []*arcList{a.b1, a.b2}
	if !fromT1 {
		order[0], order[1] = a.t2, a.t1
		ghosts[0], ghosts[1] = a.b2, a.b1
	}
	for i, lst := range order {
		if v, ok := lst.lru(evictable); ok {
			lst.remove(v)
			ghosts[i].pushMRU(v)
			return v, true
		}
	}
	return core.NoPage, false
}

// Evict implements Policy (used when the caller has no incoming page,
// e.g. staged-partition shrinks): REPLACE without ghost-hit context.
func (a *ARC) Evict(evictable func(core.PageID) bool) (core.PageID, bool) {
	fromT1 := a.t1.len() >= 1 && a.t1.len() > a.target
	order := []*arcList{a.t1, a.t2}
	ghosts := []*arcList{a.b1, a.b2}
	if !fromT1 {
		order[0], order[1] = a.t2, a.t1
		ghosts[0], ghosts[1] = a.b2, a.b1
	}
	for i, lst := range order {
		if v, ok := lst.lru(evictable); ok {
			lst.remove(v)
			ghosts[i].pushMRU(v)
			return v, true
		}
	}
	return core.NoPage, false
}

// Insert implements Policy: the miss path's placement and ghost
// maintenance.
func (a *ARC) Insert(p core.PageID, _ Access) {
	if a.t1.has(p) || a.t2.has(p) {
		panic("cache: duplicate insert of page in ARC domain")
	}
	if !a.sized && a.c == 0 {
		// Same missing-Resize tolerance as EvictFor; an explicit
		// Resize(0) keeps its zero capacity.
		a.c = a.t1.len() + a.t2.len() + 1
	}
	a.adjust(p)
	if a.b1.has(p) || a.b2.has(p) {
		// Ghost hit: the page has earned frequency status.
		a.b1.remove(p)
		a.b2.remove(p)
		a.t2.pushMRU(p)
	} else {
		a.t1.pushMRU(p)
	}
	a.trimGhosts()
	a.hasAdjusted = false
	a.adjustedFor = core.NoPage
}

// trimGhosts enforces |T1|+|B1| ≤ c and total directory ≤ 2c.
func (a *ARC) trimGhosts() {
	for a.t1.len()+a.b1.len() > a.c && a.b1.len() > 0 {
		if v, ok := a.b1.lru(nil); ok {
			a.b1.remove(v)
		}
	}
	for a.t1.len()+a.t2.len()+a.b1.len()+a.b2.len() > 2*a.c && a.b2.len() > 0 {
		if v, ok := a.b2.lru(nil); ok {
			a.b2.remove(v)
		}
	}
}

// Touch implements Policy: a hit promotes the page to T2 MRU.
func (a *ARC) Touch(p core.PageID, _ Access) {
	if a.t1.remove(p) || a.t2.remove(p) {
		a.t2.pushMRU(p)
	}
}

// Remove implements Policy.
func (a *ARC) Remove(p core.PageID) bool {
	return a.t1.remove(p) || a.t2.remove(p)
}

// Contains implements Policy.
func (a *ARC) Contains(p core.PageID) bool { return a.t1.has(p) || a.t2.has(p) }

// Len implements Policy.
func (a *ARC) Len() int { return a.t1.len() + a.t2.len() }

// Reset implements Policy; the capacity survives.
func (a *ARC) Reset() {
	a.t1.reset()
	a.t2.reset()
	a.b1.reset()
	a.b2.reset()
	a.target = 0
	a.hasAdjusted = false
	a.adjustedFor = core.NoPage
}
