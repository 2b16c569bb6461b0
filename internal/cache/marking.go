package cache

import (
	"mcpaging/internal/core"
)

// marks is a set of marked pages by page ID, epoch-stamped: page p is
// marked iff epoch[p] equals the current phase stamp, so clearing every
// mark (a new marking phase) is a counter increment rather than a sweep.
type marks struct {
	epoch []uint64
	cur   uint64 // current phase stamp, starts at 1
}

func newMarks() marks { return marks{cur: 1} }

func (m *marks) has(p core.PageID) bool {
	return uint(p) < uint(len(m.epoch)) && m.epoch[p] == m.cur
}

func (m *marks) set(p core.PageID) {
	m.epoch = growFor(m.epoch, p)
	m.epoch[p] = m.cur
}

// clear unmarks every page.
func (m *marks) clear() { m.cur++ }

// Marking implements a deterministic member of the marking family: pages
// are marked when inserted or hit; victims are chosen among unmarked
// pages in least-recently-used order; when every page is marked a new
// phase begins and all marks are cleared. On a single replacement domain
// this has the K-competitiveness guarantee of marking algorithms, so
// Lemma 1's upper bound applies to it. The recency order reuses the
// intrusive array-backed list of the LRU family.
type Marking struct {
	r      recencyList
	marked marks
}

// NewMarking returns an empty marking policy.
func NewMarking() *Marking {
	return &Marking{r: newRecencyList(), marked: newMarks()}
}

// Name implements Policy.
func (m *Marking) Name() string { return "MARK" }

// Insert implements Policy. Newly inserted pages are marked.
func (m *Marking) Insert(p core.PageID, _ Access) {
	m.r.insert(p) // panics on duplicate insert, like every domain
	m.marked.set(p)
}

// Touch implements Policy: hits mark the page and refresh recency.
func (m *Marking) Touch(p core.PageID, _ Access) {
	if !m.r.contains(p) {
		return
	}
	m.r.moveToBack(p)
	m.marked.set(p)
}

// Evict implements Policy. If no unmarked evictable page exists but some
// evictable page does, a new phase starts: all marks are cleared and the
// search repeats.
func (m *Marking) Evict(evictable func(core.PageID) bool) (core.PageID, bool) {
	if v, ok := m.evictUnmarked(evictable); ok {
		return v, true
	}
	// Check that at least one page is evictable before opening a new
	// phase; otherwise report failure without disturbing marks.
	if _, ok := m.r.first(evictable); !ok {
		return core.NoPage, false
	}
	m.marked.clear()
	return m.evictUnmarked(evictable)
}

func (m *Marking) evictUnmarked(evictable func(core.PageID) bool) (core.PageID, bool) {
	for p := m.r.front(); p != core.NoPage; p = m.r.nextOf(p) {
		if !m.marked.has(p) && (evictable == nil || evictable(p)) {
			m.r.remove(p)
			return p, true
		}
	}
	return core.NoPage, false
}

// Remove implements Policy.
func (m *Marking) Remove(p core.PageID) bool { return m.r.remove(p) }

// Contains implements Policy.
func (m *Marking) Contains(p core.PageID) bool { return m.r.contains(p) }

// Len implements Policy.
func (m *Marking) Len() int { return m.r.len() }

// Reset implements Policy.
func (m *Marking) Reset() {
	m.r.reset()
	m.marked.clear() // invalidates every mark in place
}

// Resize implements Policy: MARK's victim choice is capacity-independent.
func (m *Marking) Resize(int) {}
